import dataclasses

import pytest

from apate import apc
from apate.dsl import (Ast, BindStmt, Call, ChainExpr, CondBlockExpr, Define,
                       Let, RuleExpr, SourceUnit, analyze, compile_source,
                       parse, pretty_print, tokenize)
from apate.errors import (ApateSyntaxError, ArityError, BadMagic,
                          CorruptRecord, DuplicateBind, IllegalCharacter,
                          SemanticError, TypeMismatch, UndefinedName,
                          UnsupportedVersion, UnterminatedString)
from apate.model import (ALWAYS_TRUE, Condition, ConditionBlock, OP_AND,
                         OP_OR, RuleProgram)

from apate.engine import dispatch
from apate.sandbox import SandboxState

from conftest import MYSQL_EXAMPLE, make_ctx, make_event


def toks(text):
    return tokenize(SourceUnit(text))


def strip_spans(prog: RuleProgram) -> RuleProgram:
    chains = {}
    for name, chain in prog.chains.items():
        rules = tuple(dataclasses.replace(r, span="") for r in chain.rules)
        chains[name] = dataclasses.replace(chain, rules=rules)
    return dataclasses.replace(prog, chains=chains)


class TestLexer:
    def test_basic_stream(self):
        types = [(t.type, t.value) for t in toks('let x be f(1;"a")')]
        assert types == [("KW", "let"), ("IDENT", "x"), ("KW", "be"),
                         ("IDENT", "f"), ("PUNCT", "("), ("INT", 1),
                         ("PUNCT", ";"), ("STRING", "a"), ("PUNCT", ")"),
                         ("EOF", None)]

    def test_comments_and_negative_ints(self):
        stream = toks("a // trailing comment\nb(-13)")
        values = [t.value for t in stream if t.type != "EOF"]
        assert values == ["a", "b", "(", -13, ")"]

    def test_arrow_vs_minus(self):
        assert [t.value for t in toks("a->b")][:3] == ["a", "->", "b"]
        with pytest.raises(IllegalCharacter):
            toks("a - b")

    def test_continuation_outside_string(self):
        stream = toks('let x \\\n be y')
        assert [t.value for t in stream if t.type != "EOF"] == ["let", "x",
                                                                "be", "y"]

    def test_continuation_inside_string_splices_indent(self):
        (tok,) = [t for t in toks('"/var/\\\n   lib/mysql/*"')
                  if t.type == "STRING"]
        assert tok.value == "/var/lib/mysql/*"

    def test_string_escapes(self):
        (tok,) = [t for t in toks(r'"a\"b\\c\nA"') if t.type == "STRING"]
        assert tok.value == 'a"b\\c\nA'

    @pytest.mark.parametrize("escape", [
        r"\u 041", r"\u0x41", r"\u+041", r"\u1_23", r"\ud800", r"\uDFFF",
        r"\u12", "\\u\u0661\u0662\u0663\u0664",
    ])
    def test_u_escape_takes_four_ascii_hex_digits_and_no_surrogate(self, escape):
        with pytest.raises(IllegalCharacter) as exc:
            toks(f'f(\n  "ab{escape}")')
        assert exc.value.message == "bad \\u escape"
        assert (exc.value.line, exc.value.col) == (2, 6)

    def test_u_escape_edges(self):
        (tok,) = [t for t in toks(r'"\u0041\ud7ff\uE000\uFFFF\u00e9"')
                  if t.type == "STRING"]
        assert tok.value == "A\ud7ff\ue000\uffff\u00e9"

    @pytest.mark.parametrize("text, col", [
        ("f(5\u00b2)", 4), ("f(\u00b2)", 3), ("f(\u0663)", 3),
        ("f(12\u0663)", 5), ("f(\u00bd)", 3),
    ])
    def test_int_digits_are_ascii(self, text, col):
        with pytest.raises(IllegalCharacter, match="illegal character") as exc:
            toks(text)
        assert (exc.value.line, exc.value.col) == (1, col)

    def test_non_ascii_digits_continue_identifiers(self):
        assert [t.value for t in toks("x\u00b2 y\u0663")][:2] == ["x\u00b2",
                                                                  "y\u0663"]

    def test_unterminated_string(self):
        with pytest.raises(UnterminatedString) as exc:
            toks('let x be f("oops)')
        assert exc.value.line == 1

    def test_newline_terminates_string(self):
        with pytest.raises(UnterminatedString):
            toks('"no continuation\nhere"')

    def test_illegal_character(self):
        with pytest.raises(IllegalCharacter):
            toks("let x be @")

    def test_positions_tracked(self):
        second_line = [t for t in toks("a\n  b") if t.value == "b"][0]
        assert (second_line.line, second_line.col) == (2, 3)


class TestParser:
    def test_worked_example_shape(self):
        ast = parse(toks(MYSQL_EXAMPLE))
        defines = [s for s in ast.statements if isinstance(s, Define)]
        lets = [s for s in ast.statements if isinstance(s, Let)]
        binds = [s for s in ast.statements if isinstance(s, BindStmt)]
        assert len(defines) == 6
        assert len(lets) == 10
        assert len(binds) == 1
        assert sum(len(d.names) for d in defines) == 10
        by_name = {s.name: s.rhs for s in lets}
        assert isinstance(by_name["cb1"], CondBlockExpr)
        assert isinstance(by_name["r1"], RuleExpr)
        assert isinstance(by_name["r2"], RuleExpr)
        assert isinstance(by_name["rc1"], ChainExpr)
        assert by_name["rc1"].items == [(False, "r2"), (True, "r1")]
        assert binds[0].chain == "rc1" and binds[0].syscall == "sy1"

    def test_in_string_continuation_value(self):
        ast = parse(toks(MYSQL_EXAMPLE))
        cb1 = {s.name: s.rhs for s in ast.statements
               if isinstance(s, Let)}["cb1"]
        assert cb1.expr.right.args == [0, "/var/lib/mysql/*"]

    def test_precedence_and_over_or(self):
        ast = parse(toks("define cb as conditionblock\n"
                         "let cb be {a() || b() && c()}"))
        expr = ast.statements[1].rhs.expr
        assert expr.op == "||"
        assert expr.right.op == "&&"

    def test_parens_override_precedence(self):
        ast = parse(toks("define cb as conditionblock\n"
                         "let cb be {(a() || b()) && c()}"))
        expr = ast.statements[1].rhs.expr
        assert expr.op == "&&"
        assert expr.left.op == "||"

    def test_comma_alias_for_semicolon(self):
        ast = parse(toks('define c as condition\nlet c be f(1,"x")'))
        assert ast.statements[1].rhs.args == [1, "x"]

    def test_inline_rule_guard(self):
        ast = parse(toks("define r as rule\nlet r be {{c()}->a()}"))
        rx = ast.statements[1].rhs
        assert isinstance(rx, RuleExpr)
        assert isinstance(rx.guard, CondBlockExpr)
        assert isinstance(rx.guard.expr, Call)

    @pytest.mark.parametrize("text", [
        "",
        "define x as nonsense",
        "let x be",
        "define r as rule\nlet r be {c->}",
        "bind x",
        "define cb as conditionblock\nlet cb be {a() &&}",
        "garbage here",
    ])
    def test_syntax_errors(self, text):
        with pytest.raises(ApateSyntaxError):
            parse(toks(text))

    def test_error_carries_location(self):
        with pytest.raises(ApateSyntaxError) as exc:
            parse(toks("define x as\nrule extra"), "prog.apate")
        assert str(exc.value).startswith("prog.apate:")

    @pytest.mark.parametrize("body, where, got", [
        ('{{testforuid(">" ";" 0) "||" always_true()}->log()}', "3:27", '";"'),
        ('{{always_true()}->log() "," log()}', "3:34", '","'),
        ('{":" r}', "3:11", '":"'),
    ])
    def test_string_literal_is_not_punctuation(self, body, where, got):
        with pytest.raises(ApateSyntaxError) as exc:
            compile_source("define r as rule\ndefine rc as rulechain\n"
                           f"let r be {body}\n", "p.apate")
        assert str(exc.value).startswith(f"p.apate:{where}: ")
        assert str(exc.value).endswith(f"got string {got}")


class TestAnalyzer:
    def compile_err(self, text, exc_type):
        with pytest.raises(exc_type):
            compile_source(text)

    def test_undefined_name(self):
        self.compile_err("let x be testforuid", UndefinedName)

    def test_duplicate_define(self):
        self.compile_err("define x,x as condition", SemanticError)

    def test_double_assignment(self):
        self.compile_err("define c as condition\nlet c be testforuid\n"
                         "let c be testforpname", SemanticError)

    def test_kind_mismatch_alias(self):
        self.compile_err("define c as condition\nlet c be log", TypeMismatch)

    def test_rhs_shape_mismatch(self):
        self.compile_err("define cb as conditionblock\nlet cb be testforuid",
                         TypeMismatch)

    def test_unknown_builtin(self):
        self.compile_err("define c as condition\nlet c be nosuchthing",
                         UndefinedName)

    def test_arity_error(self):
        self.compile_err('define c as condition\nlet c be testforuid(">")',
                         ArityError)

    @pytest.mark.parametrize("kind, rule, builtin", [
        ("condition", '{{c(">";0)}->log()}', "testforuid"),
        ("action", "{{always_true()}->c()}", "log"),
    ])
    def test_alias_used_before_its_let(self, kind, rule, builtin):
        with pytest.raises(UndefinedName) as exc:
            compile_source(f"define c as {kind}\ndefine r as rule\n"
                           f"define rc as rulechain\nlet r be {rule}\n"
                           f"let c be {builtin}\n"
                           "let rc be {r}\nbind rc to sys_open\n", "x.apate")
        assert str(exc.value) == "x.apate:4:1: 'c' is used before it is assigned"

    def test_frozen_alias_rejects_args(self):
        self.compile_err('define c as condition\n'
                         'define cb as conditionblock\n'
                         'let c be testforuid(">";0)\n'
                         'let cb be {c(1) && always_true()}', ArityError)

    def test_block_then_call_orig_rejected(self):
        self.compile_err('define r as rule\n'
                         'define rc as rulechain\n'
                         'let r be {{always_true()}->block(),call_orig()}\n'
                         'let rc be {r}\nbind rc to sys_open', SemanticError)

    def test_duplicate_bind(self):
        self.compile_err('define r as rule\ndefine rc as rulechain\n'
                         'let r be {{always_true()}->log()}\n'
                         'let rc be {r}\n'
                         'bind rc to sys_open\nbind rc to open', DuplicateBind)

    def test_unknown_syscall(self):
        self.compile_err('define r as rule\ndefine rc as rulechain\n'
                         'let r be {{always_true()}->log()}\n'
                         'let rc be {r}\nbind rc to sys_fork', UndefinedName)

    def test_chain_member_must_be_rule(self):
        self.compile_err('define c as condition\ndefine rc as rulechain\n'
                         'let c be always_true\nlet rc be {c}', TypeMismatch)

    def test_unused_warning(self):
        _, warnings = compile_source(
            'define r,unused as rule\ndefine rc as rulechain\n'
            'let r be {{always_true()}->log()}\n'
            'let rc be {r}\nbind rc to sys_open')
        assert any("unused" in w for w in warnings)

    def test_rewrite_loop_warning(self):
        _, warnings = compile_source(
            'define r as rule\ndefine rc as rulechain\n'
            'let r be {{always_true()}->'
            'manipulateparam(0;"/h/*";"/h/deeper/")}\n'
            'let rc be {r}\nbind rc to sys_open')
        assert any("rewrite loop" in w for w in warnings)

    def test_worked_example_clean(self):
        prog, warnings = compile_source(MYSQL_EXAMPLE)
        assert warnings == []
        assert prog.bindings == [("open", "rc1")]


class TestLowering:
    def test_single_condition_gets_neutral_partner(self):
        prog, _ = compile_source(
            'define r as rule\ndefine rc as rulechain\n'
            'let r be {{testforuid(">";0)}->log()}\n'
            'let rc be {r}\nbind rc to sys_open')
        guard = prog.chains["rc"].rules[0].guard
        assert guard == ConditionBlock(Condition("testforuid", (">", 0)),
                                       ALWAYS_TRUE, OP_AND)

    def test_binop_lowering_left_assoc(self):
        prog, _ = compile_source(
            'define r as rule\ndefine rc as rulechain\n'
            'let r be {{always_true() && always_true() || always_true()}'
            '->log()}\n'
            'let rc be {r}\nbind rc to sys_open')
        guard = prog.chains["rc"].rules[0].guard
        assert guard.op_code == OP_OR
        assert guard.left.op_code == OP_AND
        assert guard.right == ALWAYS_TRUE

    def test_exit_flags_from_chain(self):
        prog, _ = compile_source(MYSQL_EXAMPLE)
        chain = prog.chains["rc1"]
        assert [(r.name, r.exit_flag) for r in chain.rules] == [("r2", 0),
                                                                ("r1", 1)]

    def test_spans_point_at_source(self):
        prog, _ = compile_source(MYSQL_EXAMPLE, "mysql.apate")
        assert prog.chains["rc1"].rules[1].span == "mysql.apate:18"

    def test_shared_rule_in_two_chains_with_different_exit(self):
        prog, _ = compile_source(
            'define r as rule\ndefine rc1,rc2 as rulechain\n'
            'let r be {{always_true()}->log()}\n'
            'let rc1 be {r}\nlet rc2 be {:r}\n'
            'bind rc1 to sys_open\nbind rc2 to sys_close')
        assert prog.chains["rc1"].rules[0].exit_flag == 0
        assert prog.chains["rc2"].rules[0].exit_flag == 1


class TestPrettyPrint:
    def test_round_trip_fixed_point(self):
        ast = parse(toks(MYSQL_EXAMPLE))
        printed = pretty_print(ast)
        reparsed = parse(toks(printed))
        assert pretty_print(reparsed) == printed

    def test_round_trip_compiles_identically(self):
        prog1, _ = compile_source(MYSQL_EXAMPLE)
        printed = pretty_print(parse(toks(MYSQL_EXAMPLE)))
        prog2, _ = compile_source(printed)
        assert strip_spans(prog1) == strip_spans(prog2)
        assert apc.serialize(strip_spans(prog1)) == apc.serialize(strip_spans(prog2))

    def test_3000_leaf_guard(self):
        leaves = [f'testforparam(0;"/p{i}/*")' for i in range(3_000)]
        source = ("define r1 as rule\ndefine rc1 as rulechain\n"
                  f"let r1 be {{{{{' && '.join(leaves)}}}->log()}}\n"
                  "let rc1 be {r1}\nbind rc1 to sys_open\n")
        nested = "(" * 2_999 + leaves[0] + "".join(f" && {x})" for x in leaves[1:])
        assert pretty_print(parse(toks(source))) == source.replace(
            " && ".join(leaves), nested)


class TestApcFormat:
    def test_round_trip_byte_identical(self):
        prog, _ = compile_source(MYSQL_EXAMPLE)
        blob = apc.serialize(prog)
        assert apc.serialize(apc.deserialize(blob)) == blob

    def test_deserialized_equals_source_modulo_spans(self):
        prog, _ = compile_source(MYSQL_EXAMPLE)
        again = apc.deserialize(apc.serialize(prog))
        assert strip_spans(again).chains == strip_spans(prog).chains
        assert again.bindings == prog.bindings

    def test_header_and_bind_shape(self):
        prog, _ = compile_source(MYSQL_EXAMPLE)
        lines = apc.serialize(prog).decode().splitlines()
        assert lines[0] == "APATE-RP 1"
        assert lines[-1] == "BIND\tsys_open\trc1"

    def test_value_dedup(self):
        prog, _ = compile_source(
            'define r1,r2 as rule\ndefine rc as rulechain\n'
            'let r1 be {{testforuid(">";0)}->log()}\n'
            'let r2 be {{testforuid(">";0)}->log()}\n'
            'let rc be {r1,r2}\nbind rc to sys_open')
        text = apc.serialize(prog).decode()
        assert text.count("COND\t") == 2  # testforuid + the neutral partner
        assert text.count("ACTION\t") == 1

    def test_bad_magic(self):
        with pytest.raises(BadMagic):
            apc.deserialize(b"NOT-APC 1\n")
        with pytest.raises(BadMagic):
            apc.deserialize(b"")

    def test_unsupported_version(self):
        with pytest.raises(UnsupportedVersion):
            apc.deserialize(b"APATE-RP 99\n")

    @pytest.mark.parametrize("line", [
        "WHAT\tx",
        "COND\tc0\ttestforuid",                      # missing params field
        "COND\tc0\ttestforuid\tnot-json",
        'COND\tc0\ttestforuid\t{">":0}',              # params not a list
        'COND\tc0\ttestforuid\t">0"',
        "RULE\tr\tc9\ta0\ts",                        # unknown condition id
        "RULE\tr\t(& c0)\ta0\ts",                    # malformed guard
        "CHAIN\tch\tnope",                           # unknown rule
        "BIND\tsys_fork\tch",                        # unknown syscall
        "BIND\tsys_open\tmissing",                   # unknown chain
    ])
    def test_corrupt_records(self, line):
        prefix = ("APATE-RP 1\n"
                  'COND\tc0\ttestforuid\t[">",0]\n'
                  "ACTION\ta0\tlog\t[]\n"
                  "RULE\tr0\t(& c0 c0)\ta0\tx:1\n"
                  "CHAIN\tch\t:r0\n")
        with pytest.raises(CorruptRecord):
            apc.deserialize((prefix + line + "\n").encode())

    def test_second_bind_of_a_syscall_is_corrupt(self):
        # The DSL rejects this as DuplicateBind; a loader that kept both
        # would let plain and cloaked runs pick different chains.
        blob = ("APATE-RP 1\n"
                "ACTION\ta0\tlog\t[]\n"
                'COND\tc0\ttestforuid\t[">",0]\n'
                "RULE\tr0\t(& c0 c0)\ta0\tx:1\n"
                "CHAIN\ta\t:r0\n"
                "CHAIN\tb\t:r0\n"
                "BIND\tsys_open\ta\n"
                "BIND\tsys_open\tb\n")
        with pytest.raises(CorruptRecord, match="line 8: syscall 'open' "
                           "already has a bound rulechain"):
            apc.deserialize(blob.encode())
        one = apc.deserialize(blob.encode().rsplit(b"BIND", 1)[0])
        assert one.bindings == [("open", "a")]

    def test_corrupt_record_reports_line(self):
        with pytest.raises(CorruptRecord) as exc:
            apc.deserialize(b"APATE-RP 1\nWHAT\tx\n")
        assert "line 2" in str(exc.value)

    def test_non_utf8_is_corrupt_record(self):
        with pytest.raises(CorruptRecord) as exc:
            apc.deserialize(b"APATE-RP 1\nACTION\ta0\tlog\t[]\n"
                            b"COND\tc0\ttestforpname\t[\"\xff\"]\n")
        assert "line 3" in str(exc.value)


class TestDeepGuards:
    @staticmethod
    def source(leaves):
        return ("define r1 as rule\ndefine rc1 as rulechain\n"
                f"let r1 be {{{{{' && '.join(leaves)}}}->log()}}\n"
                "let rc1 be {r1}\nbind rc1 to sys_getuid\n")

    def test_5000_leaf_guard_through_compiler_apc_and_engine(self):
        leaves = [f'testforuid(">=";{-i})' for i in range(5_000)]
        for last, fires in ((leaves[-1], 1), ('testforuid("<";0)', 0)):
            prog, _ = compile_source(self.source(leaves[:-1] + [last]))
            blob = apc.serialize(prog)
            again = apc.deserialize(blob)
            assert apc.serialize(again) == blob
            assert blob.count(b"COND\t") == 5_000
            disp = dispatch(again, make_event("getuid", ctx=make_ctx(uid=1000)),
                            SandboxState())
            assert disp.conditions_evaluated == 5_000
            assert disp.matched_rules == [0] * fires
            assert disp.result == 1000

    @pytest.mark.parametrize("nest", ["left", "right"])
    def test_3000_deep_parentheses_alternating_ops(self, nest):
        depth = 3_000
        leaves = [f'testforuid(">=";{-i})' for i in range(depth + 1)]
        ops = ["&&" if i % 2 else "||" for i in range(depth)]
        if nest == "left":   # (((c0 || c1) && c2) || c3) ...
            expr = "(" * depth + leaves[0] + "".join(
                f" {op} {leaf})" for op, leaf in zip(ops, leaves[1:]))
        else:                # (c0 || (c1 && (c2 || c3 ...)))
            expr = "".join(f"({leaf} {op} " for leaf, op in zip(leaves, ops)
                           ) + leaves[-1] + ")" * depth
        source = self.source([expr])
        prog, _ = compile_source(source)
        blob = apc.serialize(prog)
        assert apc.serialize(apc.deserialize(blob)) == blob
        printed = pretty_print(parse(toks(source)))
        assert pretty_print(parse(toks(printed))) == printed
        disp = dispatch(apc.deserialize(blob),
                        make_event("getuid", ctx=make_ctx(uid=1000)),
                        SandboxState())
        assert disp.conditions_evaluated == depth + 1
        assert disp.matched_rules == [0]

    def test_deep_guard_reports_its_first_bad_leaf(self):
        leaves = ['testforuid(">=";0)'] * 5_000
        leaves[10], leaves[4_000] = "nosuch1()", "nosuch2()"
        with pytest.raises(UndefinedName, match="nosuch1"):
            compile_source(self.source(leaves))
