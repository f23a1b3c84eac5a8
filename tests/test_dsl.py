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
from apate.model import (ALWAYS_TRUE, Action, ActionChain, Condition,
                         ConditionBlock, OP_AND, OP_OR, Rule, RuleChain,
                         RuleProgram)

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

    def test_int_past_the_digit_limit_is_a_source_error(self):
        assert toks("f(" + "9" * 4300 + ")")[2].value == 10 ** 4300 - 1
        with pytest.raises(ApateSyntaxError) as exc:
            toks('f(\n  "==";-' + "9" * 5000 + ")")
        assert exc.value.message == "integer literal of 5001 characters is too long"
        assert (exc.value.line, exc.value.col) == (2, 8)

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

    @pytest.mark.parametrize("text, message", [
        ("define r as rule\nlet r be log",
         "p.apate:2:1: 'r' is a rule; expected {guard->actions}"),
        ("define rc as rulechain\nlet rc be log",
         "p.apate:2:1: 'rc' is a rulechain; expected {rule,rule,...}"),
        ("define sy as syscall\nlet sy be {(always_true())}",
         "p.apate:2:1: 'sy' is a syscall; expected a syscall name"),
        ("define sy as syscall\nlet sy be sys_open(1)",
         "p.apate:2:1: 'sy' is a syscall; expected a syscall name"),
        ("define c as condition\nlet c be {(always_true())}",
         "p.apate:2:1: 'c' is a condition; expected a builtin name"),
        ("define a as action\nlet a be {r}",
         "p.apate:2:1: 'a' is a action; expected a builtin name"),
        ("define cb as conditionblock\nlet cb be\n {(always_true() && log())}",
         "p.apate:3:1: 'log' is a action, not a condition"),
        ("define r as rule\nlet r be {{always_true()}->\ntestforuid(\">\";0)}",
         "p.apate:3:1: 'testforuid' is a condition, not a action"),
        ("define cb as conditionblock\ndefine r as rule\n"
         "let cb be {(r())}",
         "p.apate:3:1: 'r' is a rule, not a condition"),
        ("define cb as conditionblock\ndefine r as rule\n"
         "let r be {{always_true()}->cb()}",
         "p.apate:3:1: 'cb' is a conditionblock, not a action"),
        ("define c as condition\ndefine r as rule\nlet c be always_true\n"
         "let r be {c->log()}",
         "p.apate:4:1: rule guard 'c' is not a conditionblock"),
    ])
    def test_type_mismatch_messages(self, text, message):
        with pytest.raises(TypeMismatch) as exc:
            compile_source(text, "p.apate")
        assert str(exc.value) == message

    def test_param_of_the_wrong_type_names_the_builtin(self):
        with pytest.raises(ArityError) as exc:
            compile_source("define c as condition\ndefine r as rule\n"
                           "define rc as rulechain\nlet c be testforpname(5)\n",
                           "p.apate")
        assert str(exc.value) == (
            "p.apate:4:1: testforpname: expected string, got 5")

    def test_alias_with_params_is_the_inline_call(self):
        def program(call, alias=""):
            return compile_source(
                "define c as condition\ndefine r as rule\n"
                f"define rc as rulechain\n{alias}\n"
                f"let r be {{{{{call} && always_true()}}->log()}}\n"
                "let rc be {r}\nbind rc to sys_open\n", "p.apate")
        aliased, warnings = program("c()", 'let c be testforuid(">";0)')
        inline, _ = program('testforuid(">";0)')
        assert warnings == []
        guard = aliased.chains["rc"].rules[0].guard
        assert guard == inline.chains["rc"].rules[0].guard
        assert guard.left == Condition("testforuid", (">", 0))
        assert apc.serialize(aliased) == apc.serialize(inline)

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

    def test_let_of_a_call_prints_verbatim(self):
        source = 'define c as condition\nlet c be testforuid(">";0)\n'
        assert pretty_print(parse(toks(source))) == source

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
        separators = MYSQL_EXAMPLE.replace('"mysql"', '"my\N{LINE SEPARATOR}sql"')
        for source in (MYSQL_EXAMPLE, separators):
            prog, _ = compile_source(source)
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

    def test_shared_rule_is_one_record(self):
        # r runs in both chains and twice in rc1: one RULE record
        prog, _ = compile_source(
            'define r as rule\ndefine rc1,rc2 as rulechain\n'
            'let r be {{testforuid(">";0)}->log()}\n'
            'let rc1 be {r,:r}\nlet rc2 be {r}\n'
            'bind rc1 to sys_open\nbind rc2 to sys_close')
        blob = apc.serialize(prog)
        assert blob.count(b"\nRULE\t") == 1
        assert b"\nCHAIN\trc1\tr,:r\n" in blob
        again = apc.deserialize(blob)
        assert strip_spans(again).chains == strip_spans(prog).chains
        assert apc.serialize(again) == blob

    def test_blank_lines_are_skipped(self):
        prog, _ = compile_source(MYSQL_EXAMPLE)
        blob = apc.serialize(prog)
        padded = blob.replace(b"\n", b"\n\n \t\n", 2).replace(
            b"\nBIND", b"\n   \nBIND")
        assert padded != blob
        assert apc.serialize(apc.deserialize(padded)) == blob

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
        'COND\tc0\ttestforuid\t["<",1]',             # defined twice
        "ACTION\ta0\tlog\t[]",
        "RULE\tr0\t(& c0 c0)\ta0\tx:1",
        "CHAIN\tch\tr0",
        pytest.param("COND\tc1\ttestforuid\t" + "[" * 200_000,
                     id="deeply nested params"),
    ])
    def test_corrupt_records(self, line):
        prefix = ("APATE-RP 1\n"
                  'COND\tc0\ttestforuid\t[">",0]\n'
                  "ACTION\ta0\tlog\t[]\n"
                  "RULE\tr0\t(& c0 c0)\ta0\tx:1\n"
                  "CHAIN\tch\t:r0\n")
        with pytest.raises(CorruptRecord) as exc:
            apc.deserialize((prefix + line + "\n").encode())
        assert exc.value.line_no == 6

    @pytest.mark.parametrize("guard, aids, message", [
        ("(& c0", "a0", "truncated guard expression"),
        ("(", "a0", "expected & or | in guard"),
        ("(c0 c0)", "a0", "expected & or | in guard"),
        ("(& c0 c0 c0)", "a0", "missing ')' in guard"),
        ("(& c0 c0) c0", "a0", "trailing tokens in guard expression"),
        ("c0", "a0", "guard must be a condition block"),
        ("(& c0 c0)", "a0,a9", "unknown action id 'a9'"),
    ])
    def test_bad_rule_record_names_its_line(self, guard, aids, message):
        blob = ("APATE-RP 1\n"
                'COND\tc0\ttestforuid\t[">",0]\n'
                "ACTION\ta0\tlog\t[]\n"
                "RULE\tr0\t(& c0 c0)\ta0\tx:1\n"
                f"RULE\tr1\t{guard}\t{aids}\tx:2\n")
        with pytest.raises(CorruptRecord) as exc:
            apc.deserialize(blob.encode())
        assert str(exc.value) == f"line 5: {message}"

    def test_one_rule_name_with_two_bodies_does_not_serialize(self):
        def chain(name, uid):
            guard = ConditionBlock(Condition("testforuid", ("==", uid)),
                                   ALWAYS_TRUE, OP_AND)
            return RuleChain(name, (Rule("r", guard, ActionChain(
                (Action("log"),))),))
        prog = RuleProgram({"a": chain("a", 1), "b": chain("b", 2)},
                           [("open", "a"), ("getpid", "b")])
        with pytest.raises(ValueError,
                           match="rule name 'r' used with different bodies"):
            apc.serialize(prog)

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

    @pytest.mark.parametrize("blob, message", [
        # a loader that kept the later rule gave chain a the body (& c0 c0)
        # and chain b the body (| c0 c0), and serialize then refused it
        ("APATE-RP 1\n"
         'COND\tc0\ttestforuid\t[">",0]\n'
         "ACTION\ta0\tlog\t[]\n"
         "RULE\tr\t(& c0 c0)\ta0\tx:1\n"
         "CHAIN\ta\tr\n"
         "RULE\tr\t(| c0 c0)\ta0\tx:1\n"
         "CHAIN\tb\tr\n"
         "BIND\tsys_open\ta\n"
         "BIND\tsys_getpid\tb\n", "line 6: rule 'r' already defined"),
        # a loader that kept the later of each serialized other bytes
        ("APATE-RP 1\n"
         'COND\tc0\ttestforuid\t[">",0]\n'
         'COND\tc0\ttestforuid\t["<",5]\n'
         "ACTION\ta0\tlog\t[]\n"
         "RULE\tr0\t(& c0 c0)\ta0\tx:1\n"
         "CHAIN\ta\tr0\n"
         "CHAIN\ta\t:r0\n"
         "BIND\tsys_open\ta\n",
         "line 3: condition id 'c0' already defined"),
    ])
    def test_a_name_defined_twice_is_corrupt_at_its_line(self, blob, message):
        # The DSL refuses a name defined twice, and a loader that kept
        # either definition would not give back the file's own bytes.
        with pytest.raises(CorruptRecord) as exc:
            apc.deserialize(blob.encode())
        assert str(exc.value) == message

    def test_corrupt_record_reports_line(self):
        with pytest.raises(CorruptRecord) as exc:
            apc.deserialize(b"APATE-RP 1\nWHAT\tx\n")
        assert "line 2" in str(exc.value)

    @pytest.mark.parametrize("line, message", [
        ("ACTION\ta1\tblock\t[true]", "expected integer, got True"),
        ('ACTION\ta1\tstore_set\t["k",[1,2]]', "string or integer"),
        ('ACTION\ta1\tstore_set\t["k",null]', "string or integer"),
        ('COND\tc1\ttestforuid\t[">",false]', "expected integer"),
        ("COND\tc1\tlog\t[]", "'log' is not a builtin condition"),
        ("ACTION\ta1\talways_true\t[]", "'always_true' is not a builtin action"),
        ("COND\tc1\tnope\t[]", "'nope' is not a builtin condition"),
        ('COND\tc1\ttestforuid\t[">"]', "takes 2 params"),
    ])
    def test_bad_builtin_record_is_corrupt_at_its_line(self, line, message):
        blob = ("APATE-RP 1\n"
                'COND\tc0\ttestforuid\t[">",0]\n'
                "ACTION\ta0\tlog\t[]\n" + line + "\n"
                "RULE\tr0\t(& c0 c0)\ta0\tx:1\n")
        with pytest.raises(CorruptRecord, match=f"line 4: .*{message}"):
            apc.deserialize(blob.encode())

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
