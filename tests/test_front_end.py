"""Differential and fuzz tests for the .apate front end.

The lexer is one regex scan, the condition-expression parser one
precedence loop over explicit stacks, and analysis lowers each
invocation and guard in the one walk that checks it.  This module keeps
frozen copies of the character-at-a-time lexer, of the recursive
condexpr/condand/condterm, and of the analyzer and the separate
lowering pass they replaced, and checks the new code against them on
seeded random inputs.  The only allowed differences are the two
lexical tightenings: INT digits are ASCII [0-9], and a \\u escape takes
exactly four ASCII hex digits naming no surrogate (D800-DFFF); one in
the parser: punctuation is matched by token type, so a string literal
such as "(" or "||" where punctuation belongs is a syntax error there;
and two in analysis: a condition or action alias called before its
``let`` is an UndefinedName ("used before it is assigned"), not a
TypeMismatch, and a rule or conditionblock that is used but never
assigned is an UndefinedName, not a KeyError.
"""

import json
import random
import re
import time
from dataclasses import dataclass, field
from pathlib import Path

import pytest

from apate import apc
from apate import builtins as bi
from apate.cli import main
from apate.dsl import (Ast, BinOp, BindStmt, Call, ChainExpr, CondBlockExpr,
                       Define, KEYWORDS, Let, NameRef, Parser, RuleExpr,
                       SourceUnit, Token, analyze, compile_source, parse,
                       tokenize)
from apate.errors import (ArityError, DuplicateBind, IllegalCharacter,
                          SemanticError, SourceError, TypeMismatch,
                          UndefinedName, UnterminatedString)
from apate.model import (Action, ActionChain, ALWAYS_TRUE, Condition,
                         ConditionBlock, OP_AND, OP_OR, Rule, RuleChain,
                         RuleProgram, SYSCALL_ARITY)

from conftest import MYSQL_EXAMPLE


# --- frozen references ------------------------------------------------------

_FROZEN_ESCAPES = {'"': '"', "\\": "\\", "/": "/", "n": "\n", "t": "\t",
                   "r": "\r", "b": "\b", "f": "\f"}


def _frozen_tokenize(src: SourceUnit) -> list:
    text, filename = src.text, src.filename
    tokens = []
    i, line, col = 0, 1, 1
    n = len(text)

    def advance(k=1):
        nonlocal i, line, col
        for _ in range(k):
            if i < n and text[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            advance()
            continue
        if ch == "\\" and i + 1 < n and text[i + 1] == "\n":
            # physical-line continuation: acts as whitespace here
            advance(2)
            continue
        if ch == "/" and i + 1 < n and text[i + 1] == "/":
            while i < n and text[i] != "\n":
                advance()
            continue
        start_line, start_col = line, col
        if ch == '"':
            advance()
            buf = []
            while True:
                if i >= n or text[i] == "\n":
                    raise UnterminatedString("unterminated string literal",
                                             filename, start_line, start_col)
                c = text[i]
                if c == '"':
                    advance()
                    break
                if c == "\\":
                    if i + 1 < n and text[i + 1] == "\n":
                        # continuation inside a string splices out the
                        # newline and the next line's indentation
                        advance(2)
                        while i < n and text[i] in " \t":
                            advance()
                        continue
                    if i + 1 < n and text[i + 1] in _FROZEN_ESCAPES:
                        buf.append(_FROZEN_ESCAPES[text[i + 1]])
                        advance(2)
                        continue
                    if i + 1 < n and text[i + 1] == "u":
                        if i + 6 <= n:
                            try:
                                buf.append(chr(int(text[i + 2:i + 6], 16)))
                                advance(6)
                                continue
                            except ValueError:
                                pass
                        raise IllegalCharacter("bad \\u escape", filename, line, col)
                    raise IllegalCharacter(f"bad escape \\{text[i + 1:i + 2]}",
                                           filename, line, col)
                buf.append(c)
                advance()
            tokens.append(Token("STRING", "".join(buf), start_line, start_col))
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(Token("INT", int(text[i:j]), start_line, start_col))
            advance(j - i)
            continue
        if ch == "-":
            if i + 1 < n and text[i + 1] == ">":
                tokens.append(Token("PUNCT", "->", start_line, start_col))
                advance(2)
                continue
            if i + 1 < n and text[i + 1].isdigit():
                j = i + 1
                while j < n and text[j].isdigit():
                    j += 1
                tokens.append(Token("INT", int(text[i:j]), start_line, start_col))
                advance(j - i)
                continue
            raise IllegalCharacter("stray '-'", filename, start_line, start_col)
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            tokens.append(Token("KW" if word in KEYWORDS else "IDENT",
                                word, start_line, start_col))
            advance(j - i)
            continue
        if ch in "{}(),;:":
            tokens.append(Token("PUNCT", ch, start_line, start_col))
            advance()
            continue
        if ch == "&" and i + 1 < n and text[i + 1] == "&":
            tokens.append(Token("PUNCT", "&&", start_line, start_col))
            advance(2)
            continue
        if ch == "|" and i + 1 < n and text[i + 1] == "|":
            tokens.append(Token("PUNCT", "||", start_line, start_col))
            advance(2)
            continue
        raise IllegalCharacter(f"illegal character {ch!r}",
                               filename, start_line, start_col)
    tokens.append(Token("EOF", None, line, col))
    return tokens


class _RecursiveParser(Parser):
    """The parser with its recursive condition-expression rules, frozen."""

    def condexpr(self):
        node = self.condand()
        while self.peek().value == "||":
            self.next()
            node = BinOp("||", node, self.condand())
        return node

    def condand(self):
        node = self.condterm()
        while self.peek().value == "&&":
            self.next()
            node = BinOp("&&", node, self.condterm())
        return node

    def condterm(self):
        tok = self.peek()
        if tok.value == "(":
            self.next()
            node = self.condexpr()
            self.expect("PUNCT", ")")
            return node
        if tok.type == "IDENT":
            return self.invocation()
        self.error("'(' or condition invocation")


def _frozen_params_json(params) -> str:
    return json.dumps(list(params), separators=(",", ":"), ensure_ascii=False)


# The analyzer, and the lowering pass that walked every guard again,
# before analysis lowered as it checked.

@dataclass
class _FrozenTyped:
    filename: str
    conditions: dict = field(default_factory=dict)  # var -> (builtin, frozen|None)
    actions: dict = field(default_factory=dict)
    blocks: dict = field(default_factory=dict)      # var -> condexpr AST
    rules: dict = field(default_factory=dict)       # var -> (guard AST, [(builtin, params)], line)
    chain_defs: dict = field(default_factory=dict)  # var -> [(exit, rule var)]
    syscalls: dict = field(default_factory=dict)    # var -> canonical name
    binds: list = field(default_factory=list)       # [(syscall name, chain var)]
    warnings: list = field(default_factory=list)


def _frozen_syscall(name: str) -> "str | None":
    bare = name[4:] if name.startswith("sys_") else name
    return bare if bare in SYSCALL_ARITY else None


class _FrozenAnalyzer:
    def __init__(self, ast: Ast):
        self.ast = ast
        self.declared = {}   # name -> typekw
        self.used = set()
        self.out = _FrozenTyped(ast.filename)

    def err(self, cls, message, line):
        raise cls(message, self.ast.filename, line, 1)

    def analyze(self) -> _FrozenTyped:
        for stmt in self.ast.statements:
            if isinstance(stmt, Define):
                for name in stmt.names:
                    if name in self.declared:
                        self.err(SemanticError, f"{name!r} already defined", stmt.line)
                    self.declared[name] = stmt.typekw
        for stmt in self.ast.statements:
            if isinstance(stmt, Let):
                self.let(stmt)
        for stmt in self.ast.statements:
            if isinstance(stmt, BindStmt):
                self.bind(stmt)
        for name in self.declared:
            if name not in self.used and name not in self._assigned():
                self.out.warnings.append(f"{name!r} defined but never assigned")
            elif name not in self.used:
                self.out.warnings.append(f"{name!r} assigned but never used")
        return self.out

    def _assigned(self):
        out = self.out
        return (set(out.conditions) | set(out.actions) | set(out.blocks)
                | set(out.rules) | set(out.chain_defs) | set(out.syscalls))

    def let(self, stmt: Let):
        name, rhs = stmt.name, stmt.rhs
        if name not in self.declared:
            self.err(UndefinedName, f"{name!r} not defined", stmt.line)
        if name in self._assigned():
            self.err(SemanticError, f"{name!r} assigned twice", stmt.line)
        typekw = self.declared[name]
        if typekw in ("condition", "action"):
            self.let_builtin_alias(name, typekw, rhs, stmt.line)
        elif typekw == "conditionblock":
            if not isinstance(rhs, CondBlockExpr):
                self.err(TypeMismatch,
                         f"{name!r} is a conditionblock; expected a condition "
                         f"expression block", stmt.line)
            self.check_condexpr(rhs.expr)
            self.out.blocks[name] = rhs.expr
        elif typekw == "rule":
            if not isinstance(rhs, RuleExpr):
                self.err(TypeMismatch,
                         f"{name!r} is a rule; expected {{guard->actions}}", stmt.line)
            self.out.rules[name] = (*self.check_ruleexpr(rhs, stmt.line), stmt.line)
        elif typekw == "rulechain":
            if not isinstance(rhs, ChainExpr):
                self.err(TypeMismatch,
                         f"{name!r} is a rulechain; expected {{rule,rule,...}}",
                         stmt.line)
            for _, rname in rhs.items:
                if self.declared.get(rname) != "rule":
                    self.err(TypeMismatch, f"{rname!r} is not a rule", stmt.line)
                self.used.add(rname)
            self.out.chain_defs[name] = rhs.items
        elif typekw == "syscall":
            if not isinstance(rhs, NameRef):
                self.err(TypeMismatch, f"{name!r} is a syscall; expected a "
                         f"syscall name", stmt.line)
            canonical = _frozen_syscall(rhs.name)
            if canonical is None:
                self.err(UndefinedName, f"unknown syscall {rhs.name!r}", stmt.line)
            self.out.syscalls[name] = canonical

    def let_builtin_alias(self, name, typekw, rhs, line):
        table = self.out.conditions if typekw == "condition" else self.out.actions
        if not isinstance(rhs, (NameRef, Call)):
            self.err(TypeMismatch,
                     f"{name!r} is a {typekw}; expected a builtin name", line)
        spec = bi.REGISTRY.get(rhs.name)
        if spec is None:
            self.err(UndefinedName, f"unknown builtin {rhs.name!r}", line)
        if spec.kind != typekw:
            self.err(TypeMismatch,
                     f"{rhs.name!r} is a {spec.kind} builtin, but {name!r} "
                     f"is declared as {typekw}", line)
        params = None   # a bare name: the call site gives the params
        if isinstance(rhs, Call):
            params = tuple(rhs.args)
            err = bi.check_params(rhs.name, params)
            if err:
                self.err(ArityError, err, line)
        table[name] = (rhs.name, params)

    def resolve_invocation(self, call: Call, want_kind: str):
        """Resolve a call to (builtin_name, params); checks kind and params."""
        frozen = None
        table = (self.out.conditions if want_kind == "condition"
                 else self.out.actions)
        if call.name in table:
            builtin, frozen = table[call.name]
            self.used.add(call.name)
        elif call.name in self.declared:
            self.err(TypeMismatch,
                     f"{call.name!r} is a {self.declared[call.name]}, "
                     f"not a {want_kind}", call.line)
        elif call.name in bi.REGISTRY:
            spec = bi.REGISTRY[call.name]
            if spec.kind != want_kind:
                self.err(TypeMismatch,
                         f"{call.name!r} is a {spec.kind}, not a {want_kind}",
                         call.line)
            builtin = call.name
        else:
            self.err(UndefinedName, f"unknown name {call.name!r}", call.line)
        if frozen is not None:
            if call.args:
                self.err(ArityError,
                         f"{call.name!r} already carries parameters; call it "
                         f"with no arguments", call.line)
            params = frozen
        else:
            params = tuple(call.args)
            err = bi.check_params(builtin, params)
            if err:
                self.err(ArityError, err, call.line)
        return builtin, params

    def check_condexpr(self, node):
        """Resolve every leaf, left to right (iterative: any depth)."""
        stack = [node]
        while stack:
            node = stack.pop()
            if isinstance(node, BinOp):
                stack += (node.right, node.left)
            elif isinstance(node, Call):
                self.resolve_invocation(node, "condition")
            else:
                raise AssertionError(f"bad condexpr node {node!r}")

    def check_ruleexpr(self, rx: RuleExpr, line):
        if isinstance(rx.guard, NameRef):
            if self.declared.get(rx.guard.name) != "conditionblock":
                self.err(TypeMismatch,
                         f"rule guard {rx.guard.name!r} is not a conditionblock",
                         line)
            self.used.add(rx.guard.name)
        else:
            self.check_condexpr(rx.guard.expr)
        actions = []
        blocked = False
        for call in rx.actions:
            builtin, params = self.resolve_invocation(call, "action")
            if builtin == "block":
                blocked = True
            elif builtin == "call_orig" and blocked:
                self.err(SemanticError,
                         "call_orig after block is contradictory", call.line)
            if builtin == "manipulateparam" and bi.rewrite_loop_hazard(params):
                self.out.warnings.append(
                    f"line {call.line}: manipulateparam replacement re-matches "
                    f"its own pattern (rewrite loop hazard)")
            actions.append((builtin, params))
        return rx.guard, actions

    def bind(self, stmt: BindStmt):
        if stmt.chain not in self.out.chain_defs:
            self.err(UndefinedName, f"{stmt.chain!r} is not a rulechain",
                     stmt.line)
        self.used.add(stmt.chain)
        if stmt.syscall in self.out.syscalls:
            syscall = self.out.syscalls[stmt.syscall]
            self.used.add(stmt.syscall)
        else:
            syscall = _frozen_syscall(stmt.syscall)
            if syscall is None:
                self.err(UndefinedName, f"unknown syscall {stmt.syscall!r}",
                         stmt.line)
        if any(sc == syscall for sc, _ in self.out.binds):
            self.err(DuplicateBind,
                     f"syscall {syscall!r} already has a bound rulechain",
                     stmt.line)
        self.out.binds.append((syscall, stmt.chain))


def _frozen_condexpr(node, typed: _FrozenTyped):
    """Post-order walk with an explicit stack, so any depth lowers."""
    done = []       # lowered operands, left to right
    stack = [node]  # nodes still to lower; an op code joins the last two
    push, pop = stack.append, stack.pop
    while stack:
        node = pop()
        if type(node) is int:
            right = done.pop()
            done[-1] = ConditionBlock(done[-1], right, node)
            continue
        while type(node) is BinOp:  # down the left spine
            push(OP_AND if node.op == "&&" else OP_OR)
            push(node.right)
            node = node.left
        builtin, params = _frozen_resolved(node, typed, "condition")
        done.append(Condition(builtin, params))
    return done[0]


def _frozen_resolved(call: Call, typed: _FrozenTyped, kind: str):
    table = typed.conditions if kind == "condition" else typed.actions
    if call.name in table:
        builtin, frozen = table[call.name]
        return builtin, frozen if frozen is not None else tuple(call.args)
    return call.name, tuple(call.args)


def _frozen_guard(guard, typed: _FrozenTyped) -> ConditionBlock:
    if isinstance(guard, NameRef):
        node = _frozen_condexpr(typed.blocks[guard.name], typed)
    else:
        node = _frozen_condexpr(guard.expr, typed)
    if isinstance(node, Condition):
        # single condition embedded via the neutral always-true partner
        node = ConditionBlock(node, ALWAYS_TRUE, OP_AND)
    return node


def _frozen_compile_typed(typed: _FrozenTyped) -> RuleProgram:
    base_rules = {}
    for name, (guard, actions, line) in typed.rules.items():
        chain_actions = ActionChain(tuple(Action(b, p) for b, p in actions))
        base_rules[name] = Rule(name, _frozen_guard(guard, typed), chain_actions,
                                0, f"{typed.filename}:{line}")
    chains = {}
    for cname, items in typed.chain_defs.items():
        members = []
        for exit_flag, rname in items:
            rule = base_rules[rname]
            members.append(Rule(rule.name, rule.guard, rule.actions,
                                1 if exit_flag else 0, rule.span))
        chains[cname] = RuleChain(cname, tuple(members))
    return RuleProgram(chains=chains, bindings=list(typed.binds))


# --- generated sources ------------------------------------------------------

_CMP = ("==", "!=", ">", "<", ">=", "<=")
_M3D_LEAVES = (
    lambda rng, k: f'testforuid("{rng.choice(_CMP)}";{rng.randint(-9, k)})',
    lambda rng, k: (f'ctxfield_cmp("{rng.choice(("pid", "uid", "ssid"))}";'
                    f'"{rng.choice(_CMP)}";{k * 7})'),
    lambda rng, k: f'testforparam({rng.randrange(3)};"/srv/p{k}/*")',
    lambda rng, k: f'testforpname("daemon{k}")',
    lambda rng, k: f'testforfdpath(0;"/data/h\\u00e9ld{k}*")',
    lambda rng, k: f'testforselfpname("caf\u00e9\\\\{k}")',
)


def _m3d_source(rng, rules, leaves) -> str:
    """The m3d shape: rules x leaves AND-ed distinct leaves, one chain.

    It also carries a CRLF, comments, continuations and escapes.
    """
    names = [f"r{i}" for i in range(1, rules + 1)]
    lines = [f"define {','.join(names)} as rule", "define rc1 as rulechain", ""]
    k = 0
    for name in names:
        guard = []
        for _ in range(leaves):
            guard.append(rng.choice(_M3D_LEAVES)(rng, k))
            k += 1
        lines.append(f"// rule {name}")
        lines.append(f"let {name} be {{{{{' && '.join(guard)} \\\n"
                     f"    }}->call_orig()}}")
    lines += [f"let rc1 be {{{','.join(names[:-1] + [':' + names[-1]])}}}",
              "bind rc1 to sys_open", ""]
    return "\r\n".join(lines[:2]) + "\n" + "\n".join(lines[2:])


_GOOD_PIECES = (
    "define", "let", "be", "bind", "to", "as", "x", "_y1", "caf\u00e9",
    "\u00df2", "\u4e2d\u6587", "x\u00b2", "y\u0663", "z\u00bd",
    "0", "42", "-7", "007", "->",
    "{", "}", "(", ")", ",", ";", ":", "&&", "||",
    '"plain"', '""', '"a\\"b"', '"\\\\"', '"\\n\\t\\r\\b\\f\\/"', '"\\u0041"',
    '"caf\\u00e9"', '"\\uD7FF\\uE000\\uffff"', '"\u00e9\u4e2d"',
    '"cont\\\n   inued"', '"a\\\n"', '"\\\n\t\t x"',
    "// comment", "// c \\", "\\\n", " ", "  ", "\t", "\n", "\r\n", "\r",
)
_BAD_PIECES = (
    "-", "- >", "5\u00b2", "\u00b2", "\u0663", "-\u0663", "12\u0663",
    "\u2167", "\u00bd", "&", "|", "@", "/", "\\", "#", "\\ \n",
    '"\\u 041"', '"\\u0x41"', '"\\u+041"', '"\\u1_23"', '"\\ud800"',
    '"\\uDFFF"', '"\\u12"', '"\\u\u0661\u0662\u0663\u0664"', '"\\q"', '"\\',
    '"open', '"', '"bad\\\nline\n"',
)


def _random_lexer_source(rng) -> str:
    bad = rng.choice((0.0, 0.05, 0.2))
    return "".join(
        rng.choice(_BAD_PIECES if rng.random() < bad else _GOOD_PIECES)
        + rng.choice(("", "", " ", "\n"))
        for _ in range(rng.randint(1, 40)))


def _lex(fn, text):
    """A token stream as tuples, or an error as (class, message, line, col)."""
    try:
        return [(t.type, t.value, t.line, t.col)
                for t in fn(SourceUnit(text, "f.apate"))]
    except SourceError as exc:
        return (type(exc).__name__, exc.message, exc.line, exc.col)
    except ValueError as exc:   # the frozen lexer's int() on non-ASCII digits
        return ("ValueError", str(exc))


def _tightened(text, outcome) -> bool:
    """The new lexer stopped at a non-ASCII digit or at a \\u escape it no
    longer accepts."""
    if outcome[0] != "IllegalCharacter":
        return False
    _, message, line, col = outcome
    i = sum(len(s) + 1 for s in text.split("\n")[:line - 1]) + col - 1
    if message == "bad \\u escape":
        return text.startswith("\\u", i)
    ch = text[i + 1:i + 2] if message == "stray '-'" else text[i]
    return (ch.isdigit() and not ch.isascii()
            and message in ("stray '-'", f"illegal character {ch!r}"))


# --- tests --------------------------------------------------------------------

class TestLexerAgainstFrozenCopy:
    def test_random_sources(self):
        rng = random.Random(20261018)
        streams = tightened = 0
        for _ in range(3_000):
            text = _random_lexer_source(rng)
            new, old = _lex(tokenize, text), _lex(_frozen_tokenize, text)
            assert new[0] != "ValueError", text
            if new != old:
                assert isinstance(new, tuple) and _tightened(text, new), (
                    text, old, new)
                tightened += 1
            streams += isinstance(new, list)
        assert streams >= 1_000 and tightened >= 100

    @pytest.mark.parametrize("text", [
        MYSQL_EXAMPLE, MYSQL_EXAMPLE.replace("\n", "\r\n"),
        _m3d_source(random.Random(7), 6, 8), "", "   \n\n  // end",
        '"\\\n\n"', 'a"x', "x // \\\n y", 'f("\\', "\\", "-",
    ])
    def test_fixed_sources(self, text):
        assert _lex(tokenize, text) == _lex(_frozen_tokenize, text)

    @pytest.mark.parametrize("text, frozen", [
        ("f(5\u00b2)", "ValueError"),
        ("f(\u0663)", ("INT", 3, 1, 3)),
        ('f("\\u+041")', ("STRING", "A", 1, 3)),
        ('f("\\ud800")', ("STRING", "\ud800", 1, 3)),
    ])
    def test_the_two_tightenings(self, text, frozen):
        old = _lex(_frozen_tokenize, text)
        assert (old[0] if frozen == "ValueError" else old[2]) == frozen
        assert _tightened(text, _lex(tokenize, text))


def _random_condexpr(rng, depth=0) -> str:
    parts = []
    for i in range(rng.randint(1, 4)):
        if i:
            parts.append(rng.choice((" && ", " || ", "&&", "||")))
        if depth < 8 and rng.random() < 0.35:
            parts.append("(" + _random_condexpr(rng, depth + 1) + ")")
        else:
            parts.append(f"c{rng.randrange(3)}({rng.randrange(3)})")
    return "".join(parts)


def _parse_outcome(parser_cls, tokens):
    try:
        return parser_cls(tokens, "f.apate").parse()
    except SourceError as exc:
        return (type(exc).__name__, exc.message, exc.line, exc.col)


_STRAY_TOKENS = (Token("PUNCT", "(", 9, 1), Token("PUNCT", ")", 9, 2),
                 Token("PUNCT", "&&", 9, 3), Token("PUNCT", "||", 9, 4),
                 Token("IDENT", "c9", 9, 5), Token("PUNCT", "}", 9, 6),
                 Token("STRING", "(", 9, 7), Token("STRING", "||", 9, 8),
                 Token("INT", 4, 9, 9))


def _at_punct_string(tokens, outcome) -> bool:
    """The parser stopped at a string literal spelled like punctuation."""
    return outcome[0] == "ApateSyntaxError" and any(
        t.type == "STRING" and t.value in ("(", "||", "&&")
        and (t.line, t.col) == outcome[2:] for t in tokens)


class TestParserAgainstRecursiveReference:
    def test_random_expressions(self):
        rng = random.Random(1986)
        for _ in range(1_500):
            expr = _random_condexpr(rng)
            tokens = tokenize(SourceUnit(
                "define cb as conditionblock\n"
                f"let cb be {{{expr}}}\n"
                f"let r be {{{{{expr}}}->log()}}\n"))
            assert parse(tokens) == _RecursiveParser(tokens).parse(), expr

    def test_mutated_token_streams(self):
        """Same AST, or the same error class, message, line and col, or
        a syntax error at a string literal that the reference took for
        punctuation."""
        rng = random.Random(1987)
        tightened = 0
        for _ in range(1_500):
            tokens = tokenize(SourceUnit(
                f"let cb be {{{_random_condexpr(rng)}}}\n"))
            for _ in range(rng.randint(1, 2)):
                j = rng.randrange(len(tokens) - 1)   # EOF stays last
                kind = rng.randrange(3)
                if kind == 0:
                    del tokens[j]
                elif kind == 1:
                    tokens.insert(j, tokens[j])
                else:
                    tokens[j] = rng.choice(_STRAY_TOKENS)
            new = _parse_outcome(Parser, tokens)
            if new != _parse_outcome(_RecursiveParser, tokens):
                assert _at_punct_string(tokens, new), tokens
                tightened += 1
        assert tightened >= 10

    def test_and_binds_tighter_and_both_associate_left(self):
        (_, let) = parse(tokenize(SourceUnit(
            "define cb as conditionblock\n"
            "let cb be {a() || b() && c() && d() || e()}"))).statements
        a, b, c, d, e = (Call(name, [], 2) for name in "abcde")
        assert let.rhs.expr == BinOp(
            "||", BinOp("||", a, BinOp("&&", BinOp("&&", b, c), d)), e)


@pytest.mark.parametrize("source", [
    MYSQL_EXAMPLE,
    *(_m3d_source(random.Random(seed), 50, 50) for seed in (1, 2, 3)),
], ids=["mysql", "m3d-1", "m3d-2", "m3d-3"])
def test_apc_bytes_match_frozen_front_end(source, monkeypatch):
    new = apc.serialize(compile_source(source, "p.apate")[0])
    tokens = _frozen_tokenize(SourceUnit(source, "p.apate"))
    prog = _frozen_compile_typed(
        _FrozenAnalyzer(_RecursiveParser(tokens, "p.apate").parse()).analyze())
    monkeypatch.setattr(apc, "args_json", _frozen_params_json)
    assert apc.serialize(prog) == new


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("workload",
                         ["guard-heavy", "honeypot-mix", "bulk-copy"])
def test_apc_bytes_match_frozen_encoder_on_workloads(workload, seed,
                                                     tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    import gen
    inputs = gen.generate(workload, seed, str(tmp_path))
    prog, _ = compile_source(Path(inputs.source).read_text("utf-8"))
    new = apc.serialize(prog)
    monkeypatch.setattr(apc, "args_json", _frozen_params_json)
    assert apc.serialize(prog) == new


# --- fuzz ---------------------------------------------------------------------

_FUZZ_ALPHABET = (
    "\u00b2", "\u0663", "\u00bd", "\\u", "\\u0041", "\\ud800", "\\u12",
    "\\\n", "\\\n   ", "//", "// x\n", "\r", "\r\n", "\n", "(", "((((",
    ")", '"', '\\"', "&&", "||", "->", "-", ";", ",", ":", "{", "}",
    "x", "c1", "\u00e9", "0", "-1", " ", "always_true()", "log()", "\\",
)


def _deepen(rng, text) -> str:
    """Wrap the first guard in many more parentheses (still valid)."""
    k = rng.randint(20, 400)
    if "{(" in text:
        return text.replace("{(", "{" + "(" * (k + 1), 1).replace(
            "))}", "))" + ")" * k + "}", 1)
    return text.replace("{{", "{{" + "(" * k, 1).replace(
        "}->", ")" * k + "}->", 1)


def _mutate(rng, text) -> str:
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(text) + 1)
        j = min(len(text), i + rng.randint(1, 12))
        r = rng.random()
        if r < 0.45:
            text = text[:i] + rng.choice(_FUZZ_ALPHABET) + text[i:]
        elif r < 0.65:
            text = text[:i] + text[j:]
        elif r < 0.8:
            text = text[:i] + text[i:j] * 2 + text[j:]
        elif r < 0.95:
            text = _deepen(rng, text)
        else:
            text = text[:i] + "(" * rng.randint(100, 1_500) + text[i:]
    return text


_FUZZ_SEEDS = (MYSQL_EXAMPLE, _m3d_source(random.Random(11), 4, 5))


def _char_corpus():
    """2,000 seeded character mutations of the two valid programs."""
    rng = random.Random(2015)
    return [_mutate(rng, _FUZZ_SEEDS[case % 2]) for case in range(2_000)]


def _move_lines(rng, text) -> str:
    """Drop, duplicate or move 1-3 whole lines."""
    lines = text.split("\n")
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(lines))
        op = rng.randrange(3)
        if op == 0 and len(lines) > 1:
            del lines[i]
        elif op == 1:
            lines.insert(rng.randrange(len(lines) + 1), lines[i])
        else:
            line = lines.pop(i)
            lines.insert(rng.randrange(len(lines) + 1), line)
    return "\n".join(lines)


def _line_corpus():
    """3,000 seeded statement-level mutations of the two valid programs."""
    rng = random.Random(7)
    return [_move_lines(rng, _FUZZ_SEEDS[case % 2]) for case in range(3_000)]


def _compiles_or_source_error(texts) -> int:
    """compile_source returns or raises a SourceError on each text, never
    anything else, and every success round-trips; the successes."""
    compiled = 0
    for case, text in enumerate(texts):
        try:
            prog, _ = compile_source(text, "fuzz.apate")
        except SourceError:
            continue
        except Exception as exc:   # noqa: BLE001 - report the case
            raise AssertionError(f"case {case}: {text!r}") from exc
        blob = apc.serialize(prog)
        assert apc.serialize(apc.deserialize(blob)) == blob, text
        compiled += 1
    return compiled


def test_fuzz_compile_returns_or_raises_source_error():
    """Seeded character mutations of valid programs."""
    assert _compiles_or_source_error(_char_corpus()) >= 200


def test_line_fuzz_compile_returns_or_raises_source_error():
    """Seeded whole-line drops, duplicates and moves in valid programs."""
    assert _compiles_or_source_error(_line_corpus()) >= 500


def _frozen_compile(text, filename):
    typed = _FrozenAnalyzer(parse(tokenize(SourceUnit(text, filename)),
                                  filename)).analyze()
    return _frozen_compile_typed(typed), typed.warnings


def _outcome(compile_fn, text):
    """.apc bytes and warnings, or the error's class and str()."""
    try:
        prog, warnings = compile_fn(text, "f.apate")
    except SourceError as exc:
        return type(exc).__name__, str(exc)
    except KeyError as exc:   # the frozen lowering, at an unassigned name
        return "KeyError", exc.args[0]
    return apc.serialize(prog), warnings


_CALLED_EARLY = re.compile(r"(.*: )'(\w+)' is a (condition|action), not a \3")


@pytest.mark.parametrize("corpus, least", [(_char_corpus, (1_900, 0, 0, 200)),
                                           (_line_corpus, (2_500, 100, 10, 500))],
                         ids=["chars", "lines"])
def test_analysis_matches_frozen_reference(corpus, least):
    """The same .apc bytes and warnings, or the same error class and
    message, as the frozen analyzer and lowering; except that an alias
    called before its let, and a name used but never assigned, are each
    an UndefinedName at the using statement."""
    same = early = unassigned = compiled = 0
    for text in corpus():
        new = _outcome(compile_source, text)
        old = _outcome(_frozen_compile, text)
        if old[0] == "KeyError":
            assert new[0] == "UndefinedName", (text, new)
            assert new[1].endswith(f": {old[1]!r} is used but never assigned")
            unassigned += 1
        elif new != old:
            m = old[0] == "TypeMismatch" and _CALLED_EARLY.fullmatch(old[1])
            assert m and new == ("UndefinedName", f"{m[1]}'{m[2]}' is used "
                                 "before it is assigned"), (text, old, new)
            early += 1
        else:
            same += 1
            compiled += type(new[0]) is bytes
    counts = (same, early, unassigned, compiled)
    assert all(n >= k for n, k in zip(counts, least)), counts


@pytest.mark.parametrize("text, where, name", [
    ("define r,r2 as rule\ndefine rc as rulechain\n"
     "let r be {{always_true()}->log()}\n"
     "let rc be {r,:r2}\nbind rc to sys_open\n", 4, "r2"),
    ("define cb as conditionblock\ndefine r as rule\n"
     "define rc as rulechain\nlet r be {cb->log()}\n"
     "let rc be {r}\nbind rc to sys_open\n", 4, "cb"),
], ids=["rule", "conditionblock"])
def test_compile_names_an_unassigned_name(tmp_path, capsys, text, where,
                                          name):
    src, out = tmp_path / "u.apate", tmp_path / "u.apc"
    src.write_text(text)
    assert main(["compile", str(src), "-o", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"{src}:{where}:1: {name!r} is used but never assigned\n")
    assert not out.exists()


def test_8000_aliased_conditions_analyze_in_linear_time():
    names = [f"c{i}" for i in range(8_000)]
    leaves = " || ".join(f'{c}(">";{i})' for i, c in enumerate(names))
    ast = parse(tokenize(SourceUnit(
        f"define {','.join(names)} as condition\n"
        + "".join(f"let {c} be testforuid\n" for c in names)
        + "define r as rule\ndefine rc as rulechain\n"
        f"let r be {{{{{leaves}}}->log()}}\nlet rc be {{r}}\n"
        "bind rc to sys_open\n")))
    start = time.perf_counter()
    typed = analyze(ast)
    assert time.perf_counter() - start < 1.0
    assert typed.warnings == []
