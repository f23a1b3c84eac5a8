"""Compiler for the .apate configuration language.

Pipeline: tokenize -> parse -> analyze -> lower.  Analysis lowers each
invocation and guard as it checks it; lowering then only builds the rule
chains.  The language has three statement forms:

    define c1,c2 as condition
    let cb1 be {(c1("mysql") && c2(0;"/var/lib/mysql/*"))}
    bind rc1 to sy1

Blocks hold one of three bodies: a condition expression (&&/|| over
invocations, && binds tighter), a rule (guard ``->`` action list), or a
rule chain (comma-separated rule names, ':' marks the exit rule).
Invocation arguments are separated by ';' as in the original sources;
',' is accepted as an alias.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field, replace

from . import builtins as bi
from .errors import (ApateSyntaxError, ArityError, DuplicateBind,
                     IllegalCharacter, SemanticError, TypeMismatch,
                     UndefinedName, UnterminatedString)
from .model import (Action, ActionChain, ALWAYS_TRUE, Condition,
                    ConditionBlock, OP_AND, OP_OR, Rule, RuleChain,
                    RuleProgram, hooked_syscall)

KEYWORDS = ("define", "as", "let", "be", "bind", "to")
TYPE_KEYWORDS = ("condition", "rule", "action", "conditionblock",
                 "rulechain", "syscall")


@dataclass(slots=True)
class Token:
    type: str       # KW IDENT STRING INT PUNCT EOF
    value: object
    line: int
    col: int


@dataclass
class SourceUnit:
    text: str
    filename: str = "<input>"


# --- lexer ---------------------------------------------------------------
# One regex scan.  Spaces, tabs, CRs and a '//' comment (it runs to the
# newline) are skipped in front of each match; then exactly one named
# group matches.  NL is a newline, bare or after a '\\' continuation:
# only '\n' starts a line.  The empty ``other`` group matches where
# nothing else does, so the scan never skips a character.  INT digits
# are ASCII only.  Identifiers start with a character for which
# isalpha() holds or '_' and go on while isalnum() holds or '_', which
# is what \w matches.  A STRING with no backslash is its text; one with
# a backslash goes through _string, which applies its escapes or raises.

_TOKEN = re.compile(r"""
    [ \t\r]*(?://[^\n]*)?
    (?: (?P<PUNCT>[(),;{}:]|&&|\|\||->)
      | (?P<STRING>"[^"\\\n]*(?:\\[\s\S][^"\\\n]*)*")
      | (?P<INT>-?[0-9]+)
      | (?P<WORD>\w+)
      | (?P<NL>\\?\n)
      | (?P<EOF>\Z)
      | (?P<other>) )""", re.VERBOSE)

_PLAIN = re.compile(r'[^"\\\n]*')
# '\\' then: a continuation (the newline and the next line's indentation
# are spliced out), four ASCII hex digits naming no surrogate (D800-DFFF),
# or a one-character escape
_ESCAPE = re.compile(
    r'\\(?:\n[ \t]*|u(?![Dd][89A-Fa-f])([0-9A-Fa-f]{4})|(["\\/ntrbf]))')
_STRING_ESCAPES = {'"': '"', "\\": "\\", "/": "/", "n": "\n", "t": "\t",
                   "r": "\r", "b": "\b", "f": "\f"}


def _where(text, i):
    """(line, col) of offset i."""
    return text.count("\n", 0, i) + 1, i - text.rfind("\n", 0, i)


def _string(text, i, filename) -> str:
    """The value of the string literal whose '"' is at offset i."""
    parts, j = [], i + 1
    while True:
        k = _PLAIN.match(text, j).end()
        parts.append(text[j:k])
        if k == len(text) or text[k] == "\n":
            raise UnterminatedString("unterminated string literal", filename,
                                     *_where(text, i))
        if text[k] == '"':
            return "".join(parts)
        m = _ESCAPE.match(text, k)
        if m is None:
            c = text[k + 1:k + 2]
            raise IllegalCharacter("bad \\u escape" if c == "u"
                                   else f"bad escape \\{c}", filename,
                                   *_where(text, k))
        if m[1]:
            parts.append(chr(int(m[1], 16)))
        elif m[2]:
            parts.append(_STRING_ESCAPES[m[2]])
        j = m.end()


def tokenize(src: SourceUnit) -> list:
    text, filename = src.text, src.filename
    tokens = []
    append = tokens.append
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        start, end = m.span(kind)
        col = start - line_start + 1
        if kind == "PUNCT":
            append(Token("PUNCT", text[start:end], line, col))
        elif kind == "STRING":
            value = text[start:end]
            if "\\" not in value:
                append(Token("STRING", value[1:-1], line, col))
                continue
            append(Token("STRING", _string(text, start, filename), line, col))
            if nl := text.count("\n", start, end):  # continuations
                line += nl
                line_start = text.rfind("\n", start, end) + 1
        elif kind == "WORD":
            word = text[start:end]
            if not (word[0].isalpha() or word[0] == "_"):
                raise IllegalCharacter(f"illegal character {word[0]!r}",
                                       filename, line, col)
            append(Token("KW" if word in KEYWORDS else "IDENT", word, line, col))
        elif kind == "INT":
            append(Token("INT", int(text[start:end]), line, col))
        elif kind == "NL":
            line += 1
            line_start = end
        elif kind == "EOF":
            break
        else:
            ch = text[start]
            if ch == '"':  # unterminated: _string says where it stops
                _string(text, start, filename)
            raise IllegalCharacter("stray '-'" if ch == "-" else
                                   f"illegal character {ch!r}",
                                   filename, line, col)
    append(Token("EOF", None, line, col))
    return tokens


# --- AST ------------------------------------------------------------------

@dataclass
class Define:
    names: list
    typekw: str
    line: int = 0


@dataclass
class Let:
    name: str
    rhs: object
    line: int = 0


@dataclass
class BindStmt:
    chain: str
    syscall: str
    line: int = 0


@dataclass
class NameRef:
    name: str


@dataclass
class Call:
    name: str
    args: list
    line: int = 0


@dataclass
class BinOp:
    op: str  # "&&" | "||"
    left: object
    right: object


@dataclass
class CondBlockExpr:
    expr: object  # Call | BinOp


@dataclass
class RuleExpr:
    guard: object  # NameRef | CondBlockExpr
    actions: list  # [Call]


@dataclass
class ChainExpr:
    items: list  # [(exit: bool, name: str)]


@dataclass
class Ast:
    statements: list
    filename: str = "<input>"


_BINDS = {"||": 1, "&&": 2}    # how tight each operator binds
_OPS = {1: "||", 2: "&&"}


class Parser:
    def __init__(self, tokens, filename="<input>"):
        self.tokens = tokens
        self.filename = filename
        self.pos = 0

    # The last token is always EOF, and next() never moves past it.
    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.type != "EOF":
            self.pos += 1
        return tok

    def error(self, expected, tok=None):
        tok = tok or self.peek()
        got = ("end of input" if tok.type == "EOF"
               else f"string {_arg_src(tok.value)}" if tok.type == "STRING"
               else repr(tok.value))
        raise ApateSyntaxError(f"expected {expected}, got {got}",
                               self.filename, tok.line, tok.col)

    def at(self, punct, ahead=0) -> bool:
        """Whether the token ``ahead`` places on is the punctuation
        ``punct``: a string literal never stands in for one."""
        tok = self.tokens[self.pos + ahead]
        return tok.type == "PUNCT" and tok.value == punct

    def expect(self, type_, value=None) -> Token:
        tok = self.tokens[self.pos]
        if tok.type != type_ or (value is not None and tok.value != value):
            self.error(value if value is not None else type_.lower())
        self.pos += 1   # a token that matches is not EOF
        return tok

    def parse(self) -> Ast:
        statements = []
        while self.peek().type != "EOF":
            statements.append(self.statement())
        if not statements:
            self.error("at least one statement")
        return Ast(statements, self.filename)

    def statement(self):
        tok = self.peek()
        if tok.type == "KW" and tok.value == "define":
            return self.define()
        if tok.type == "KW" and tok.value == "let":
            return self.let()
        if tok.type == "KW" and tok.value == "bind":
            return self.bind()
        self.error("define, let, or bind")

    def define(self) -> Define:
        kw = self.expect("KW", "define")
        names = [self.expect("IDENT").value]
        while self.at(","):
            self.next()
            names.append(self.expect("IDENT").value)
        self.expect("KW", "as")
        tok = self.expect("IDENT")
        if tok.value not in TYPE_KEYWORDS:
            raise ApateSyntaxError(
                f"unknown type {tok.value!r} (expected one of {', '.join(TYPE_KEYWORDS)})",
                self.filename, tok.line, tok.col)
        return Define(names, tok.value, kw.line)

    def let(self) -> Let:
        kw = self.expect("KW", "let")
        name = self.expect("IDENT").value
        self.expect("KW", "be")
        return Let(name, self.rhs(), kw.line)

    def bind(self) -> BindStmt:
        kw = self.expect("KW", "bind")
        chain = self.expect("IDENT").value
        self.expect("KW", "to")
        syscall = self.expect("IDENT").value
        return BindStmt(chain, syscall, kw.line)

    def rhs(self):
        if self.at("{"):
            return self.block()
        if self.peek().type == "IDENT":
            if self.at("(", 1):
                return self.invocation()
            return NameRef(self.next().value)
        self.error("identifier, builtin call, or block")

    def block(self):
        self.expect("PUNCT", "{")
        body = self.block_body()
        self.expect("PUNCT", "}")
        return body

    def block_body(self):
        if self.at(":"):
            return self.chainexpr()
        if self.at("{"):
            return self.ruleexpr()
        if self.at("("):
            return CondBlockExpr(self.condexpr())
        if self.peek().type == "IDENT":
            if self.at("->", 1):
                return self.ruleexpr()
            if self.at("(", 1):
                return CondBlockExpr(self.condexpr())
            return self.chainexpr()
        self.error("condition expression, rule, or chain")

    def condexpr(self):
        """condexpr := condand ('||' condand)*, condand := condterm ('&&'
        condterm)*, condterm := '(' condexpr ')' | invocation.

        Precedence climbing (Clarke 1986) over explicit operand and
        operator stacks, so parentheses nest to any depth: '&&' binds
        tighter than '||', and both associate to the left.
        """
        operands, ops = [], []    # ops: binding levels, 0 for an open '('
        tokens = self.tokens
        while True:
            tok = tokens[self.pos]
            while tok.type == "PUNCT" and tok.value == "(":
                ops.append(0)
                self.pos += 1
                tok = tokens[self.pos]
            if tok.type != "IDENT":
                self.error("'(' or condition invocation")
            operands.append(self.invocation())
            while True:
                tok = tokens[self.pos]
                level = _BINDS.get(tok.value, 0) if tok.type == "PUNCT" else 0
                floor = level or 1   # no operator: close down to the '('
                while ops and ops[-1] >= floor:
                    right = operands.pop()
                    operands[-1] = BinOp(_OPS[ops.pop()], operands[-1], right)
                if level:
                    ops.append(level)
                    self.pos += 1
                    break
                if not ops:
                    return operands[0]
                self.expect("PUNCT", ")")
                ops.pop()

    def invocation(self) -> Call:
        name_tok = self.expect("IDENT")
        self.expect("PUNCT", "(")
        tokens, args = self.tokens, []
        if not self.at(")"):
            while True:   # arg (';' | ',') arg ...
                tok = tokens[self.pos]
                if tok.type != "STRING" and tok.type != "INT":
                    self.error("string or integer literal")
                args.append(tok.value)
                self.pos += 1
                if not (self.at(";") or self.at(",")):
                    break
                self.pos += 1
        self.expect("PUNCT", ")")
        return Call(name_tok.value, args, name_tok.line)

    def ruleexpr(self) -> RuleExpr:
        if self.at("{"):
            self.next()
            guard = CondBlockExpr(self.condexpr())
            self.expect("PUNCT", "}")
        else:
            guard = NameRef(self.expect("IDENT").value)
        self.expect("PUNCT", "->")
        actions = [self.invocation()]
        while self.at(","):
            self.next()
            actions.append(self.invocation())
        return RuleExpr(guard, actions)

    def chainexpr(self) -> ChainExpr:
        items = [self.chainitem()]
        while self.at(","):
            self.next()
            items.append(self.chainitem())
        return ChainExpr(items)

    def chainitem(self):
        exit_flag = self.at(":")
        if exit_flag:
            self.next()
        return (exit_flag, self.expect("IDENT").value)


def parse(tokens, filename="<input>") -> Ast:
    return Parser(tokens, filename).parse()


# --- analysis and lowering --------------------------------------------------
# One pass: each invocation becomes its Condition or Action the one time
# it is resolved and checked, and each condition expression becomes its
# guard in the same walk.

@dataclass
class TypedProgram:
    filename: str
    # var -> what its let assigned: a condition or action alias gives
    # (builtin, frozen params | None), a conditionblock its guard, a rule
    # its Rule (exit flag 0), a rulechain [(exit, rule var)], a syscall
    # its hooked name
    values: dict = field(default_factory=dict)
    chains: list = field(default_factory=list)      # rulechain vars, let order
    binds: list = field(default_factory=list)       # [(syscall name, chain var)]
    warnings: list = field(default_factory=list)


class Analyzer:
    def __init__(self, ast: Ast):
        self.ast = ast
        self.declared = {}   # name -> typekw
        self.used = set()
        self.later = []      # (var, line, rule var | None): may be let later
        self.out = TypedProgram(ast.filename)

    def err(self, cls, message, line):
        raise cls(message, self.ast.filename, line, 1)

    def analyze(self) -> TypedProgram:
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
        values = self.out.values
        for name, line, rule in self.later:
            if name not in values:
                self.err(UndefinedName, f"{name!r} is used but never assigned",
                         line)
            if rule is not None:   # the guard named by a rule
                values[rule] = replace(values[rule], guard=values[name])
        for name in self.declared:
            if name not in self.used and name not in values:
                self.out.warnings.append(f"{name!r} defined but never assigned")
            elif name not in self.used:
                self.out.warnings.append(f"{name!r} assigned but never used")
        return self.out

    def let(self, stmt: Let):
        name, rhs, line = stmt.name, stmt.rhs, stmt.line
        if name not in self.declared:
            self.err(UndefinedName, f"{name!r} not defined", line)
        if name in self.out.values:
            self.err(SemanticError, f"{name!r} assigned twice", line)
        typekw = self.declared[name]
        if typekw in ("condition", "action"):
            value = self.builtin_alias(name, typekw, rhs, line)
        elif typekw == "conditionblock":
            if not isinstance(rhs, CondBlockExpr):
                self.err(TypeMismatch,
                         f"{name!r} is a conditionblock; expected a condition "
                         f"expression block", line)
            value = self.guard(rhs.expr)
        elif typekw == "rule":
            if not isinstance(rhs, RuleExpr):
                self.err(TypeMismatch,
                         f"{name!r} is a rule; expected {{guard->actions}}", line)
            value = self.rule(name, rhs, line)
        elif typekw == "rulechain":
            if not isinstance(rhs, ChainExpr):
                self.err(TypeMismatch,
                         f"{name!r} is a rulechain; expected {{rule,rule,...}}",
                         line)
            for _, rname in rhs.items:
                if self.declared.get(rname) != "rule":
                    self.err(TypeMismatch, f"{rname!r} is not a rule", line)
                self.used.add(rname)
                self.later.append((rname, line, None))
            value = rhs.items
            self.out.chains.append(name)
        elif typekw == "syscall":
            if not isinstance(rhs, NameRef):
                self.err(TypeMismatch, f"{name!r} is a syscall; expected a "
                         f"syscall name", line)
            value = hooked_syscall(rhs.name)
            if value is None:
                self.err(UndefinedName, f"unknown syscall {rhs.name!r}", line)
        self.out.values[name] = value

    def builtin_alias(self, name, typekw, rhs, line):
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
        return rhs.name, params

    def invocation(self, call: Call, want_kind: str):
        """Resolve a call to (builtin_name, params); checks kind and params."""
        name, frozen = call.name, None
        kind = self.declared.get(name)
        if kind is None:
            spec = bi.REGISTRY.get(name)
            if spec is None:
                self.err(UndefinedName, f"unknown name {name!r}", call.line)
            if spec.kind != want_kind:
                self.err(TypeMismatch,
                         f"{name!r} is a {spec.kind}, not a {want_kind}",
                         call.line)
            builtin = name
        elif kind != want_kind:
            self.err(TypeMismatch, f"{name!r} is a {kind}, not a {want_kind}",
                     call.line)
        elif name not in self.out.values:
            self.err(UndefinedName, f"{name!r} is used before it is assigned",
                     call.line)
        else:
            builtin, frozen = self.out.values[name]
            self.used.add(name)
        if frozen is not None:
            if call.args:
                self.err(ArityError,
                         f"{name!r} already carries parameters; call it "
                         f"with no arguments", call.line)
            return builtin, frozen
        params = tuple(call.args)
        err = bi.check_params(builtin, params)
        if err:
            self.err(ArityError, err, call.line)
        return builtin, params

    def guard(self, node) -> ConditionBlock:
        """Resolve and lower each leaf, left to right, in one post-order
        walk with an explicit stack, so any depth lowers.  A lone
        condition gets the neutral always-true partner."""
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
            done.append(Condition(*self.invocation(node, "condition")))
        node = done[0]
        if type(node) is Condition:
            return ConditionBlock(node, ALWAYS_TRUE, OP_AND)
        return node

    def rule(self, name, rx: RuleExpr, line) -> Rule:
        if isinstance(rx.guard, NameRef):
            guard = rx.guard.name   # its block may be let later
            if self.declared.get(guard) != "conditionblock":
                self.err(TypeMismatch,
                         f"rule guard {guard!r} is not a conditionblock", line)
            self.used.add(guard)
            self.later.append((guard, line, name))
        else:
            guard = self.guard(rx.guard.expr)
        actions = []
        blocked = False
        for call in rx.actions:
            builtin, params = self.invocation(call, "action")
            if builtin == "block":
                blocked = True
            elif builtin == "call_orig" and blocked:
                self.err(SemanticError,
                         "call_orig after block is contradictory", call.line)
            if builtin == "manipulateparam" and bi.rewrite_loop_hazard(params):
                self.out.warnings.append(
                    f"line {call.line}: manipulateparam replacement re-matches "
                    f"its own pattern (rewrite loop hazard)")
            actions.append(Action(builtin, params))
        return Rule(name, guard, ActionChain(tuple(actions)), 0,
                    f"{self.ast.filename}:{line}")

    def bind(self, stmt: BindStmt):
        if stmt.chain not in self.out.chains:
            self.err(UndefinedName, f"{stmt.chain!r} is not a rulechain",
                     stmt.line)
        self.used.add(stmt.chain)
        if self.declared.get(stmt.syscall) == "syscall" \
                and stmt.syscall in self.out.values:
            syscall = self.out.values[stmt.syscall]
            self.used.add(stmt.syscall)
        else:
            syscall = hooked_syscall(stmt.syscall)
            if syscall is None:
                self.err(UndefinedName, f"unknown syscall {stmt.syscall!r}",
                         stmt.line)
        if any(sc == syscall for sc, _ in self.out.binds):
            self.err(DuplicateBind,
                     f"syscall {syscall!r} already has a bound rulechain",
                     stmt.line)
        self.out.binds.append((syscall, stmt.chain))


def analyze(ast: Ast) -> TypedProgram:
    return Analyzer(ast).analyze()


def compile_typed(typed: TypedProgram) -> RuleProgram:
    """Build each rule chain from the analyzed rules and their exit flags."""
    values, chains = typed.values, {}
    for cname in typed.chains:
        chains[cname] = RuleChain(cname, tuple(
            replace(values[rname], exit_flag=1) if exit_flag else values[rname]
            for exit_flag, rname in values[cname]))
    return RuleProgram(chains=chains, bindings=list(typed.binds))


def compile_source(text: str, filename: str = "<input>"):
    """Full pipeline; returns (RuleProgram, warnings)."""
    ast = parse(tokenize(SourceUnit(text, filename)), filename)
    typed = analyze(ast)
    return compile_typed(typed), typed.warnings


# --- pretty printer ----------------------------------------------------------

def _arg_src(value) -> str:
    if isinstance(value, str):
        return json.dumps(value, ensure_ascii=False)
    return str(value)


def _call_src(call: Call) -> str:
    return f"{call.name}({';'.join(_arg_src(a) for a in call.args)})"


def _condexpr_src(node) -> str:
    """``(left op right)`` per BinOp; iterative, so depth is unbounded."""
    out, todo = [], [node]
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            out.append(item)
        elif isinstance(item, BinOp):
            todo += (")", item.right, f" {item.op} ", item.left, "(")
        else:
            out.append(_call_src(item))
    return "".join(out)


def _rhs_src(rhs) -> str:
    if isinstance(rhs, NameRef):
        return rhs.name
    if isinstance(rhs, Call):
        return _call_src(rhs)
    if isinstance(rhs, CondBlockExpr):
        return "{" + _condexpr_src(rhs.expr) + "}"
    if isinstance(rhs, RuleExpr):
        guard = (rhs.guard.name if isinstance(rhs.guard, NameRef)
                 else "{" + _condexpr_src(rhs.guard.expr) + "}")
        actions = ",".join(_call_src(c) for c in rhs.actions)
        return "{" + guard + "->" + actions + "}"
    if isinstance(rhs, ChainExpr):
        items = ",".join((":" if ex else "") + name for ex, name in rhs.items)
        return "{" + items + "}"
    raise AssertionError(f"bad rhs {rhs!r}")


def pretty_print(ast: Ast) -> str:
    lines = []
    for stmt in ast.statements:
        if isinstance(stmt, Define):
            lines.append(f"define {','.join(stmt.names)} as {stmt.typekw}")
        elif isinstance(stmt, Let):
            lines.append(f"let {stmt.name} be {_rhs_src(stmt.rhs)}")
        elif isinstance(stmt, BindStmt):
            lines.append(f"bind {stmt.chain} to {stmt.syscall}")
    return "\n".join(lines) + "\n"
