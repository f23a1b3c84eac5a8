"""Differential and fuzz tests for the .apate front end.

The lexer is one regex scan and the condition-expression parser one
precedence loop over explicit stacks.  This module keeps frozen copies
of the character-at-a-time lexer and of the recursive
condexpr/condand/condterm they replaced, and checks the new code against
them on seeded random inputs.  The only allowed differences are the two
lexical tightenings: INT digits are ASCII [0-9], and a \\u escape takes
exactly four ASCII hex digits naming no surrogate (D800-DFFF).
"""

import json
import random

import pytest

from apate import apc
from apate.dsl import (BinOp, Call, KEYWORDS, Parser, SourceUnit, Token,
                       analyze, compile_source, compile_typed, parse,
                       tokenize)
from apate.errors import IllegalCharacter, SourceError, UnterminatedString

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
        """Same AST, or the same error class, message, line and col."""
        rng = random.Random(1987)
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
            assert (_parse_outcome(Parser, tokens)
                    == _parse_outcome(_RecursiveParser, tokens)), tokens

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
    prog = compile_typed(analyze(_RecursiveParser(tokens, "p.apate").parse()))
    monkeypatch.setattr(apc, "_params_json", _frozen_params_json)
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


def test_fuzz_compile_returns_or_raises_source_error():
    """Seeded mutations of valid programs: compile_source returns or raises
    a SourceError, never anything else; every success round-trips."""
    rng = random.Random(2015)
    seeds = (MYSQL_EXAMPLE, _m3d_source(random.Random(11), 4, 5))
    compiled = 0
    for case in range(2_000):
        text = _mutate(rng, seeds[case % 2])
        try:
            prog, _ = compile_source(text, "fuzz.apate")
        except SourceError:
            continue
        except Exception as exc:   # noqa: BLE001 - report the case
            raise AssertionError(f"case {case}: {text!r}") from exc
        blob = apc.serialize(prog)
        assert apc.serialize(apc.deserialize(blob)) == blob, text
        compiled += 1
    assert compiled >= 200
