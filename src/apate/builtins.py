"""Standard library of conditions and actions, plus the builtin registry.

Conditions return exactly 0 or 1; each is defined once, as an emitter
of the leaf expression the engine compiles into a guard function.
Actions return an integer status: 0 for success, nonzero to disrupt the
chain.  The registry exposes each builtin's kind and parameter signature
so the compiler can check arity and types.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property

from .errors import ApateError, UnknownBuiltin
from .logsink import format_record
from .sandbox import errno_default, exec_syscall, normalize_path

COMPARISONS = ("==", "!=", ">", "<", ">=", "<=")

CTX_FIELDS = ("pid", "uid", "ssid")
INLINE_CHARS = 500   # a guard with at most this much leaf text runs inline


def wildcard(text: str) -> "tuple[str, bool]":
    """A pattern's literal prefix and whether a final '*' follows it:
    ``P*`` matches a string that starts with P, P alone only P itself,
    and '*' alone everything.  check_params has refused a '*' anywhere
    but last (star_error)."""
    return (text[:-1], True) if text.endswith("*") else (text, False)


def star_error(text: str) -> "str | None":
    """Why text is not a pattern, or None: a '*' anywhere but last."""
    if -1 < text.find("*") < len(text) - 1:
        return f"'*' allowed only once, in final position: {text!r}"
    return None


# --- condition definitions ---------------------------------------------
# One emitter per condition: fn(src, params) -> one leaf of a generated
# guard function (see GuardSource): a compare's (subject, operator,
# literal), or else the text of an expression that is truthy exactly
# when the condition holds.  Each leaf is one statement that sets its
# run's 0 | 1 flag (GuardSource.child): a compare is `if a != k: g = 0`
# in an AND run (the inverse compare) or `if a == k: g = 1` in an OR
# run, other text `if not <leaf>: g = 0` or `if <leaf>: g = 1`, so a
# compare sits just before a jump.  GuardSource.leaf, the one caller,
# runs checked first, so an emitter trusts its params: they reach the
# text only as the literals src.const writes, operator text only from
# COMPARISONS, context field names only from CTX_FIELDS, and an argument
# index or a wildcard prefix's length only as an int check_params or
# len() gave, written with :d.  An argument leaf is one compare, subject
# on the left: out of range (a negative index or one past the arity), its
# read is an Absent, which notes the miss when compared.  A wildcard's
# prefix read is a str or an Absent on every event (src.prefix), so its
# compare stays specialized for str.

def _wildcard(src, pattern, subject):
    """Compare leaf: subject matches pattern.

    ``P*`` compares a hoisted ``subject[:len(P)]`` with P, which for a
    str is the test ``subject.startswith(P)`` makes, without a call.
    Where subject is None (no descriptor) that read is '' (src.prefix),
    which P never equals, and for '*' alone it is None, which '' does
    not equal; an exact P compares subject itself.
    """
    prefix, star = wildcard(pattern)
    if star:
        subject = src.prefix(subject, len(prefix))
    return subject, "==", src.const(prefix)


def _compare(src, lhs, op, value):
    return lhs, op, src.const(value)


def _e_always_true(src, params):
    return "1"


def _e_testforpname(src, params):
    return _wildcard(src, params[0], src.ctx("parent_pname"))


def _e_testforselfpname(src, params):
    return _wildcard(src, params[0], src.ctx("pname"))


def _e_testforparam(src, params):
    index, pattern = params
    return _wildcard(src, pattern, src.arg("testforparam", index))


def _e_testforuid(src, params):
    op, value = params
    return _compare(src, src.ctx("uid"), op, value)


def _e_ctxfield_cmp(src, params):
    fieldname, op, value = params
    return _compare(src, src.ctx(fieldname), op, value)


def _e_file_keyword(src, params):
    path, keyword = params
    return (f"(({src.const(keyword.encode('utf-8'))} in content) "
            f"if (content := sb.vfs.files.get("
            f"{src.const(normalize_path(path))})) is not None "
            f"else _miss(sb, {src.const('MissingFile')}, "
            f"{src.const(f'file_keyword: {path}')}))")


def _e_store_cmp(src, params):
    """An ordering on a cell that is not an int is 0 with a diagnostic."""
    key, op, value = params
    cell = f"{src.store_get()}({src.const(key)})"
    if op in ("==", "!="):
        return _compare(src, cell, op, value)
    try:
        shown = str(value)
    except ValueError:   # past sys.get_int_max_str_digits(); hex has no limit
        shown = hex(value)
    miss = (f"_miss(sb, {src.const('StoreTypeMismatch')}, "
            f"{src.const(f'store_cmp: {key!r} {op} {shown} on a non-int cell')})")
    return (f"((cell {op} {src.const(value)}) "
            f"if isinstance(cell := {cell}, int) else {miss})")


def _e_testforfdpath(src, params):
    index, pattern = params
    return _wildcard(src, pattern, src.arg("testforfdpath", index))


def _miss(sandbox, kind, detail):
    sandbox.diag(kind, detail)
    return 0


class Absent:
    """An argument read out of range: at a negative index or past the
    event's arity.  Each ``==`` or ``!=`` against it notes one
    ArgIndexOutOfRange and is False or True; a slice of it is itself, so
    a wildcard's prefix read stays absent."""

    __slots__ = ("sb", "detail")

    def __init__(self, sb, builtin, index, syscall):
        self.sb, self.detail = sb, f"{builtin} index {index} on {syscall}"

    def __eq__(self, other):
        self.sb.diag("ArgIndexOutOfRange", self.detail)
        return False

    def __ne__(self, other):
        self.sb.diag("ArgIndexOutOfRange", self.detail)
        return True

    def __getitem__(self, key):
        return self


GUARD_NS = {"Absent": Absent, "_miss": _miss}  # guard text's names
_LITERALS = {str: repr, bytes: repr, int: hex}   # the param types check_params admits


class GuardSource:
    """One generated guard: its source and reads.

    Each per-event value its leaves need is read once and named by what
    it reads: ``ctx_uid`` is ``ev.ctx.uid``, ``nargs`` ``len(ev.args)``,
    ``a0`` ``str(ev.args[0])``, ``f0`` ``sb.fds.path_of(ev.args[0])``
    (each an Absent past the arity; ``am1`` and ``fm1``, at index -1,
    always one; ``f0`` None where no descriptor is open), ``a0_p8``
    ``a0[:8]`` (``f0_p8`` '' where ``f0`` is None, ``f0_p0`` None) and
    ``store_get`` ``sb.store.get``.  No read needs a constant, so guards
    that read one value share its name, and a scan reads it once.
    ``nargs`` only feeds other reads' text, so no leaf names it.
    ``leaf`` runs ``checked`` before an emitter, which trusts its params
    and writes them as literals: a guard binds no name of its own.

    Finished, it holds ``lines``, which set the 0/1 flag ``result``, for
    a scan to inline; past INLINE_CHARS of leaf text, also ``body(ev, sb,
    <args>)``, compiled once, args the reads its leaves name.  Called as
    ``guard(ev, sb)``, it runs ``function``, compiled on the first call.
    """

    _ARG_READS = {"testforparam": ("a", "str"),
                  "testforfdpath": ("f", "sb.fds.path_of")}
    _INVERSE = {"==": "!=", "!=": "==", "<": ">=", ">=": "<", ">": "<=",
                "<=": ">"}

    def __init__(self):
        self.reads = {}      # name -> expression, in first-use order
        self.body, self.args = None, ()
        self._named = {}     # leaf read -> times handed out, less prefix()'s
        self._leaf_chars = 0
        self.leaves = 0      # conditions emitted

    @staticmethod
    def const(value) -> str:
        """value's literal, which compile() reads back equal: repr escapes
        a str's quote, backslash and every non-printable character, so it
        neither ends early nor spans a line; hex has no digit limit."""
        if (write := _LITERALS.get(type(value))) is None:
            raise TypeError(f"no literal for a {type(value).__name__} param")
        return write(value)

    def _new(self, name) -> bool:
        """Count one use of a read; True if reads lacks it as yet."""
        self._named[name] = self._named.get(name, 0) + 1
        return name not in self.reads

    def ctx(self, field) -> str:
        if self._new(name := f"ctx_{field}"):
            self.reads[name] = f"ev.ctx.{field}"
        return name

    def arg(self, builtin, index) -> str:
        """Local holding args[index] for builtin: as a string for
        testforparam (a<i>), or as the path of the descriptor it names for
        testforfdpath (f<i>, None if none).  Out of range it is an Absent
        that notes builtin when compared: past the arity by a test of
        nargs, at a negative index (m<-i>) always."""
        read, fn = self._ARG_READS[builtin]
        if self._new(name := f"{read}{index:d}" if index >= 0
                     else f"{read}m{-index:d}"):
            absent = f"Absent(sb, '{builtin}', {index:d}, ev.syscall)"
            if index < 0:
                self.reads[name] = absent
            else:
                self.reads.setdefault("nargs", "len(ev.args)")
                self.reads[name] = (f"{fn}(ev.args[{index:d}]) "
                                    f"if nargs > {index:d} else {absent}")
        return name

    def prefix(self, subject, n: int) -> str:
        """Local holding subject[:n]; the leaf names the slice in place of
        subject.  Where subject is None it is '' for n >= 1, which never
        equals the n-character literal compared with it, so each compare
        site sees one type; for n = 0 it stays None, so '*' alone matches
        no missing descriptor."""
        self._named[subject] -= 1
        if self._new(name := f"{subject}_p{n:d}"):
            empty = "''" if n else "None"
            self.reads[name] = f"{subject}[:{n:d}] if {subject} is not None else {empty}"
        return name

    def store_get(self) -> str:
        if self._new("store_get"):
            self.reads["store_get"] = "sb.store.get"
        return "store_get"

    def leaf(self, name, params):
        """Emit one condition: a compare's (subject, op, literal), counted
        as the text ``(subject op literal)``, or else its text; a bad
        name, kind or params raises."""
        leaf = checked(name, "condition", params).fn(self, params)
        self._leaf_chars += (len(leaf) if type(leaf) is str
                             else sum(map(len, leaf)) + 4)
        self.leaves += 1
        return leaf

    @classmethod
    def child(cls, flag, conj, test) -> str:
        """One child of a run: it clears an AND run's 0/1 flag when test
        fails, or sets an OR run's when it holds.  A compare is written
        bare, inverted in an AND run; other text as ``not <test>`` there."""
        if type(test) is tuple:
            subject, op, literal = test
            if conj:
                return f"if {subject} {cls._INVERSE[op]} {literal}: {flag} = 0"
            return f"if {subject} {op} {literal}: {flag} = 1"
        return (f"if not {test}: {flag} = 0" if conj
                else f"if {test}: {flag} = 1")

    def finish(self, lines, result):
        """Take the statements and their 0/1 flag; compile body if long."""
        self.lines, self.result = lines, result
        if self._leaf_chars > INLINE_CHARS:
            self.args = tuple(k for k, n in self._named.items() if n)
            self.body = define(dict(GUARD_NS), "body", [
                f"def body({', '.join(['ev', 'sb', *self.args])}):",
                *(f"    {line}" for line in lines), f"    return {result}"])
        return self

    def __call__(self, ev, sb):
        return self.function(ev, sb)

    @cached_property
    def function(self):
        """guard(ev, sb): the reads, then the statements or a call to body."""
        if self.body is None:
            return define(dict(GUARD_NS), "guard", [
                "def guard(ev, sb):", *read_lines(self.reads),
                *(f"    {line}" for line in self.lines), f"    return {self.result}"])
        return define({**GUARD_NS, "body": self.body}, "guard", [
            "def guard(ev, sb):", *read_lines(self.reads),
            f"    return body({', '.join(['ev', 'sb', *self.args])})"])


def read_lines(reads):
    """Source lines that make reads (name -> expression), in order."""
    return [f"    {name} = {expr}" for name, expr in reads.items()]


def define(ns, name, lines):
    """Compile lines in ns and take out the function they define as name."""
    exec(compile("\n".join(lines), f"<{name}>", "exec"), ns)
    return ns.pop(name)


def specialize(name: str, params):
    """fn(ev, sandbox) -> 0 | 1 for one condition: a one-leaf guard's
    standalone function, in the statement form a guard runs its leaves in."""
    src = GuardSource()
    return src.finish(
        ["g0 = 0", src.child("g0", False, src.leaf(name, params))], "g0").function


# --- action implementations --------------------------------------------
# Signature: fn(ev, sandbox, ctx, params) -> status int
# ctx is the event's Disposition, which the engine evaluates into.

def _a_manipulateparam(ev, sandbox, ctx, params):
    index, pattern, replacement = params
    if index < 0 or index >= len(ev.args):
        return 1  # chain disruption
    prefix, star = wildcard(pattern)
    value = str(ev.args[index])
    if not (value.startswith(prefix) if star else value == prefix):
        return 0
    rest = value[len(prefix):]   # "" for an exact match
    if replacement.endswith("/") and rest.startswith("/"):
        rest = rest.lstrip("/")
    ev.args[index] = replacement + rest
    return 0


def _a_log(ev, sandbox, ctx, params):
    task = ev.ctx
    line = format_record(sandbox.timestamp(), ev.seq, task.pid, task.uid,
                         ev.syscall, ev.args, ctx.result)
    for sink in sandbox.sinks:
        try:
            sink.emit(line)
        except Exception as exc:  # sink failure must not alter behavior
            sink.dropped += 1
            sandbox.diag("SinkFailure", repr(exc))
    sandbox.log_count += 1
    return 0


def _a_call_orig(ev, sandbox, ctx, params):
    ctx.result = exec_syscall(sandbox, ev)
    ctx.invoked = True
    return 0


def _a_block(ev, sandbox, ctx, params):
    ctx.blocked = True
    ctx.invoked = True
    ctx.result = params[0] if params else errno_default(ev)
    return 0


def _a_jump(ev, sandbox, ctx, params):
    return 0  # the target is bound with the rule; dispatch jumps after its chain


def _a_store_set(ev, sandbox, ctx, params):
    key, value = params
    sandbox.store.set(key, value)
    return 0


def _a_store_add(ev, sandbox, ctx, params):
    key, delta = params
    current = sandbox.store.get(key)
    if not isinstance(current, int):
        return 1  # adding to a string-valued cell disrupts the chain
    sandbox.store.set(key, current + delta)
    return 0


def _a_filter_dirents(ev, sandbox, ctx, params):
    """Drop matching names from this event's own listing: a getdents
    whose original call ran and succeeded.  Otherwise ``last_getdents``
    is another event's (or none), and this does nothing."""
    if (ev.syscall != "getdents" or not ctx.invoked or ctx.blocked
            or ctx.result < 0):
        return 0
    prefix, star = wildcard(params[0])
    kept = [n for n in sandbox.last_getdents
            if not (n.startswith(prefix) if star else n == prefix)]
    ctx.result -= len(sandbox.last_getdents) - len(kept)
    sandbox.last_getdents = kept
    return 0


# --- registry -----------------------------------------------------------

@dataclass(frozen=True)
class BuiltinSpec:
    name: str
    kind: str          # "condition" | "action"
    kinds: tuple       # param kinds
    required: int      # how many params must be given; the rest are optional
    fn: "object"       # condition: emitter fn(src, params); action: fn(ev, sandbox, ctx, params)


def _spec(name, kind, sig, fn):
    """sig: param kinds; a trailing kind ending in '?' is optional."""
    return name, BuiltinSpec(name, kind, tuple(k.rstrip("?") for k in sig),
                             sum(not k.endswith("?") for k in sig), fn)


REGISTRY = dict([
    _spec("always_true", "condition", (), _e_always_true),
    _spec("testforpname", "condition", ("pattern",), _e_testforpname),
    _spec("testforselfpname", "condition", ("pattern",), _e_testforselfpname),
    _spec("testforparam", "condition", ("int", "pattern"), _e_testforparam),
    _spec("testforuid", "condition", ("cmp", "int"), _e_testforuid),
    _spec("ctxfield_cmp", "condition", ("field", "cmp", "int"), _e_ctxfield_cmp),
    _spec("file_keyword", "condition", ("str", "str"), _e_file_keyword),
    _spec("store_cmp", "condition", ("str", "cmp", "int"), _e_store_cmp),
    _spec("testforfdpath", "condition", ("int", "pattern"), _e_testforfdpath),
    _spec("manipulateparam", "action", ("int", "pattern", "cstr"), _a_manipulateparam),
    _spec("log", "action", (), _a_log),
    _spec("call_orig", "action", (), _a_call_orig),
    _spec("block", "action", ("int?",), _a_block),
    _spec("jump", "action", ("int",), _a_jump),
    _spec("store_set", "action", ("str", "any"), _a_store_set),
    _spec("store_add", "action", ("str", "int"), _a_store_add),
    _spec("filter_dirents", "action", ("pattern",), _a_filter_dirents),
])


def checked(name: str, kind: str, params) -> BuiltinSpec:
    """The spec of a builtin of this kind ("condition" or "action") that
    takes params; else UnknownBuiltin, or ApateError for bad params."""
    spec = REGISTRY.get(name)
    if spec is None or spec.kind != kind:
        raise UnknownBuiltin(f"{name!r} is not a builtin {kind}")
    if err := check_params(name, params):
        raise ApateError(err)
    return spec


def check_params(name: str, params) -> "str | None":
    """Validate params against a builtin's signature.

    Returns an error message or None.  Used by the compiler and at
    program load so bad programs never reach the engine.  As in .apate
    source, no string param holds a lone surrogate, which is not UTF-8.
    A "cstr" (manipulateparam's replacement, written into a syscall
    argument, every string slot of which is a C string) holds no NUL.
    """
    spec = REGISTRY[name]
    kinds, required = spec.kinds, spec.required
    if not (required <= len(params) <= len(kinds)):
        want = (f"{required}" if required == len(kinds)
                else f"{required}..{len(kinds)}")
        return f"{name} takes {want} params, got {len(params)}"
    for kind, value in zip(kinds, params):
        if kind == "int" and type(value) is not int:     # not a bool
            return f"{name}: expected integer, got {value!r}"
        if kind == "any" and type(value) not in (str, int):
            return f"{name}: expected string or integer, got {value!r}"
        if (kind in ("str", "cstr", "pattern", "cmp", "field")
                and type(value) is not str):
            return f"{name}: expected string, got {value!r}"
        if kind == "cstr" and "\0" in value:
            return f"{name}: NUL character in {value!r}"
        if kind == "pattern" and (err := star_error(value)):
            return f"{name}: {err}"
        if kind == "cmp" and value not in COMPARISONS:
            return f"{name}: bad comparison {value!r}"
        if kind == "field" and value not in CTX_FIELDS:
            return f"{name}: bad context field {value!r}"
        if (type(value) is str and not value.isascii()
                and re.search("[\ud800-\udfff]", value)):
            return f"{name}: lone surrogate in {value!r}"
    return None


def rewrite_loop_hazard(params) -> bool:
    """True when a manipulateparam replacement re-matches its own pattern."""
    _, pattern, replacement = params
    prefix, star = wildcard(pattern)
    return replacement.startswith(prefix) if star else replacement == prefix
