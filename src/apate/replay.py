"""Trace parsing and replay: drive compiled programs over event streams.

A trace is UTF-8, one JSON object per line:

    {"seq":1,"syscall":"open","args":["/etc/passwd","r"],
     "ctx":{"pid":42,"uid":1000,"ssid":1,"pname":"bash","parent_pname":"sshd"}}

Lines end at ``\n``, ``\r\n`` or ``\r`` only, so U+0085, U+2028 and
U+2029 may stand raw inside a JSON string.  Write payloads appear as
``{"len":n}`` and are carried internally as the byte length.

A trace streams: ``iter_trace`` reads it in blocks and yields each event
as its line is parsed, and ``replay_trace`` dispatches each event as it
arrives and hands its Disposition to a callback.  The Report keeps only
the counter totals and a stable digest of the final filesystem state.
"""

from __future__ import annotations

import io
import json
import math
import re
from dataclasses import dataclass, field, fields

from .engine import dispatch
from .errors import TraceError
from .model import Disposition, RuleProgram, SyscallEvent, TaskContext
from .sandbox import SandboxState


def _non_finite(text: str):
    raise ValueError(f"{text} is not a finite number")


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):   # 1e400 overflows to inf
        _non_finite(text)
    return value


# NaN, Infinity and -Infinity, and a float that overflows, are not JSON
# (RFC 8259) and could not be written back into the report as JSON.
_decoder = json.JSONDecoder(parse_constant=_non_finite,
                            parse_float=_finite_float)
_decode = _decoder.raw_decode
_scan = _decoder.scan_once   # raw_decode, raising a bare StopIteration
_skip_space = re.compile(r"[ \t\n\r]*").match  # JSON whitespace

TRACE_BLOCK = 1 << 20  # bytes read from a trace at a time
# A ctx object's keys, in TaskContext's order; compares as a set.
_CTX_KEYS = dict.fromkeys(f.name for f in fields(TaskContext)).keys()


def parse_trace_line(line: str, line_no: int = 0,
                     contexts: "dict | None" = None) -> SyscallEvent:
    """Parse one trace line.

    ``contexts`` maps each ``ctx`` text seen so far to its validated
    TaskContext, so that events whose ``ctx`` texts are identical share
    one; ``iter_trace`` passes one per block of the trace, and a fresh one
    is used when none is given.

    A line whose ``ctx`` comes last is read in two pieces: its head (the
    text before the comma that precedes the last ``"ctx":``, closed with
    ``}``) is decoded, and the ``ctx`` text is looked up in ``contexts``,
    so a task's ctx is decoded once per block.  When the head is one
    non-empty object and the ctx text one value, the whole line is one
    object with the head's members plus ``ctx`` (the last of a repeated
    key wins, as in ``json``).  Every other line, and every line the
    pieces do not give an event for, takes ``_parse_whole``, which alone
    raises, so each error reads as if no split were tried.
    """
    if contexts is None:
        contexts = {}
    at = line.rfind('"ctx":') if line.endswith("}}") else -1
    if at > 0:
        comma = at - 1
        while line[comma] in " \t\n\r" and comma:
            comma -= 1
        if line[comma] == ",":
            try:
                head, end = _scan(line[:comma] + "}", 0)
                # Only an object ends at that "}".  SyscallEvent refuses a
                # syscall that is not a string.
                if end == comma + 1 and head:
                    text = line[at + 6:-1]
                    ctx = contexts.get(text)
                    if ctx is None:   # check it, then keep it by its text
                        value = text.strip(" \t\n\r")
                        raw, end = _scan(value, 0)
                        if end != len(value):
                            raise ValueError("not one JSON value")
                        ctx = contexts[text] = _task_context(raw)
                    seq, args = head["seq"], head["args"]
                    if type(seq) is int and type(args) is list:
                        return SyscallEvent(seq, head["syscall"],
                                            _counted(args), ctx)
            except (StopIteration, KeyError, TypeError, ValueError,
                    RecursionError):
                pass
    return _parse_whole(line, line_no)


def _task_context(raw) -> TaskContext:
    """The TaskContext of a decoded ``ctx`` value."""
    if type(raw) is not dict:
        raise TypeError(f"ctx must be an object, got {raw!r}")
    if raw.keys() != _CTX_KEYS:
        raise ValueError(_ctx_key_error(raw))
    return TaskContext(**raw)


def _parse_whole(line: str, line_no: int) -> SyscallEvent:
    """Parse one trace line as a whole, raising a TraceError that names
    what is wrong."""
    try:
        try:
            obj, end = _scan(line, 0)
        except StopIteration:   # a leading blank, or no value at all
            obj, end = _decode(line, _skip_space(line).end())
    except (ValueError, RecursionError) as exc:
        raise TraceError(line_no, f"bad JSON: {exc}") from None
    if end != len(line):
        end = _skip_space(line, end).end()
        if end != len(line):
            raise TraceError(line_no, f"trailing data at column {end + 1}")
    if type(obj) is not dict:
        raise TraceError(line_no, "expected a JSON object, got "
                         f"{type(obj).__name__}")
    try:
        raw, seq, args = obj["ctx"], obj["seq"], obj["args"]
        ctx = _task_context(raw)
        if type(seq) is not int:
            raise TypeError(f"seq must be an integer, got {seq!r}")
        if type(args) is not list:
            raise TypeError(f"args must be a list, got {args!r}")
        args = _counted(args)
        syscall = obj["syscall"]
        if type(syscall) is not str:
            raise TypeError(f"syscall must be a string, got {syscall!r}")
        return SyscallEvent(seq, syscall, args, ctx)
    except KeyError as exc:
        raise TraceError(line_no, f"missing field {exc.args[0]!r}") from None
    except (TypeError, ValueError) as exc:
        raise TraceError(line_no, str(exc)) from None


def _ctx_key_error(raw: dict) -> str:
    """Name the first ctx key that is missing, or else unknown."""
    for key in _CTX_KEYS:
        if key not in raw:
            return f"ctx: missing key {key!r}"
    return f"ctx: unknown key {next(k for k in raw if k not in _CTX_KEYS)!r}"


def _counted(args: list) -> list:
    """``args`` with each object argument, exactly ``{"len": n}`` with n
    an int (a bool is not one), replaced in place by its n."""
    for i, arg in enumerate(args):
        if type(arg) is dict:
            n = arg.get("len") if len(arg) == 1 else None
            if type(n) is not int:
                raise ValueError(f"args[{i}]: an object argument "
                                 'must be {"len": n}')
            args[i] = n
    return args


def _whole_lines(fh):
    """Read the binary file ``fh`` in TRACE_BLOCK-byte blocks and yield
    them regrouped so that no line spans two pieces.

    Each block is cut after its last line end: a ``\\n``, or a ``\\r``
    that is not the block's last byte (it may begin a ``\\r\\n``).  A line
    longer than a block is gathered until its end arrives.
    """
    parts = []
    while block := fh.read(TRACE_BLOCK):
        cut = max(block.rfind(b"\n"), block.rfind(b"\r", 0, -1)) + 1
        if cut:
            parts.append(block[:cut])
            yield b"".join(parts)
            parts = [block[cut:]]
        else:
            parts.append(block)
    yield b"".join(parts)


def iter_trace(fh):
    """Yield the event of each non-blank line of the trace read from the
    binary file ``fh``, as soon as that line is parsed.

    Lines are read by ``LineError.lines``.  The ctx texts of one piece
    share a map, so it holds no more than the TRACE_BLOCK-byte block
    they came from.
    """
    line_no = 0
    for piece in _whole_lines(fh):
        contexts = {}
        raws = piece.splitlines()
        for n, line in TraceError.lines(raws, line_no + 1):
            yield parse_trace_line(line, n, contexts)
        line_no += len(raws)


def parse_trace(text: str) -> list:
    """Parse a whole trace held in memory: the lines ``iter_trace`` sees
    in its UTF-8 encoding (a lone surrogate fails as not UTF-8)."""
    return list(iter_trace(io.BytesIO(text.encode("utf-8", "surrogatepass"))))


@dataclass
class Report:
    """The report's totals; the per-event dispositions go to the callback
    of ``replay_trace`` as they are made."""

    total_conditions: int = 0
    log_records: int = 0
    vfs_digest: str = ""
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """The report's keys after ``events``, in report order."""
        return {
            "total_conditions": self.total_conditions,
            "log_records": self.log_records,
            "vfs_digest": self.vfs_digest,
            "diagnostics": self.diagnostics,
        }


def replay_trace(prog: RuleProgram, events, sandbox: SandboxState,
                 emit) -> Report:
    """Dispatch each event as ``events`` yields it, pass its Disposition
    to ``emit``, and summarize the outcome.

    An error raised while ``events`` yields (a bad trace line) ends the
    replay there; the events before it have already been dispatched.
    """
    total = 0
    for ev in events:
        disp = dispatch(prog, ev, sandbox)
        total += disp.conditions_evaluated
        emit(disp)
    return Report(
        total_conditions=total,
        log_records=sandbox.log_count,
        vfs_digest=sandbox.vfs.digest(),
        diagnostics={
            "dropped": sum(getattr(s, "dropped", 0) for s in sandbox.sinks),
            "notes": list(sandbox.diagnostics),
        })


class EventSource:
    """Synthesizes well-formed events with a shared monotone seq."""

    def __init__(self, ctx: TaskContext, start_seq: int = 1):
        self.ctx = ctx
        self.seq = start_seq

    def event(self, syscall: str, *args) -> SyscallEvent:
        ev = SyscallEvent(seq=self.seq, syscall=syscall, args=list(args),
                          ctx=self.ctx)
        self.seq += 1
        return ev
