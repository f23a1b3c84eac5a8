"""Trace parsing and replay: drive compiled programs over event streams.

A trace is UTF-8, one JSON object per line:

    {"seq":1,"syscall":"open","args":["/etc/passwd","r"],
     "ctx":{"pid":42,"uid":1000,"ssid":1,"pname":"bash","parent_pname":"sshd"}}

Write payloads appear as ``{"len":n}`` and are carried internally as the
byte length.  The Report summarizes per-event dispositions, counter
totals, and a stable digest of the final filesystem state.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .engine import DEFAULT_JUMP_BUDGET, dispatch
from .errors import TraceError
from .model import Disposition, RuleProgram, SyscallEvent, TaskContext
from .sandbox import SandboxState


def parse_trace_line(line: str, line_no: int = 0) -> SyscallEvent:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise TraceError(line_no, f"bad JSON: {exc}") from None
    try:
        ctx = TaskContext(**obj["ctx"])
        seq, args = obj["seq"], obj["args"]
        if type(seq) is not int:
            raise TypeError(f"seq must be an integer, got {seq!r}")
        if not isinstance(args, list):
            raise TypeError(f"args must be a list, got {args!r}")
        args = [a["len"] if isinstance(a, dict) else a for a in args]
        return SyscallEvent(seq=seq, syscall=obj["syscall"],
                            args=args, ctx=ctx)
    except (KeyError, TypeError, ValueError) as exc:
        raise TraceError(line_no, str(exc)) from None


def parse_trace(text: str):
    events = []
    for n, line in enumerate(text.splitlines(), start=1):
        if line.strip():
            events.append(parse_trace_line(line, n))
    return events


@dataclass
class Report:
    dispositions: list = field(default_factory=list)
    total_conditions: int = 0
    log_records: int = 0
    vfs_digest: str = ""
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "events": [d.to_dict() for d in self.dispositions],
            "total_conditions": self.total_conditions,
            "log_records": self.log_records,
            "vfs_digest": self.vfs_digest,
            "diagnostics": self.diagnostics,
        }


def replay_trace(prog: RuleProgram, events, sandbox: SandboxState,
                 budget: int = DEFAULT_JUMP_BUDGET) -> Report:
    """Dispatch each event in order and summarize the outcome."""
    report = Report()
    for ev in events:
        disp = dispatch(prog, ev, sandbox, budget=budget)
        report.dispositions.append(disp)
        report.total_conditions += disp.conditions_evaluated
    report.log_records = sandbox.log_count
    report.vfs_digest = sandbox.vfs.digest()
    report.diagnostics = {
        "dropped": sum(getattr(s, "dropped", 0) for s in sandbox.sinks),
        "notes": list(sandbox.diagnostics),
    }
    return report


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


def scan_for_substring(prog: RuleProgram, sandbox: SandboxState,
                       needle: bytes, ctx: TaskContext,
                       root: str = "/") -> dict:
    """Grep-style sweep through the hooked layer.

    Walks every directory visible via getdents, opens and reads every
    visible file, and searches the bytes for ``needle``.  Returns the
    matching paths and how many dispatched syscalls the sweep issued.
    All traffic goes through the rule program, so cloaked entries are
    invisible to the sweep exactly as they would be to an intruder.
    """
    src = EventSource(ctx, start_seq=10_000_000)
    hits = []
    syscalls = 0
    pending = [root]
    while pending:
        directory = pending.pop()
        disp = dispatch(prog, src.event("getdents", directory), sandbox)
        syscalls += 1
        if disp.result < 0:
            continue
        entries = list(sandbox.last_getdents)
        prefix = directory if directory.endswith("/") else directory + "/"
        for name in entries:
            path = prefix + name
            probe = dispatch(prog, src.event("getdents", path), sandbox)
            syscalls += 1
            if probe.result >= 0:
                pending.append(path)
                continue
            disp = dispatch(prog, src.event("open", path, "r"), sandbox)
            syscalls += 1
            if disp.result < 0:
                continue
            fd = disp.result
            content = b""
            while True:
                r = dispatch(prog, src.event("read", fd, 65536), sandbox)
                syscalls += 1
                if r.result <= 0:
                    break
                content += sandbox.last_read
            dispatch(prog, src.event("close", fd), sandbox)
            syscalls += 1
            if needle in content:
                hits.append(path)
    return {"hits": hits, "syscalls": syscalls}
