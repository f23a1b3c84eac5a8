"""In-memory span tracer that wraps apate's layer boundaries from outside.

Nothing under src/apate changes: `Tracer.installed()` swaps the module
attributes and class methods that one layer calls in another for timed
wrappers, and puts the originals back on exit.  Each span records its
name, start, end and parent; a layer's self time is its duration minus
the time its child spans cover.

Span names and the boundary each one wraps:

    dsl.tokenize|parse|analyze|lower  dsl.tokenize/parse/analyze/compile_typed
    apc.serialize, apc.load           apc.serialize, apc.deserialize
    engine.validate                   cli.validate_program
    engine.dispatch                   replay.dispatch (one per event)
    engine.guard                      closures returned by engine.compiled_guard
    engine.actions                    engine.run_action_chain
    sandbox.exec.<syscall>            exec_syscall as engine and builtins call it
    sandbox.manifest, sandbox.digest  cli.vfs_from_manifest, VirtualFS.digest
    logsink.format                    builtins.format_record
    logsink.emit.file|vfs             FileSink.emit, VfsSink.emit
    replay.parse_line                 replay.parse_trace_line
    replay.replay                     cli.replay_trace
    replay.report.to_dict|dumps       Report.to_dict, the JSON dump in cli
"""

from __future__ import annotations

import contextlib
import json
import time
import types

from apate import apc, builtins, cli, dsl, engine, logsink, replay, sandbox


class Tracer:
    def __init__(self):
        self.spans = []          # (name, start_ns, end_ns, parent index)
        self.stack = []
        self.leaves = 0          # guard leaves evaluated under engine.guard
        self.bytes_moved = 0     # bytes returned by read and write
        self._guards = {}

    def reset(self):
        self.spans.clear()
        self.stack.clear()
        self.leaves = 0
        self.bytes_moved = 0

    def _open(self):
        idx = len(self.spans)
        self.spans.append(None)
        self.stack.append(idx)
        return idx

    def _close(self, idx, name, t0):
        t1 = time.perf_counter_ns()
        stack = self.stack
        stack.pop()
        self.spans[idx] = (name, t0, t1, stack[-1] if stack else -1)

    def wrap(self, name, fn):
        now = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = self._open()
            t0 = now()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx, name, t0)
        return traced

    def _wrap_exec(self, fn):
        now = time.perf_counter_ns

        def traced(sb, ev):
            idx = self._open()
            t0 = now()
            try:
                result = fn(sb, ev)
            finally:
                self._close(idx, "sandbox.exec." + ev.syscall, t0)
            if result > 0 and ev.syscall in ("read", "write"):
                self.bytes_moved += result
            return result
        return traced

    def _wrap_compiled_guard(self, fn):
        def traced(block):
            hit = self._guards.get(id(block))
            if hit is None or hit[2] is not block:
                closure, count = fn(block)
                hit = (self._wrap_guard(closure, count), count, block)
                self._guards[id(block)] = hit
            return hit[0], hit[1]
        return traced

    def _wrap_guard(self, closure, count):
        now = time.perf_counter_ns

        def traced(ev, sb):
            self.leaves += count
            idx = self._open()
            t0 = now()
            try:
                return closure(ev, sb)
            finally:
                self._close(idx, "engine.guard", t0)
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every boundary for the duration of the block."""
        exec_traced = self._wrap_exec(sandbox.exec_syscall)
        patches = [
            (dsl, "tokenize", self.wrap("dsl.tokenize", dsl.tokenize)),
            (dsl, "parse", self.wrap("dsl.parse", dsl.parse)),
            (dsl, "analyze", self.wrap("dsl.analyze", dsl.analyze)),
            (dsl, "compile_typed", self.wrap("dsl.lower", dsl.compile_typed)),
            (apc, "serialize", self.wrap("apc.serialize", apc.serialize)),
            (apc, "deserialize", self.wrap("apc.load", apc.deserialize)),
            (cli, "validate_program",
             self.wrap("engine.validate", cli.validate_program)),
            (cli, "vfs_from_manifest",
             self.wrap("sandbox.manifest", cli.vfs_from_manifest)),
            (cli, "replay_trace", self.wrap("replay.replay", cli.replay_trace)),
            (cli, "json", types.SimpleNamespace(
                dumps=self.wrap("replay.report.dumps", json.dumps))),
            (replay, "parse_trace_line",
             self.wrap("replay.parse_line", replay.parse_trace_line)),
            (replay, "dispatch", self.wrap("engine.dispatch", replay.dispatch)),
            (replay.Report, "to_dict",
             self.wrap("replay.report.to_dict", replay.Report.to_dict)),
            (engine, "compiled_guard",
             self._wrap_compiled_guard(engine.compiled_guard)),
            (engine, "run_action_chain",
             self.wrap("engine.actions", engine.run_action_chain)),
            (engine, "exec_syscall", exec_traced),
            (builtins, "exec_syscall", exec_traced),
            (builtins, "format_record",
             self.wrap("logsink.format", builtins.format_record)),
            (logsink.FileSink, "emit",
             self.wrap("logsink.emit.file", logsink.FileSink.emit)),
            (logsink.VfsSink, "emit",
             self.wrap("logsink.emit.vfs", logsink.VfsSink.emit)),
            (sandbox.VirtualFS, "digest",
             self.wrap("sandbox.digest", sandbox.VirtualFS.digest)),
        ]
        saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in patches]
        try:
            for obj, attr, new in patches:
                setattr(obj, attr, new)
            yield self
        finally:
            for obj, attr, old in saved:
                setattr(obj, attr, old)
            self._guards.clear()

    def aggregate(self) -> dict:
        """name -> [self ns, calls, total ns] over the recorded spans."""
        child = [0] * len(self.spans)
        for _, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {}
        for i, (name, t0, t1, _) in enumerate(self.spans):
            row = out.setdefault(name, [0, 0, 0])
            row[0] += t1 - t0 - child[i]
            row[1] += 1
            row[2] += t1 - t0
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, t0, t1, parent in self.spans:
                fh.write(json.dumps([name, t0, t1, parent]) + "\n")
