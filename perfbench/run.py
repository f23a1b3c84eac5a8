"""Replay benchmark for apate.

Each workload's inputs come from gen.py with the given seed.  A run then
repeats one cycle until --seconds is used:

1. compile the `.apate` source with `apate compile` at least once
   (setup_s is the median compile over the run);
2. replay the trace through `apate run` in this process (events_per_s
   is the median pass; peak_rss_mb is read right after the first pass);
3. replay the same events on a fresh world by calling engine.dispatch
   directly, with timer reads only around each call (hook_us_p50 and
   hook_us_p99 are taken per pass; each is the median pass).

Every pass is checked against the generator's expectations and against
a replay of the trace through exec_syscall alone; events that disagree
or raise count as failed.  With --trace 1 the passes alternate between
untraced and traced, and the run reports per-layer metrics instead (see
spans.py and README.md).  The last stdout line is one JSON object.

    python3 perfbench/run.py --workload guard-heavy --seed 1 --seconds 10
    python3 perfbench/run.py --all --seconds 10      # every workload
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calib
import gen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"

MIN_CYCLES = 3             # compile batch + `apate run` pass + hook pass
MIN_HOOK_SAMPLES = 1000
# Host-speed readings (calib.py): every 10 ms in an `apate run` pass, and
# every 2 ms between the direct pass's dispatch calls, where shorter
# segments catch shorter bursts of host contention and the readings'
# cost enters no timed call.
PROBE_EVERY_NS = 10_000_000
HOOK_PROBE_EVERY_NS = 2_000_000
OVERTIME_SECONDS = 60      # extra time allowed to gather one timed block
SETUP_BATCH_SECONDS = 0.1  # compiles per cycle: at least one, this long
TRACED_RUN_SHARE = 0.6     # traced run: share of --seconds on run passes
TRACED_COMPILE_SECONDS = 1.0
TRACED_MIN_COMPILES = 5
LEAF_SAMPLE_EVENTS = 300   # events sampled for the isolated leaf timings
LEAF_MIN_CALLS = 256       # leaf calls per timer read

CONDITION_BUILTINS = ("testforuid", "ctxfield_cmp", "testforparam",
                      "testforpname", "testforfdpath")

# Spans each workload must fire in a traced run; a missing one fails the
# run rather than reporting zero.  sandbox.exec.<syscall> is required for
# every syscall the trace issues, and builtins.leaf_ns.<condition> for
# every condition builtin the program uses.
COMMON_SPANS = ("dsl.tokenize", "dsl.parse", "dsl.analyze", "dsl.lower",
                "apc.serialize", "apc.load", "engine.validate",
                "engine.dispatch", "engine.guard", "engine.actions",
                "sandbox.manifest", "sandbox.digest", "replay.parse_line",
                "replay.replay", "replay.report.to_dict",
                "replay.report.dumps")
WORKLOAD_SPANS = {"guard-heavy": (),
                  "honeypot-mix": ("logsink.format", "logsink.emit.vfs"),
                  "bulk-copy": ("logsink.format", "logsink.emit.file")}


def _load_apate():
    """Import apate from this checkout's src/, or return False."""
    src = ROOT / "src"
    if not (src / "apate" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(src))
    import apate
    return Path(apate.__file__).resolve().parent == (src / "apate").resolve()


# --- checking ---------------------------------------------------------------

class Checker:
    """Expected per-event outcomes, from the generator and a replay of the
    trace through exec_syscall alone (no rule program)."""

    def __init__(self, inputs, trace_text, manifest):
        from apate.replay import parse_trace
        from apate.sandbox import SandboxState, exec_syscall, vfs_from_manifest

        self.inputs = inputs
        sb = SandboxState(vfs=vfs_from_manifest(manifest))
        events = parse_trace(trace_text)
        if len(events) != len(inputs.events):
            raise SystemExit("generator wrote a trace of the wrong length")
        self.expected = []
        for ev, exp in zip(events, inputs.events):
            ev.args[:] = exp.args
            ref = exec_syscall(sb, ev)
            result = exp.result if exp.result is not None else ref
            self.expected.append((result, exp.blocked, exp.matched, exp.args,
                                  exp.conditions))
        self.digest = sb.vfs.digest()
        self.failures = []

    def fail(self, message):
        if len(self.failures) < 20:
            self.failures.append(message)

    def event(self, i, got) -> bool:
        if got != self.expected[i]:
            self.fail(f"event {i + 1}: got {got}, expected {self.expected[i]}")
            return False
        return True

    def report(self, report: dict) -> int:
        """Check one `apate run` report; returns the failed event count."""
        events = report["events"]
        if len(events) != len(self.expected):
            self.fail(f"report has {len(events)} events")
            return len(self.expected)
        failed = sum(not self.event(i, (d["result"], d["blocked"],
                                        d["matched_rules"], d["args"],
                                        d["conditions"]))
                     for i, d in enumerate(events))
        ok = self.totals(report["log_records"], report["vfs_digest"],
                         report["total_conditions"])
        return failed if ok else len(self.expected)

    def totals(self, log_records, digest, conditions) -> bool:
        ok = True
        if log_records != self.inputs.log_records:
            self.fail(f"log_records {log_records}, expected "
                      f"{self.inputs.log_records}")
            ok = False
        if self.inputs.compare_digest and digest != self.digest:
            self.fail("vfs_digest differs from the exec_syscall-only replay")
            ok = False
        want = sum(e.conditions for e in self.inputs.events)
        if conditions != want:
            self.fail(f"total_conditions {conditions}, expected {want}")
            ok = False
        return ok


# --- one workload -------------------------------------------------------------

class Workload:
    def __init__(self, name, seed, work):
        from apate import cli

        self.cli = cli
        self.work = work
        self.inputs = gen.generate(name, seed, str(work))
        self.apc = str(work / "program.apc")
        self.report = str(work / "report.json")
        self.flags = [f.format(dir=work) for f in self.inputs.run_flags]
        self.log_file = (self.flags[self.flags.index("--log-file") + 1]
                         if "--log-file" in self.flags else None)
        with open(self.inputs.trace, encoding="utf-8") as fh:
            self.trace_text = fh.read()
        with open(self.inputs.manifest, "rb") as fh:
            self.manifest = fh.read()
        self.n_events = len(self.inputs.events)
        if self.n_events < MIN_HOOK_SAMPLES:
            raise SystemExit(f"{name}: {self.n_events} events per pass, "
                             f"need {MIN_HOOK_SAMPLES}")
        self.attempted = 0
        self.failed = 0

    # setup -------------------------------------------------------------
    def compile_once(self) -> float:
        argv = ["compile", self.inputs.source, "-o", self.apc]
        t0 = time.perf_counter()
        rc = self.cli.main(argv)
        elapsed = time.perf_counter() - t0
        if rc != 0:
            raise SystemExit(f"apate compile exited {rc}")
        return elapsed

    def distinct_conds(self, checker) -> int:
        """COND records in the compiled program, checked against the
        generator's lower bound."""
        with open(self.apc, encoding="utf-8") as fh:
            count = sum(line.startswith("COND\t") for line in fh)
        if count < self.inputs.min_conditions:
            checker.fail(f"{count} COND records, expected at least "
                         f"{self.inputs.min_conditions}")
            self.failed += self.n_events
        return count

    def compile_batch(self, seconds) -> "tuple[list, float]":
        """Compiles for at least ``seconds``; returns their times and the
        host-speed factor over the batch (see calib.py)."""
        meter = calib.Meter()
        meter.start()
        samples = [self.compile_once()]
        while sum(samples) < seconds:
            samples.append(self.compile_once())
        meter.stop()
        return samples, meter.speed()

    # `apate run` pass ----------------------------------------------------
    def run_pass(self, checker, ticks=True
                 ) -> "tuple[float, float, dict | None]":
        """One `apate run`; returns (events/s as read, host-speed factor
        over the pass, report).

        With ``ticks`` the host speed is read every PROBE_EVERY_NS between
        two events, from a wrapper around the dispatch function the
        replay calls, and the readings' own time is left out; without,
        it is read before and after the pass only.
        """
        from apate import replay
        _clear_guard_cache()
        for path in (self.report, self.log_file):
            if path and os.path.exists(path):
                os.remove(path)
        argv = ["run", "--program", self.apc, "--trace", self.inputs.trace,
                "--fs", self.inputs.manifest, *self.flags,
                "--report", self.report]
        meter = calib.Meter(PROBE_EVERY_NS)
        inner = replay.dispatch
        tick = meter.tick

        def ticking(*args, **kwargs):
            disp = inner(*args, **kwargs)
            tick()
            return disp

        if ticks:
            replay.dispatch = ticking
        gc.collect()
        try:
            meter.start()
            rc = self.cli.main(argv)
            meter.stop()
        finally:
            replay.dispatch = inner
        elapsed = meter.as_read_ns() / 1e9
        speed = meter.speed()
        self.attempted += self.n_events
        if rc != 0:
            checker.fail(f"apate run exited {rc}")
            self.failed += self.n_events
            return self.n_events / elapsed, speed, None
        with open(self.report, encoding="utf-8") as fh:
            report = json.load(fh)
        failed = checker.report(report)
        if self.log_file:
            with open(self.log_file, encoding="utf-8") as fh:
                lines = sum(1 for _ in fh)
            if lines != self.inputs.log_records:
                checker.fail(f"log file has {lines} records, expected "
                             f"{self.inputs.log_records}")
                failed = self.n_events
        self.failed += failed
        return self.n_events / elapsed, speed, report

    # direct dispatch pass --------------------------------------------------
    def world(self):
        """The program, sandbox and sinks `apate run` builds, built here."""
        from apate import apc
        from apate.cloak import apply_cloak, cloak_ruleset
        from apate.engine import validate_program
        from apate.logsink import FileSink, VfsSink
        from apate.sandbox import SandboxState, vfs_from_manifest

        _clear_guard_cache()
        with open(self.apc, "rb") as fh:
            prog = apc.deserialize(fh.read())
        validate_program(prog)
        sb = SandboxState(vfs=vfs_from_manifest(self.manifest))
        if self.log_file:
            if os.path.exists(self.log_file):
                os.remove(self.log_file)
            sb.sinks.append(FileSink(self.log_file))
        if "--cloak" in self.flags:
            path = self.flags[self.flags.index("--cloak") + 1]
            sb.sinks.append(VfsSink(sb.vfs, path))
            prog = apply_cloak(prog, cloak_ruleset(path))
        return prog, sb

    def hook_pass(self, checker, latencies, raw=None) -> None:
        """Dispatch every event on a fresh world, timing each call.

        The host speed is read every HOOK_PROBE_EVERY_NS between two calls.
        The calls of each steady segment between two readings (calib.py)
        are scaled by its factor and appended to ``latencies``, and as
        read to ``raw`` if given; calls of unsteady segments are checked
        but not timed.
        """
        from apate.engine import dispatch
        from apate.replay import parse_trace

        prog, sb = self.world()
        events = parse_trace(self.trace_text)
        hidden_dir, hidden_name = self.inputs.hidden or (None, None)
        now = time.perf_counter_ns
        chunk = []
        append = chunk.append
        outcomes = []
        meter = calib.Meter(HOOK_PROBE_EVERY_NS)

        def flush():
            _, speed, steady = meter.segments[-1]
            if steady:
                latencies.extend(ns * speed for ns in chunk)
                if raw is not None:
                    raw.extend(chunk)
            chunk.clear()

        gc.collect()
        meter.start()
        for ev in events:
            try:
                t0 = now()
                d = dispatch(prog, ev, sb)
                t1 = now()
            except Exception as exc:  # an event that raises counts as failed
                outcomes.append(exc)
                continue
            append(t1 - t0)
            outcomes.append(d)
            if meter.tick():
                flush()
            if (ev.syscall == "getdents" and ev.args[0] == hidden_dir
                    and hidden_name in sb.last_getdents):
                checker.fail(f"getdents {hidden_dir} listed {hidden_name}")
                outcomes[-1] = None
        meter.stop()
        flush()
        for sink in sb.sinks:
            sink.close()
        failed = 0
        conditions = 0
        for i, d in enumerate(outcomes):
            if d is None or isinstance(d, Exception):
                if d is not None:
                    checker.fail(f"event {i + 1} raised {d!r}")
                failed += 1
                continue
            conditions += d.conditions_evaluated
            failed += not checker.event(i, (d.result, d.blocked,
                                            d.matched_rules,
                                            d.manipulated_args,
                                            d.conditions_evaluated))
        if not checker.totals(sb.log_count, sb.vfs.digest(), conditions):
            failed = self.n_events
        self.attempted += self.n_events
        self.failed += failed


def _clear_guard_cache():
    """Start each pass as a fresh `apate run` process would: with no
    guards compiled.  The engine caches compiled guards by object id for
    the life of the process."""
    from apate import engine
    cache = getattr(engine, "_compiled", None)
    if isinstance(cache, dict):
        cache.clear()


def _percentile(sorted_values, q):
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q / 100 * len(sorted_values)) - 1)]


def _stats_line(name, value, unit, samples=None, what=""):
    from apate.bench import stats
    line = f"  {name:<34} {value:>14.6g} {unit:<9}"
    if samples is not None and len(samples) >= 2:
        st = stats(samples)
        line += f" median {st.median:.6g} iqr {st.iqr:.6g} n={st.n}"
    return line + (f"  {what}" if what else "")


# --- untraced run ---------------------------------------------------------------

def run_untraced(wl, checker, seconds):
    # Each cycle takes one sample of every metric, so that all of them
    # average over the same stretch of the machine's load.  Every time is
    # scaled to nominal host speed by the readings taken around it
    # (calib.py); the values as read are printed too.  The timed
    # dispatch calls of consecutive passes are gathered into blocks of
    # at least MIN_HOOK_SAMPLES, so that at least ten lie above p99; the
    # percentiles are taken per block and reported as the median block,
    # so that one stretch of bad host weather moves one block only.
    setup, eps, hook, as_read = [], [], [], []
    blocks = {"hook_us_p50": [], "hook_us_p99": []}
    raw = {"events_per_s": [], "setup_s": [], "hook_us_p50": [],
           "hook_us_p99": []}
    rss_mb = None
    calls = timed = 0
    start = time.perf_counter()
    while (len(eps) < MIN_CYCLES or not blocks["hook_us_p50"]
           or time.perf_counter() - start < seconds):
        if time.perf_counter() - start > seconds + OVERTIME_SECONDS:
            break
        times, speed = wl.compile_batch(SETUP_BATCH_SECONDS)
        setup += [t * speed for t in times]
        raw["setup_s"] += times
        if not eps:
            wl.distinct_conds(checker)
        rate, speed, _ = wl.run_pass(checker)
        eps.append(rate / speed)
        raw["events_per_s"].append(rate)
        if rss_mb is None:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        wl.hook_pass(checker, hook, as_read)
        calls += wl.n_events
        if len(hook) >= MIN_HOOK_SAMPLES:
            timed += len(hook)
            for values, into in ((hook, blocks), (as_read, raw)):
                values.sort()
                into["hook_us_p50"].append(_percentile(values, 50) / 1000)
                into["hook_us_p99"].append(_percentile(values, 99) / 1000)
                values.clear()
    if not blocks["hook_us_p50"]:
        raise SystemExit(f"fewer than {MIN_HOOK_SAMPLES} dispatch calls ran "
                         f"at a steady host speed")
    metrics = {
        "events_per_s": (statistics.median(eps), "events/s"),
        "hook_us_p50": (statistics.median(blocks["hook_us_p50"]), "us"),
        "hook_us_p99": (statistics.median(blocks["hook_us_p99"]), "us"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    what = (f"{len(blocks['hook_us_p50'])} blocks, {timed} of {calls} "
            f"dispatch calls timed at a steady host speed")
    samples = {
        "events_per_s": (eps, f"{len(eps)} apate-run passes of "
                              f"{wl.n_events} events"),
        "hook_us_p50": (blocks["hook_us_p50"], what),
        "hook_us_p99": (blocks["hook_us_p99"], what),
        "setup_s": (setup, f"{len(setup)} compiles"),
        "peak_rss_mb": (None, "ru_maxrss after the first apate-run pass"),
    }
    lines = [_stats_line(name, value, unit, *samples[name])
             for name, (value, unit) in metrics.items()]
    lines.append("  as read, before scaling to nominal host speed: "
                 + ", ".join(f"{name} {statistics.median(values):.6g}"
                             for name, values in raw.items()))
    return metrics, lines


# --- traced run -------------------------------------------------------------------

def _median_span(per_pass, name):
    values = [agg[name][2] for agg in per_pass if name in agg]
    return statistics.median(values) if values else 0


def run_traced(wl, checker, seconds, spans_path):
    from spans import Tracer

    tracer = Tracer()
    compiles = []
    start = time.perf_counter()
    while (len(compiles) < TRACED_MIN_COMPILES
           or time.perf_counter() - start < TRACED_COMPILE_SECONDS):
        tracer.reset()
        with tracer.installed():
            wl.compile_once()
        compiles.append(tracer.aggregate())
    distinct_conds = wl.distinct_conds(checker)

    start = time.perf_counter()
    eps_plain, eps_traced, passes = [], [], []
    totals = {}
    counts = {"events": 0, "leaves": 0, "visited": 0, "fired": 0,
              "conditions": 0, "blocked": 0, "records": 0, "dropped": 0,
              "bytes": 0}
    while (len(eps_traced) < MIN_CYCLES
           or time.perf_counter() - start < TRACED_RUN_SHARE * seconds):
        rate, speed, _ = wl.run_pass(checker, ticks=False)
        eps_plain.append(rate / speed)
        tracer.reset()
        with tracer.installed():
            rate, speed, report = wl.run_pass(checker, ticks=False)
        eps_traced.append(rate / speed)
        agg = tracer.aggregate()
        passes.append(agg)
        for name, row in agg.items():
            acc = totals.setdefault(name, [0, 0, 0])
            for k in range(3):
                acc[k] += row[k]
        if report is None:
            continue
        counts["events"] += wl.n_events
        counts["leaves"] += tracer.leaves
        counts["visited"] += agg.get("engine.guard", [0, 0])[1]
        counts["fired"] += sum(len(d["matched_rules"])
                               for d in report["events"])
        counts["conditions"] += report["total_conditions"]
        counts["blocked"] += sum(d["blocked"] for d in report["events"])
        counts["records"] = report["log_records"]
        counts["dropped"] = report["diagnostics"]["dropped"]
        counts["bytes"] = tracer.bytes_moved
    tracer.write(spans_path)

    # untraced dispatch latency as read, for the accounting below
    latencies = []
    wl.hook_pass(checker, [], latencies)
    leaf_ns, used = _leaf_costs(wl)

    def self_per_call(name, scale=1000):
        row = totals.get(name)
        return row[0] / row[1] / scale if row and row[1] else 0

    n = max(counts["events"], 1)
    exp = wl.inputs.events
    want_visited = sum(e.visited for e in exp)
    want_fired = sum(len(e.matched) for e in exp)
    passes_ok = counts["events"] // wl.n_events
    for label, got, want in (
            ("conditions", counts["conditions"],
             passes_ok * sum(e.conditions for e in exp)),
            ("rules visited", counts["visited"], passes_ok * want_visited),
            ("rules fired", counts["fired"], passes_ok * want_fired),
            ("blocked events", counts["blocked"],
             passes_ok * sum(e.blocked for e in exp))):
        if got != want:
            checker.fail(f"traced {label}: {got}, expected {want}")
            wl.failed += 1

    def compile_ms(name):
        return statistics.median(c.get(name, [0, 0, 0])[2]
                                 for c in compiles) / 1e6

    m = {}
    m["dsl.tokenize_ms"] = (compile_ms("dsl.tokenize"), "ms")
    m["dsl.parse_ms"] = (compile_ms("dsl.parse"), "ms")
    m["dsl.analyze_ms"] = (compile_ms("dsl.analyze"), "ms")
    m["dsl.lower_ms"] = (compile_ms("dsl.lower"), "ms")
    m["apc.serialize_ms"] = (compile_ms("apc.serialize"), "ms")
    m["apc.load_ms"] = (_median_span(passes, "apc.load") / 1e6, "ms")
    m["apc.distinct_conds"] = (distinct_conds, "count")
    m["engine.validate_ms"] = (compile_ms("engine.validate"), "ms")
    m["engine.dispatch_self_us"] = (self_per_call("engine.dispatch"), "us")
    guard = totals.get("engine.guard", [0])[0]
    m["engine.guard_ns_per_leaf"] = (guard / counts["leaves"]
                                     if counts["leaves"] else 0, "ns")
    m["engine.actions_us"] = (self_per_call("engine.actions"), "us")
    m["engine.conditions_per_event"] = (counts["conditions"] / n, "count")
    m["engine.rules_visited_per_event"] = (counts["visited"] / n, "count")
    m["engine.fire_ratio"] = (counts["fired"] / counts["visited"]
                              if counts["visited"] else 0, "ratio")
    for name in CONDITION_BUILTINS:
        m[f"builtins.leaf_ns.{name}"] = (leaf_ns.get(name, 0), "ns")
    for sc in gen.SYSCALLS:
        m[f"sandbox.exec_us.{sc}"] = (self_per_call(f"sandbox.exec.{sc}"),
                                      "us")
    m["sandbox.bytes_moved"] = (counts["bytes"], "count")
    m["sandbox.manifest_ms"] = (_median_span(passes, "sandbox.manifest")
                                / 1e6, "ms")
    m["sandbox.digest_ms"] = (_median_span(passes, "sandbox.digest") / 1e6,
                              "ms")
    m["logsink.format_us"] = (self_per_call("logsink.format"), "us")
    m["logsink.emit_us.vfs"] = (self_per_call("logsink.emit.vfs"), "us")
    m["logsink.emit_us.file"] = (self_per_call("logsink.emit.file"), "us")
    m["logsink.records"] = (counts["records"], "count")
    m["logsink.dropped"] = (counts["dropped"], "count")
    m["replay.parse_us"] = (self_per_call("replay.parse_line"), "us")
    m["replay.report_ms"] = ((_median_span(passes, "replay.report.to_dict")
                              + _median_span(passes, "replay.report.dumps"))
                             / 1e6, "ms")
    m["cloak.blocked_events"] = (counts["blocked"] // max(passes_ok, 1),
                                 "count")
    m["trace.overhead_events_per_s"] = (statistics.median(eps_plain)
                                        - statistics.median(eps_traced),
                                        "events/s")

    # spans that must have fired on this workload
    seen = set(totals) | {k for c in compiles for k in c}
    need = set(COMMON_SPANS) | set(WORKLOAD_SPANS[wl.inputs.workload])
    need |= {f"sandbox.exec.{json.loads(line)['syscall']}"
             for line in wl.trace_text.splitlines()}
    for name in sorted(need - seen):
        checker.fail(f"span {name} never fired")
        wl.failed += 1
    for name in sorted(used - set(leaf_ns)):
        checker.fail(f"leaf timing for {name} missing")
        wl.failed += 1

    # accounting: the traced dispatch span against its layers' self times
    parts = ["engine.dispatch", "engine.guard", "engine.actions",
             "logsink.format", "logsink.emit.file", "logsink.emit.vfs"]
    parts += [f"sandbox.exec.{sc}" for sc in gen.SYSCALLS]
    per_event = {p: totals.get(p, [0])[0] / n / 1000 for p in parts}
    exec_total = sum(v for p, v in per_event.items()
                     if p.startswith("sandbox.exec."))
    lines = [f"  self time per event inside engine.dispatch (traced, us): "
             + ", ".join(f"{p} {v:.3f}" for p, v in per_event.items()
                         if v and not p.startswith("sandbox.exec."))
             + f", sandbox.exec.* {exec_total:.3f}",
             f"  these sum to the traced dispatch span, "
             f"{sum(per_event.values()):.3f} us/event; untraced dispatch "
             f"mean {statistics.mean(latencies) / 1000:.3f} us/event "
             f"(the gap is the tracer's own cost plus machine noise)",
             f"  tracing overhead: {statistics.median(eps_plain):.6g} untraced"
             f" vs {statistics.median(eps_traced):.6g} traced events/s; "
             f"spans of the last traced pass in {spans_path}"]
    for name, (value, unit) in m.items():
        lines.append(f"  {name:<34} {value:>14.6g} {unit}")
    return m, lines


def _leaves(node):
    stack = [node]
    while stack:
        node = stack.pop()
        if hasattr(node, "builtin_name"):
            yield node
        else:
            stack += [node.left, node.right]


def _leaf_costs(wl) -> "tuple[dict, set]":
    """ns per call of each condition builtin, timed in isolation, and the
    set of reported condition builtins the program uses.

    The leaves are the program's own, bound with builtins.specialize as
    the engine binds them, and each runs on the events of the syscalls
    its rule is bound to, in the world state the replay has reached.
    """
    from apate.builtins import specialize
    from apate.engine import dispatch
    from apate.replay import parse_trace

    prog, sb = wl.world()
    per_syscall = {}
    for sc, chain_name in prog.bindings:
        groups = per_syscall.setdefault(sc, {})
        for rule in prog.chains[chain_name].rules:
            for leaf in _leaves(rule.guard):
                if leaf.builtin_name in CONDITION_BUILTINS:
                    groups.setdefault(leaf.builtin_name, []).append(
                        specialize(leaf.builtin_name, leaf.params))
    events = parse_trace(wl.trace_text)
    stride = max(1, len(events) // LEAF_SAMPLE_EVENTS)
    total, calls = {}, {}
    now = time.perf_counter_ns
    for i, ev in enumerate(events):
        if i % stride == 0:
            for name, fns in per_syscall.get(ev.syscall, {}).items():
                reps = max(1, LEAF_MIN_CALLS // len(fns))
                t0 = now()
                for _ in range(reps):
                    for fn in fns:
                        fn(ev, sb)
                t1 = now()
                total[name] = total.get(name, 0) + t1 - t0
                calls[name] = calls.get(name, 0) + reps * len(fns)
        dispatch(prog, ev, sb)
    for sink in sb.sinks:
        sink.close()
    used = {name for groups in per_syscall.values() for name in groups}
    return {name: total[name] / calls[name] for name in total}, used


# --- entry points --------------------------------------------------------------------

def run_one(name, seed, seconds, traced) -> int:
    os.environ.pop("APATE_LOG_UDP", None)   # no UDP sink: see README.md
    work = WORK / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        wl = Workload(name, seed, work)
        checker = Checker(wl.inputs, wl.trace_text, wl.manifest)
        if traced:
            spans_path = WORK / f"spans-{name}-{seed}.jsonl"
            metrics, lines = run_traced(wl, checker, seconds, spans_path)
        else:
            metrics, lines = run_untraced(wl, checker, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    correct = wl.failed == 0 and not checker.failures
    print(f"workload {name} seed {seed}: {wl.n_events} events per pass, "
          f"{'traced' if traced else 'untraced'}")
    for line in lines:
        print(line)
    print(f"  {'error_rate':<34} {wl.failed / max(wl.attempted, 1):>14.6g} "
          f"fraction   {wl.failed} of {wl.attempted} events failed")
    for message in checker.failures:
        print(f"  CHECK FAILED: {message}")
    print(json.dumps({"correct": correct, "attempted": wl.attempted,
                      "failed": wl.failed,
                      "metrics": {k: {"value": v, "unit": unit}
                                  for k, (v, unit) in metrics.items()}}))
    sys.stdout.flush()
    return 0 if correct else 1


def run_all(seed, seconds, traced) -> int:
    """Run every workload in its own process, one after another."""
    status = 0
    for name in gen.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             name, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(traced)],
            stdout=subprocess.PIPE, text=True, timeout=900)
        out = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(out[:-1]))
        if proc.returncode != 0:
            print(f"  workload {name} FAILED (exit {proc.returncode})")
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=gen.WORKLOADS)
    which.add_argument("--all", action="store_true",
                       help="run every workload and print every metric")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not _load_apate():
        print("perfbench: no apate sources under src/apate next to the "
              "benchmark", file=sys.stderr)
        return 2
    if args.all:
        return run_all(args.seed, args.seconds, args.trace)
    return run_one(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
