"""Performance protocol: settings m1-m4, file-size schedule, copy workload.

m1 issues raw sandbox syscalls (no interception, the reference).  m2
adds one always-true rule whose actions call the original syscall and
log it.  m3 runs 50 rules of 50 AND-combined conditions each (2,500
condition evaluations per hooked syscall; only rule 50 fires) and calls
the original syscall.  m4 is m3 plus logging.  m2-m4 are .apate text
(``_source``) compiled by ``dsl.compile_source`` as ``apate run``'s
programs are, so each rule's span is ``<mN>:line``.

The full-scale sweep (sizes up to 1 GB, 100 reps) is hours long; the
desk-scale defaults subsample the schedule geometrically and cap the
size at 2 MB.  Overhead orderings, not absolute runtimes, are the
reproducible quantity.
"""

from __future__ import annotations

import csv
import gc
import random
import statistics
import time
from dataclasses import dataclass

from .dsl import compile_source
from .engine import dispatch, validate_program
from .errors import TooFewSamples
from .logsink import DiscardSink
from .model import EMPTY_PROGRAM, RuleProgram, SYSCALLS, TaskContext
from .replay import EventSource
from .sandbox import SandboxState, exec_syscall

DEFAULT_BUFFER = 65_536
RULES_PER_SETTING = 50
CONDITIONS_PER_RULE = 50
SETTING_IDS = ("m1", "m2", "m3", "m4")

@dataclass
class BenchSetting:
    id: str
    program: RuleProgram
    intercept: bool


def gen_sizes(max_size: int) -> list:
    """File-size schedule: +1 below 1e6, +1,000 below 1e8, +1e6 to 1e9."""
    if not (0 < max_size <= 1_000_000_000):
        raise ValueError("max size must be in 1..1e9")
    sizes = [1]
    while True:
        cur = sizes[-1]
        if cur < 1_000_000:
            nxt = cur + 1
        elif cur < 100_000_000:
            nxt = cur + 1_000
        else:
            nxt = cur + 1_000_000
        if nxt > max_size:
            return sizes
        sizes.append(nxt)


def subsample_geometric(max_size: int, count: int = 40) -> list:
    """Roughly geometrically spaced sizes from 1 to max_size, deduped."""
    if count < 2:
        return [max_size]
    picks = set()
    for i in range(count):
        picks.add(max(1, round(max_size ** (i / (count - 1)))))
    return sorted(picks)


def _source(setting_id: str) -> str:
    """m2, m3 or m4 as .apate text, its chain bound to each of SYSCALLS.
    Rules 0-48 of m3 and m4 share the guard ``miss``, whose last leaf is
    false; only the last rule's guard, ``hit``, holds."""
    chain = f"{setting_id}_chain"
    actions = "call_orig()" if setting_id == "m3" else "call_orig(),log()"
    if setting_id == "m2":
        lines, guards = [], ["{always_true()}"]
    else:
        leaf = 'testforuid(">=";0)'
        miss = " && ".join([leaf] * (CONDITIONS_PER_RULE - 1)
                           + ['testforuid("<";0)'])
        hit = " && ".join([leaf] * CONDITIONS_PER_RULE)
        lines = ["define miss,hit as conditionblock",
                 f"let miss be {{{miss}}}", f"let hit be {{{hit}}}"]
        guards = ["miss"] * (RULES_PER_SETTING - 1) + ["hit"]
    names = [f"{setting_id}_r{i}" for i in range(len(guards))]
    items = ",".join(names[:-1] + [":" + names[-1]])  # ':' marks the exit
    lines += [f"define {','.join(names)} as rule",
              f"define {chain} as rulechain",
              *(f"let {name} be {{{guard}->{actions}}}"
                for name, guard in zip(names, guards)),
              f"let {chain} be {{{items}}}",
              *(f"bind {chain} to {sc}" for sc in SYSCALLS)]
    return "\n".join(lines) + "\n"


def make_setting(setting_id: str) -> BenchSetting:
    if setting_id == "m1":
        return BenchSetting("m1", EMPTY_PROGRAM, intercept=False)
    if setting_id not in SETTING_IDS:
        raise ValueError(f"unknown setting {setting_id!r}")
    prog = compile_source(_source(setting_id), f"<{setting_id}>")[0]
    return BenchSetting(setting_id, prog, intercept=True)


_BENCH_CTX = TaskContext(pid=100, uid=1000, ssid=1, pname="cp",
                         parent_pname="bash")


def run_copy(size: int, setting: BenchSetting, buffer: int = DEFAULT_BUFFER,
             source: "bytes | None" = None):
    """One copy repetition: src is generated and an unbound program is
    bound outside the timed region, then open/open, read/write loop,
    close/close, unlink dst are timed.

    Returns (runtime_sec, syscall_count, condition_count).
    """
    sandbox = SandboxState()
    sandbox.sinks = [DiscardSink()]
    sandbox.vfs.mkdirs("/bench")
    sandbox.vfs.put_file("/bench/src", source if source is not None
                         else b"\x00" * size)
    events = EventSource(_BENCH_CTX)
    prog = setting.program
    intercept = setting.intercept
    if intercept and prog.scans is None:
        validate_program(prog)
    syscalls = 0
    conditions = 0

    def issue(name, *args):
        nonlocal syscalls, conditions
        syscalls += 1
        ev = events.event(name, *args)
        if intercept:
            disp = dispatch(prog, ev, sandbox)
            conditions += disp.conditions_evaluated
            return disp.result
        return exec_syscall(sandbox, ev)

    # GC pauses inside a millisecond-scale timed region would swamp the
    # sub-percent differences between settings (same policy as timeit).
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        fd_src = issue("open", "/bench/src", "r")
        fd_dst = issue("open", "/bench/dst", "w")
        while True:
            n = issue("read", fd_src, buffer)
            if n <= 0:
                break
            issue("write", fd_dst, n)
        issue("close", fd_src)
        issue("close", fd_dst)
        issue("unlink", "/bench/dst")
        runtime = time.perf_counter() - start
    finally:
        if gc_was_enabled:
            gc.enable()
    return runtime, syscalls, conditions


@dataclass
class SampleStats:
    n: int
    sd: float
    var: float
    iqr: float
    median: float


def stats(samples) -> SampleStats:
    """Sample sd (n-1 denominator), var = sd^2, linear-interpolation
    (type-7) quartiles for the iqr, and the median."""
    samples = list(samples)
    if len(samples) < 2:
        raise TooFewSamples("need at least 2 samples")
    sd = statistics.stdev(samples)
    q1, _, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return SampleStats(n=len(samples), sd=sd, var=sd * sd, iqr=q3 - q1,
                       median=statistics.median(samples))


def run_suite(settings, sizes, reps: int = 100, buffer: int = DEFAULT_BUFFER,
              out_path=None, summary_path=None):
    """Run every (setting, size, rep) cell; returns (rows, summaries).

    Settings are interleaved within each repetition so slow clock and
    thermal drift hits all settings equally instead of biasing whichever
    setting happened to run last, and the order is shuffled per
    repetition so periodic system activity cannot phase-lock onto one
    setting's slot in the cycle.
    """
    rows = []
    summaries = []
    order_rng = random.Random(0)
    for size in sizes:
        source = b"\x00" * size
        runtimes = {s.id: [] for s in settings}
        for rep in range(reps):
            shuffled = list(settings)
            order_rng.shuffle(shuffled)
            for setting in shuffled:
                runtime, syscalls, conditions = run_copy(
                    size, setting, buffer=buffer, source=source)
                runtimes[setting.id].append(runtime)
                rows.append({"setting": setting.id, "size": size, "rep": rep,
                             "runtime_sec": runtime, "syscalls": syscalls,
                             "conditions": conditions})
        for setting in settings:
            st = stats(runtimes[setting.id])
            summaries.append({"setting": setting.id, "size": size, "n": st.n,
                              "median": st.median, "sd": st.sd, "var": st.var,
                              "iqr": st.iqr})
    if out_path:
        _write_csv(out_path, rows,
                   ["setting", "size", "rep", "runtime_sec", "syscalls",
                    "conditions"])
    if summary_path:
        _write_csv(summary_path, summaries,
                   ["setting", "size", "n", "median", "sd", "var", "iqr"])
    return rows, summaries


def _write_csv(path, rows, fieldnames):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)
