"""Command-line surface: apate compile | run | bench."""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from pathlib import Path

from . import apc, bench
from .cloak import apply_cloak, cloak_ruleset
from .engine import validate_program
from .errors import ApateError, SourceError, TraceError
from .dsl import compile_source, decode_source
from .logsink import FileSink, UdpSink, VfsSink, parse_udp_addr
from .replay import iter_trace, replay_trace
from .sandbox import SandboxState, vfs_from_manifest

REPORT_BATCH = 1024  # dispositions held, then written in one out.write

# json.dumps's own C encoder for one value, with json.dumps's defaults
# less the cycle check (an args list from a trace has no cycles).  Bound
# here, once: a traced run swaps ``json`` in this module for a stand-in.
_encode_args = json.encoder.c_make_encoder(
    None, json.JSONEncoder().default, json.encoder.encode_basestring_ascii,
    None, ": ", ", ", False, False, True)


def _int_in(low: int, high: "int | None" = None):
    """An argparse type: an int in low..high (no bound if None)."""
    def parse(text: str) -> int:
        if (value := int(text)) < low or high is not None and value > high:
            bound = f"in {low}..{high:,}" if high else f"at least {low}"
            raise argparse.ArgumentTypeError(f"must be {bound}")
        return value
    parse.__name__ = "int"   # argparse's "invalid int value" names it
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="apate",
                                     description="honeypot rule system: "
                                     "compiler, replay sandbox, benchmarks")
    sub = parser.add_subparsers(dest="command", required=True)

    p_compile = sub.add_parser("compile", help="compile .apate source to .apc")
    p_compile.add_argument("source")
    p_compile.add_argument("-o", "--output", required=True)

    p_run = sub.add_parser("run", help="replay a trace through a program")
    p_run.add_argument("--program", required=True)
    p_run.add_argument("--trace", required=True,
                       help="trace file path, or '-' for stdin")
    p_run.add_argument("--fs", help="VFS manifest file")
    p_run.add_argument("--log-file", help="append log records to this file")
    p_run.add_argument("--log-udp",
                       default=os.environ.get("APATE_LOG_UDP"),
                       help="host:port UDP log sink "
                       "(env APATE_LOG_UDP as fallback)")
    p_run.add_argument("--cloak", metavar="LOGPATH",
                       help="log into the sandbox VFS at LOGPATH and "
                       "prepend the cloaking ruleset")
    p_run.add_argument("--report", help="write the report, one JSON "
                       "object on one line, here (default stdout)")

    p_bench = sub.add_parser("bench", help="run the m1-m4 copy benchmark")
    p_bench.add_argument("--setting", default="all",
                         choices=list(bench.SETTING_IDS) + ["all"])
    # --max-size: the sizes gen_sizes takes; --reps: stats needs two samples
    p_bench.add_argument("--max-size", type=_int_in(1, 1_000_000_000),
                         default=2_000_000)
    p_bench.add_argument("--reps", type=_int_in(2), default=30)
    p_bench.add_argument("--buffer", type=_int_in(1),
                         default=bench.DEFAULT_BUFFER)
    p_bench.add_argument("--sizes", type=_int_in(1), default=40,
                         help="number of geometrically subsampled sizes")
    p_bench.add_argument("--out", required=True, help="per-rep CSV path")
    p_bench.add_argument("--summary", help="per-(setting,size) stats CSV path")
    return parser


def cmd_compile(args) -> int:
    try:
        with open(args.source, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        print(f"apate: cannot read {args.source}: {exc}", file=sys.stderr)
        return 2
    try:
        prog, warnings = compile_source(decode_source(data, args.source),
                                        filename=args.source)
    except SourceError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    try:
        with open(args.output, "wb") as fh:
            fh.write(apc.serialize(prog))
    except OSError as exc:
        print(f"apate: cannot write {args.output}: {exc}", file=sys.stderr)
        return 2
    return 0


def open_world(program, fs=None, cloak=None, log_file=None, log_udp=None):
    """The bound program and the sandbox of ``apate run``, in its order:
    load the .apc ``program``, cloak it for the log path ``cloak``, bind,
    read the manifest ``fs``, then open the sinks (``log_file``,
    ``log_udp``, the VFS log at ``cloak``).  A failing step raises one
    ApateError named for it (``cannot load program``, ``bad manifest``,
    ``bad sink``) and leaves no sink open."""
    step = "cannot load program"
    sandbox = SandboxState()
    try:
        prog = apc.deserialize(Path(program).read_bytes())
        if cloak:
            prog = apply_cloak(prog, cloak_ruleset(cloak))
        validate_program(prog)
        step = "bad manifest"
        if fs:
            sandbox.vfs = vfs_from_manifest(Path(fs).read_bytes())
        step = "bad sink"
        if log_file:
            sandbox.sinks.append(FileSink(log_file))
        if log_udp:
            sandbox.sinks.append(UdpSink(*parse_udp_addr(log_udp)))
        if cloak:
            sandbox.sinks.append(VfsSink(sandbox.vfs, cloak))
    except (OSError, ValueError, ApateError) as exc:
        _close_sinks(sandbox.sinks)
        raise ApateError(f"{step}: {exc}") from exc
    return prog, sandbox


def cmd_run(args) -> int:
    sinks = []
    try:
        prog, sandbox = open_world(args.program, args.fs, args.cloak,
                                   args.log_file, args.log_udp)
        sinks = sandbox.sinks
        with _open_trace(args.trace) as fh, _report_out(args.report) as out:
            stream = _ReportStream(out)
            report = replay_trace(prog, iter_trace(fh), sandbox, stream.emit)
            _close_sinks(sinks)
            stream.finish(report)
    except (OSError, ApateError) as exc:
        where = "bad trace: " if isinstance(exc, TraceError) else ""
        print(f"apate: {where}{exc}", file=sys.stderr)
        return 1
    finally:
        _close_sinks(sinks)
    return 0


def _open_trace(path):
    """The trace file at ``path``, or stdin's bytes for ``-``."""
    try:
        return (contextlib.nullcontext(sys.stdin.buffer) if path == "-"
                else open(path, "rb"))
    except OSError as exc:
        raise ApateError(f"bad trace: {exc}") from None


def _close_sinks(sinks) -> None:
    """Close each sink in ``sinks`` once, emptying the list."""
    while sinks:
        sinks.pop(0).close()


@contextlib.contextmanager
def _report_out(path):
    """Where the report goes: stdout, or a temporary file beside ``path``
    that replaces ``path`` only if the block ends without an error."""
    if not path:
        yield sys.stdout
        return
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        fh = open(tmp, "x", encoding="utf-8")
    except OSError as exc:   # name the report, not its temporary file
        exc.filename = path
        raise
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def _entry(d) -> str:
    """One ``events[]`` entry: the bytes ``json.dumps`` gives for the
    disposition's seven report keys.  ``seq``, ``result`` and
    ``conditions`` are exact ints, ``matched_rules`` a list of ints (its
    repr is its JSON) and ``syscall`` a SYSCALL_TABLE name, so only
    ``args``, any JSON value from the trace, needs the encoder."""
    return (f'{{"seq": {d.seq}, "syscall": "{d.syscall}", '
            f'"matched_rules": {d.matched_rules!r}, "result": {d.result}, '
            f'"blocked": {"true" if d.blocked else "false"}, '
            f'"args": {"".join(_encode_args(d.manipulated_args, 0))}, '
            f'"conditions": {d.conditions_evaluated}}}')


class _ReportStream:
    """Writes the report while the replay runs, holding at most
    REPORT_BATCH dispositions.

    The bytes are those of ``json.dumps`` of the whole report dict:
    ``{"events": [``, each entry as ``_entry`` writes it (joined by
    ``", "``), then ``"], "`` and the other keys.
    """

    def __init__(self, out):
        self.out = out
        self.batch = []
        self.sep = ""
        out.write('{"events": [')

    def emit(self, disp) -> None:
        batch = self.batch
        batch.append(disp)
        if len(batch) == REPORT_BATCH:
            self.flush()

    def flush(self) -> None:
        if self.batch:
            self.out.write(self.sep + ", ".join(map(_entry, self.batch)))
            self.sep = ", "
            self.batch.clear()

    def finish(self, report) -> None:
        self.flush()
        self.out.write("], " + json.dumps(report.to_dict())[1:] + "\n")


def cmd_bench(args) -> int:
    ids = bench.SETTING_IDS if args.setting == "all" else (args.setting,)
    settings = [bench.make_setting(i) for i in ids]
    sizes = bench.subsample_geometric(args.max_size, args.sizes)
    rows, summaries = bench.run_suite(settings, sizes, reps=args.reps,
                                      buffer=args.buffer, out_path=args.out,
                                      summary_path=args.summary)
    print(f"wrote {len(rows)} measurements over {len(sizes)} sizes "
          f"to {args.out}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "compile":
        return cmd_compile(args)
    if args.command == "run":
        return cmd_run(args)
    return cmd_bench(args)


if __name__ == "__main__":
    sys.exit(main())
