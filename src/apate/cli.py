"""Command-line surface: apate compile | run | bench."""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import apc, bench
from .cloak import apply_cloak, cloak_ruleset
from .engine import validate_program
from .errors import ApateError, SourceError
from .dsl import compile_source
from .logsink import FileSink, UdpSink, VfsSink, parse_udp_addr
from .replay import parse_trace, replay_trace
from .sandbox import SandboxState, vfs_from_manifest


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
    p_bench.add_argument("--max-size", type=int, default=2_000_000)
    p_bench.add_argument("--reps", type=int, default=30)
    p_bench.add_argument("--buffer", type=int, default=bench.DEFAULT_BUFFER)
    p_bench.add_argument("--sizes", type=int, default=40,
                         help="number of geometrically subsampled sizes")
    p_bench.add_argument("--out", required=True, help="per-rep CSV path")
    p_bench.add_argument("--summary", help="per-(setting,size) stats CSV path")
    return parser


def cmd_compile(args) -> int:
    try:
        with open(args.source, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"apate: cannot read {args.source}: {exc}", file=sys.stderr)
        return 2
    try:
        prog, warnings = compile_source(text, filename=args.source)
        validate_program(prog)
    except SourceError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except ApateError as exc:
        print(f"{args.source}: {exc}", file=sys.stderr)
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


def cmd_run(args) -> int:
    try:
        with open(args.program, "rb") as fh:
            prog = apc.deserialize(fh.read())
        validate_program(prog)
    except (OSError, ApateError) as exc:
        print(f"apate: cannot load program: {exc}", file=sys.stderr)
        return 1

    sandbox = SandboxState()
    if args.fs:
        try:
            with open(args.fs, "rb") as fh:
                sandbox.vfs = vfs_from_manifest(fh.read())
        except (OSError, ApateError) as exc:
            print(f"apate: bad manifest: {exc}", file=sys.stderr)
            return 1

    sinks = []
    try:
        if args.log_file:
            sinks.append(FileSink(args.log_file))
        if args.log_udp:
            host, port = parse_udp_addr(args.log_udp)
            sinks.append(UdpSink(host, port))
        if args.cloak:
            sinks.append(VfsSink(sandbox.vfs, args.cloak))
            prog = apply_cloak(prog, cloak_ruleset(args.cloak))
    except (OSError, ValueError) as exc:
        print(f"apate: bad sink: {exc}", file=sys.stderr)
        return 1
    sandbox.sinks = sinks

    try:
        if args.trace == "-":
            text = sys.stdin.read()
        else:
            with open(args.trace, encoding="utf-8") as fh:
                text = fh.read()
        events = parse_trace(text)
    except (OSError, ApateError) as exc:
        print(f"apate: bad trace: {exc}", file=sys.stderr)
        return 1

    report = replay_trace(prog, events, sandbox)
    for sink in sinks:
        sink.close()
    payload = json.dumps(report.to_dict())  # compact: the C encoder
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
    else:
        print(payload)
    return 0


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
