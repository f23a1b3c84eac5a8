"""Seeded input generator for the replay benchmark.

For one workload and one seed this writes the three files `apate run`
reads -- the `.apate` source, the VFS manifest and the JSONL trace -- and
returns what a correct replay of them must show.  Every expectation comes
from the generator's own knowledge of the program and the events it
wrote; syscall results are taken from a replay through `exec_syscall`
alone (see run.py), never from the engine.  The same seed gives
byte-identical files.

    python3 perfbench/gen.py --workload honeypot-mix --seed 7 --out DIR
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("guard-heavy", "honeypot-mix", "bulk-copy")
SYSCALLS = ("open", "close", "read", "write", "unlink", "execve", "getpid",
            "getuid", "mkdir", "rmdir", "getdents")
ENOENT = -2

LOG_PATH = "/var/log/apate.log"
MYSQL_DIR = "/var/lib/mysql/"
HONEY_DIR = "/honey/mysql/"

# guard-heavy: the paper's m3 shape with 2,500 distinct leaves.
GH_RULES = 50
GH_LEAVES = 50
GH_EVENTS = 1200
# honeypot-mix: world and trace sizes.  listdir scans the whole tree and
# the VFS log sink rebuilds its file per record, so both costs grow with
# these numbers; they are sized to be a visible share of a pass.
HM_DIRS = 300
HM_FILES = 4000
HM_MYSQL_TABLES = 40
HM_EVENTS = 14000
# bulk-copy: geometric file sizes up to 2 MB from bench.subsample_geometric.
BC_MAX_SIZE = 2_000_000
BC_SIZES = 20
BC_BUFFERS = (4096, 16384, 65536)
BC_ROUNDS = 2

HONEYPOT_SOURCE = """\
define c1,c2,c3 as condition
define r1,r2 as rule
define a1,a2 as action
define cb1 as conditionblock
define rc1 as rulechain
define sy1 as syscall

let c1 be testforpname
let c2 be testforparam
let c3 be testforuid
let a1 be manipulateparam
let a2 be log
let sy1 be sys_open

let cb1 be {(c1("mysql") && c2(0;"/var/lib/mysql/*"))}

let r1 be {cb1->a1(0;"/var/lib/mysql/*";"/honey/mysql/")}
let r2 be {{c3(">",0)}->a2()}
let rc1 be {r2,:r1} // :defines exit

bind rc1 to sy1
"""


@dataclass
class EventExpect:
    """What a correct replay shows for one event.

    ``result`` is fixed only where the program decides it (a blocked
    probe); otherwise the replay through exec_syscall alone gives it.
    ``args`` are the arguments the original syscall must see.
    """

    matched: list
    conditions: int
    visited: int
    args: list
    blocked: bool = False
    result: "int | None" = None


@dataclass
class Inputs:
    workload: str
    source: str
    manifest: str
    trace: str
    run_flags: list          # extra `apate run` flags, {dir} is the work dir
    events: list = field(default_factory=list)   # EventExpect per event
    log_records: int = 0
    compare_digest: bool = True
    hidden: "tuple | None" = None                # (directory, hidden name)
    min_conditions: int = 0                      # lower bound on COND records


class _Trace:
    """Accumulates trace lines, expectations and the next free fd."""

    def __init__(self):
        self.lines = []
        self.expect = []
        self.next_fd = 3

    def add(self, syscall, args, ctx, expect_fn, ok_open=False):
        seq = len(self.lines) + 1
        wire = [{"len": a} if syscall == "write" and i == 1 else a
                for i, a in enumerate(args)]
        self.lines.append(json.dumps(
            {"seq": seq, "syscall": syscall, "args": wire, "ctx": ctx},
            separators=(",", ":")))
        self.expect.append(expect_fn(syscall, list(args), ctx))
        if ok_open:
            fd = self.next_fd
            self.next_fd += 1
            return fd
        return None


def _ctx(pid, uid, pname, parent, ssid=1):
    return {"pid": pid, "uid": uid, "ssid": ssid, "pname": pname,
            "parent_pname": parent}


def _write_inputs(out_dir, workload, source, manifest_lines, trace,
                  **kw) -> Inputs:
    os.makedirs(out_dir, exist_ok=True)
    paths = {}
    for name, text in (("program.apate", source),
                       ("world.manifest", "\n".join(manifest_lines) + "\n"),
                       ("trace.jsonl", "\n".join(trace.lines) + "\n")):
        paths[name] = os.path.join(out_dir, name)
        with open(paths[name], "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    return Inputs(workload=workload, source=paths["program.apate"],
                  manifest=paths["world.manifest"],
                  trace=paths["trace.jsonl"], events=trace.expect, **kw)


# --- guard-heavy -------------------------------------------------------------

def _gh_leaf(rng, kind, k):
    """One leaf of a miss rule; ``k`` is unique, so every leaf is distinct."""
    op = rng.choice(("==", "!=", ">", "<", ">=", "<="))
    if kind == "testforuid":
        return f'testforuid("{op}";{2000 + k})'
    if kind == "ctxfield_cmp":
        fld = rng.choice(("pid", "uid", "ssid"))
        return f'ctxfield_cmp("{fld}";"{op}";{50_000 + k})'
    if kind == "testforparam":
        return f'testforparam(0;"/srv/p{k}/*")'
    if kind == "testforpname":
        return f'testforpname("daemon{k}")'
    return f'testforfdpath(0;"/data/held{k}*")'


def _gh_source(rng) -> str:
    kinds = ("testforuid", "ctxfield_cmp", "testforparam", "testforpname",
             "testforfdpath")
    rules = []
    k = 0
    for i in range(GH_RULES - 1):
        leaves = []
        for _ in range(GH_LEAVES - 1):
            leaves.append(_gh_leaf(rng, rng.choice(kinds), k))
            k += 1
        # uid >= 0 for every task, so this leaf is always false and the
        # rule never fires.
        leaves.insert(rng.randrange(GH_LEAVES), f'testforuid("<";{-1 - i})')
        rules.append(leaves)
    # The last rule holds for every task: uid and ssid are >= 0, pid > 0,
    # and uids stay below 100,000.
    hit = []
    for j in range(10):
        hit += [f'testforuid(">=";{-j})', f'testforuid("<";{100_000 + j})',
                f'ctxfield_cmp("pid";">";{-j})',
                f'ctxfield_cmp("ssid";">=";{-j})',
                f'ctxfield_cmp("uid";"<=";{100_000 + j})']
    rng.shuffle(hit)
    rules.append(hit)

    names = [f"r{i + 1}" for i in range(GH_RULES)]
    out = [f"define {','.join(names)} as rule", "define rc1 as rulechain", ""]
    for name, leaves in zip(names, rules):
        out.append(f"let {name} be {{{{{' && '.join(leaves)}}}->call_orig()}}")
    out.append("let rc1 be {" + ",".join(names[:-1]) + ",:" + names[-1] + "}")
    out.append("")
    out += [f"bind rc1 to sys_{sc}" for sc in SYSCALLS]
    return "\n".join(out) + "\n"


def gen_guard_heavy(seed: int, out_dir: str) -> Inputs:
    rng = random.Random(f"guard-heavy:{seed}")
    source = _gh_source(rng)

    manifest = ["D /tmp", "F /bin/ls 64 7f", "F /bin/cat 64 7f"]
    files = []
    for d in range(4):
        for f in range(8):
            path = f"/data/sub{d}/f{f}.dat"
            manifest.append(f"F {path} {rng.randrange(256, 16384)} "
                            f"{rng.randrange(256):02x}")
            files.append(path)
    dirs = ["/data", "/tmp"] + [f"/data/sub{d}" for d in range(4)]

    def expect(syscall, args, ctx):
        return EventExpect(matched=[GH_RULES - 1],
                           conditions=GH_RULES * GH_LEAVES,
                           visited=GH_RULES, args=args)

    tr = _Trace()
    n = 0
    while len(tr.lines) < GH_EVENTS:
        n += 1
        ctx = _ctx(rng.randrange(100, 30_000), rng.choice((0, 33, 1000, 1001)),
                   rng.choice(("bash", "python3", "ls", "cat", "sh")),
                   rng.choice(("sshd", "bash", "cron", "systemd")),
                   ssid=rng.randrange(1, 50))
        kind = rng.random()
        if kind < 0.40:
            fd = tr.add("open", [rng.choice(files), "r"], ctx, expect, True)
            for _ in range(rng.randrange(1, 4)):
                tr.add("read", [fd, 4096], ctx, expect)
            tr.add("close", [fd], ctx, expect)
        elif kind < 0.65:
            path = f"/tmp/w{n}"
            fd = tr.add("open", [path, "w"], ctx, expect, True)
            for _ in range(rng.randrange(1, 4)):
                tr.add("write", [fd, rng.randrange(1, 8192)], ctx, expect)
            tr.add("close", [fd], ctx, expect)
            tr.add("unlink", [path], ctx, expect)
        elif kind < 0.80:
            tr.add("getdents", [rng.choice(dirs)], ctx, expect)
        elif kind < 0.92:
            tr.add("mkdir", [f"/tmp/d{n}"], ctx, expect)
            tr.add("rmdir", [f"/tmp/d{n}"], ctx, expect)
        else:
            tr.add("execve", [rng.choice(("/bin/ls", "/bin/cat")), "-l"],
                   ctx, expect)
    return _write_inputs(out_dir, "guard-heavy", source, manifest, tr,
                         run_flags=[], min_conditions=GH_RULES * GH_LEAVES)


# --- honeypot-mix -------------------------------------------------------------

def _hm_expect(syscall, args, ctx):
    """Expectation under the README program with the cloak prepended.

    Chain on open: [cloak, r2 (log uid > 0), :r1 (mysql redirect)]; read,
    write, unlink and getdents carry only the one-rule cloak chain; the
    other syscalls are unbound.  Every guard has two leaves.
    """
    if syscall in ("open", "unlink") and args[0] == LOG_PATH:
        return EventExpect(matched=[0], conditions=2, visited=1, args=args,
                           blocked=True, result=ENOENT)
    if syscall == "open":
        matched = []
        if ctx["uid"] > 0:
            matched.append(1)
        if (ctx["parent_pname"] == "mysql"
                and args[0].startswith(MYSQL_DIR)):
            matched.append(2)
            args = [HONEY_DIR + args[0][len(MYSQL_DIR):], args[1]]
        return EventExpect(matched=matched, conditions=6, visited=3, args=args)
    if syscall == "getdents":
        return EventExpect(matched=[0] if args[0] == "/var/log" else [],
                           conditions=2, visited=1, args=args)
    if syscall in ("read", "write", "unlink"):
        return EventExpect(matched=[], conditions=2, visited=1, args=args)
    return EventExpect(matched=[], conditions=0, visited=0, args=args)


def gen_honeypot_mix(seed: int, out_dir: str) -> Inputs:
    rng = random.Random(f"honeypot-mix:{seed}")
    children = {}   # directory -> list of file paths in it

    def put(path, size):
        manifest.append(f"F {path} {size} {rng.randrange(256):02x}")
        children.setdefault(path.rsplit("/", 1)[0], []).append(path)

    manifest = ["D /tmp"]
    dirs = []
    for i in range(HM_DIRS):
        d = f"/srv/s{i % 17}/d{i}"
        manifest.append(f"D {d}")
        dirs.append(d)
    for i in range(HM_FILES):
        put(f"{rng.choice(dirs)}/file{i}.txt", rng.randrange(16, 2048))
    for i in range(20):
        put(f"/etc/conf{i}", rng.randrange(16, 512))
    for name in ("syslog", "auth.log", "kern.log", "dpkg.log"):
        put(f"/var/log/{name}", rng.randrange(512, 4096))
    tables = [f"t{i}.ibd" for i in range(HM_MYSQL_TABLES)]
    for t in tables:
        put(MYSQL_DIR + t, rng.randrange(1024, 8192))
        put(HONEY_DIR + t, rng.randrange(1024, 8192))
    for name in ("/bin/sh", "/bin/ls", "/usr/sbin/mysqld"):
        put(name, 64)
    sweep_dirs = dirs + ["/etc", "/var/log", MYSQL_DIR.rstrip("/")]

    tr = _Trace()
    log_records = 0

    def add(syscall, args, ctx, ok_open=False):
        nonlocal log_records
        if syscall == "open" and ctx["uid"] > 0 and args[0] != LOG_PATH:
            log_records += 1
        return tr.add(syscall, args, ctx, _hm_expect, ok_open)

    def read_all(path, ctx, reads):
        fd = add("open", [path, "r"], ctx, True)
        for _ in range(reads):
            add("read", [fd, 4096], ctx)
        add("close", [fd], ctx)

    n = 0
    while len(tr.lines) < HM_EVENTS:
        n += 1
        pid = rng.randrange(200, 30_000)
        kind = rng.random()
        if kind < 0.45:     # attacker sweep through the hooked layer
            ctx = _ctx(pid, 1001, "find", rng.choice(("sh", "bash")))
            d = rng.choice(sweep_dirs)
            add("getdents", [d], ctx)
            files = children.get(d, [])
            for path in rng.sample(files, min(len(files), rng.randrange(2, 12))):
                read_all(path, ctx, rng.randrange(0, 2))
            if d == "/var/log" and rng.random() < 0.5:
                add("open", [LOG_PATH, "r"], ctx)
        elif kind < 0.50:   # direct probes of the honeypot's own log
            ctx = _ctx(pid, rng.choice((0, 1001)), "sh", "sshd")
            which = rng.choice(("open", "unlink", "getdents"))
            add(which, {"open": [LOG_PATH, "r"], "unlink": [LOG_PATH],
                        "getdents": ["/var/log"]}[which], ctx)
        elif kind < 0.72:   # mysql workers: opens redirected to the decoy
            ctx = _ctx(pid, 27, "mysqld", "mysql")
            read_all(MYSQL_DIR + rng.choice(tables), ctx, 2)
        elif kind < 0.77:   # root backup job reads the real tables
            ctx = _ctx(pid, 0, "tar", "cron")
            read_all(MYSQL_DIR + rng.choice(tables), ctx, 1)
        elif kind < 0.88:   # root admin session
            ctx = _ctx(pid, 0, "bash", "sshd")
            add("getpid", [], ctx)
            add("getuid", [], ctx)
            add("execve", ["/bin/ls", "ls -la"], ctx)
            read_all(f"/etc/conf{rng.randrange(20)}", ctx, 1)
        else:               # user scratch work under /tmp
            ctx = _ctx(pid, 1001, "python3", "bash")
            d = f"/tmp/w{n}"
            add("mkdir", [d], ctx)
            fd = add("open", [d + "/out", "w"], ctx, True)
            add("write", [fd, rng.randrange(1, 4096)], ctx)
            add("write", [fd, rng.randrange(1, 4096)], ctx)
            add("close", [fd], ctx)
            add("getdents", ["/tmp"], ctx)
            add("unlink", [d + "/out"], ctx)
            add("rmdir", [d], ctx)
    return _write_inputs(out_dir, "honeypot-mix", HONEYPOT_SOURCE,
                         manifest, tr, run_flags=["--cloak", LOG_PATH],
                         log_records=log_records, compare_digest=False,
                         hidden=("/var/log", LOG_PATH.rsplit("/", 1)[1]),
                         min_conditions=4)


# --- bulk-copy ------------------------------------------------------------------

BULK_SOURCE = """\
define r1 as rule
define rc1 as rulechain

let r1 be {{always_true()}->call_orig(),log()}
let rc1 be {:r1}

""" + "".join(f"bind rc1 to sys_{sc}\n" for sc in SYSCALLS)


def gen_bulk_copy(seed: int, out_dir: str) -> Inputs:
    from apate.bench import subsample_geometric

    rng = random.Random(f"bulk-copy:{seed}")
    manifest = ["D /out", "F /bin/cp 64 7f"]
    sizes = {}
    for i, size in enumerate(subsample_geometric(BC_MAX_SIZE, BC_SIZES)):
        path = f"/data/src{i}"
        manifest.append(f"F {path} {size} {rng.randrange(256):02x}")
        sizes[path] = size
    # Each buffer size is its base plus an offset in 512-byte steps.  The
    # seed deals a fixed set of offsets out to the files, so it changes
    # which file gets which buffer but not the sizes in play.
    buffers = {}
    n = len(sizes)
    for base in BC_BUFFERS:
        span = base // 4096
        offsets = [base + 512 * (-span + 2 * span * i // (n - 1))
                   for i in range(n)]
        rng.shuffle(offsets)
        buffers.update(((path, base), buf)
                       for path, buf in zip(sizes, offsets))

    def expect(syscall, args, ctx):
        return EventExpect(matched=[0], conditions=2, visited=1, args=args)

    tr = _Trace()
    ctx = _ctx(4242, 1000, "cp", "bash")
    for rnd in range(BC_ROUNDS):
        batch = f"/out/b{rnd}"
        tr.add("mkdir", [batch], ctx, expect)
        jobs = [(p, b) for p in sizes for b in BC_BUFFERS]
        rng.shuffle(jobs)
        for j, (src, base) in enumerate(jobs):
            buf = buffers[src, base]
            dst = f"{batch}/copy{j}"
            tr.add("execve", ["/bin/cp", f"cp {src} {dst}"], ctx, expect)
            tr.add("getpid", [], ctx, expect)
            tr.add("getuid", [], ctx, expect)
            fd_in = tr.add("open", [src, "r"], ctx, expect, True)
            fd_out = tr.add("open", [dst, "w"], ctx, expect, True)
            left = sizes[src]
            while True:
                got = min(buf, left)
                tr.add("read", [fd_in, buf], ctx, expect)
                if got == 0:
                    break
                tr.add("write", [fd_out, got], ctx, expect)
                left -= got
            tr.add("close", [fd_in], ctx, expect)
            tr.add("close", [fd_out], ctx, expect)
            tr.add("getdents", [batch], ctx, expect)
            tr.add("unlink", [dst], ctx, expect)
        tr.add("rmdir", [batch], ctx, expect)
    return _write_inputs(out_dir, "bulk-copy", BULK_SOURCE, manifest, tr,
                         run_flags=["--log-file", "{dir}/records.log"],
                         log_records=len(tr.lines), min_conditions=1)


GENERATORS = {"guard-heavy": gen_guard_heavy,
              "honeypot-mix": gen_honeypot_mix,
              "bulk-copy": gen_bulk_copy}


def generate(workload: str, seed: int, out_dir: str) -> Inputs:
    return GENERATORS[workload](seed, out_dir)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory to write")
    args = parser.parse_args(argv)
    inputs = generate(args.workload, args.seed, args.out)
    print(f"{len(inputs.events)} events -> {inputs.trace}")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    raise SystemExit(main())
