"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criterion 7c (pure-rule overhead below logging overhead) is asserted
faithfully and is expected to fail on an interpreted runtime: evaluating
2,500 conditions per syscall costs orders of magnitude more than
formatting one log record.  See the decisions ledger for the analysis.
"""

import random
import time

import pytest

from apate import apc
from apate.bench import (make_setting, run_copy, run_suite,
                         subsample_geometric)
from apate.cloak import apply_cloak, cloak_ruleset
from apate.dsl import compile_source, parse, pretty_print, tokenize, SourceUnit
from apate.engine import DEFAULT_JUMP_BUDGET, dispatch
from apate.logsink import VfsSink
from apate.model import (ALWAYS_TRUE, Action, ActionChain, Condition,
                         ConditionBlock, OP_AND, OP_OR, Rule, RuleChain,
                         RuleProgram, SYSCALLS, TaskContext)
from apate.replay import EventSource
from apate.sandbox import SandboxState, errno_default

from conftest import (MYSQL_EXAMPLE, TRUE_LEAF, FALSE_LEAF, MemorySink,
                      dispatch_chain, holds, make_ctx, make_event,
                      read_file, scan_for_substring)


def announce(capsys, criterion, ok, detail=""):
    with capsys.disabled():
        status = "PASS" if ok else "FAIL"
        print(f"[acceptance {criterion}] {status} {detail}".rstrip())


# --- 1: condition-block truth table ----------------------------------------

def test_criterion_01_truth_table(capsys, sandbox):
    leaves = {0: FALSE_LEAF, 1: TRUE_LEAF}
    ev = make_event("getpid")
    mismatches = []
    for d in (0, 1):
        for e in (0, 1):
            for f, py in ((OP_AND, lambda a, b: a and b),
                          (OP_OR, lambda a, b: a or b)):
                block = ConditionBlock(leaves[d], leaves[e], f)
                got = holds(block, ev, sandbox)
                formula = 1 if (d + e) * f >= 4 else 0
                boolean = 1 if py(d, e) else 0
                if not (got == formula == boolean):
                    mismatches.append((d, e, f, got))
    ok = not mismatches
    announce(capsys, 1, ok, f"8/8 truth-table cases, mismatches={mismatches}")
    assert ok


# --- 2: neutral-condition embedding ----------------------------------------

def random_block(rng, depth=0):
    if depth >= 3 or rng.random() < 0.4:
        op = rng.choice(("<", "<=", "==", ">=", ">", "!="))
        return Condition("testforuid", (op, rng.randint(0, 5)))
    return ConditionBlock(random_block(rng, depth + 1),
                          random_block(rng, depth + 1),
                          rng.choice((OP_AND, OP_OR)))


def test_criterion_02_neutralization(capsys, sandbox):
    rng = random.Random(2024)
    mismatches = 0
    for _ in range(1000):
        x = random_block(rng)
        if isinstance(x, Condition):
            x = ConditionBlock(x, random_block(rng), OP_OR)
        ev = make_event("getpid", ctx=make_ctx(uid=rng.randint(0, 5)))
        embedded = ConditionBlock(x, ALWAYS_TRUE, OP_AND)
        if holds(x, ev, sandbox) != \
                holds(embedded, ev, sandbox):
            mismatches += 1
    ok = mismatches == 0
    announce(capsys, 2, ok, f"1000 random blocks, mismatches={mismatches}")
    assert ok


# --- 3: worked example end-to-end -------------------------------------------

def test_criterion_03_worked_example(capsys):
    start = time.perf_counter()
    prog, warnings = compile_source(MYSQL_EXAMPLE, "example.apate")

    def fresh_sandbox():
        sb = SandboxState()
        sb.vfs.put_file("/var/lib/mysql/ibdata1", b"realdata")
        sb.vfs.mkdirs("/honey/mysql")
        sb.sinks = [MemorySink()]
        return sb

    # uid=1000 event: redirected create plus exactly one log record
    sb = fresh_sandbox()
    source_digest = sb.vfs.digest()
    ctx = make_ctx(uid=1000, parent_pname="mysql")
    ev = make_event("open", "/var/lib/mysql/ibdata1", "w", ctx=ctx)
    disp = dispatch(prog, ev, sb)
    honey_created = "/honey/mysql/ibdata1" in sb.vfs.files
    source_intact = (read_file(sb.vfs, "/var/lib/mysql/ibdata1") == b"realdata")
    logs_uid1000 = sb.log_count

    # identical event from uid=0: no log record, same redirect
    sb0 = fresh_sandbox()
    ev0 = make_event("open", "/var/lib/mysql/ibdata1", "w",
                     ctx=make_ctx(uid=0, parent_pname="mysql"))
    dispatch(prog, ev0, sb0)
    logs_uid0 = sb0.log_count

    elapsed = time.perf_counter() - start
    ok = (warnings == [] and disp.result >= 3 and honey_created
          and source_intact and logs_uid1000 == 1 and logs_uid0 == 0
          and elapsed < 1.0)
    announce(capsys, 3, ok,
             f"honey={honey_created} intact={source_intact} "
             f"logs(uid1000)={logs_uid1000} logs(uid0)={logs_uid0} "
             f"runtime={elapsed:.3f}s")
    assert warnings == []
    assert disp.result >= 3
    assert honey_created
    assert source_intact
    assert disp.manipulated_args[0] == "/honey/mysql/ibdata1"
    assert logs_uid1000 == 1 and logs_uid0 == 0
    assert elapsed < 1.0


# --- 4: exit-flag semantics ---------------------------------------------------

def test_criterion_04_exit_flag_property(capsys):
    rng = random.Random(44)
    violations = 0
    cases = 10_000
    for case in range(cases):
        n = rng.randint(1, 8)
        truths = [rng.random() < 0.5 for _ in range(n)]
        exits = [rng.random() < 0.5 for _ in range(n)]

        def build(count):
            rules = []
            for i in range(count):
                guard = ConditionBlock(TRUE_LEAF if truths[i] else FALSE_LEAF,
                                       TRUE_LEAF, OP_AND)
                actions = ActionChain((Action("store_add", (f"r{i}", 1)),))
                rules.append(Rule(f"r{i}", guard, actions,
                                  1 if exits[i] else 0))
            return RuleChain("c", tuple(rules))

        sb = SandboxState()
        ev = make_event("getpid", seq=case)
        dispatch_chain(build(n), ev, sb)
        fired = [i for i in range(n) if sb.store.get(f"r{i}") == 1]

        # reference: first-to-last; stop after a fired rule with exit=1
        expected = []
        for i in range(n):
            if truths[i]:
                expected.append(i)
                if exits[i]:
                    break
        if fired != expected:
            violations += 1
            continue

        # append-after-exit invariance: when traversal exited early, rules
        # appended after the chain must never execute
        extra = rng.randint(1, 3)
        truths.extend([True] * extra)
        exits.extend([rng.random() < 0.5 for _ in range(extra)])
        sb2 = SandboxState()
        dispatch_chain(build(n + extra), make_event("getpid", seq=case), sb2)
        fired2 = [i for i in range(n + extra) if sb2.store.get(f"r{i}") == 1]
        exited = bool(expected) and exits[expected[-1]]
        if exited and fired2 != expected:
            violations += 1
    ok = violations == 0
    announce(capsys, 4, ok, f"{cases} random chains, violations={violations}")
    assert ok


# --- 5: action-chain disruption -----------------------------------------------

SAMPLE_ARGS = {
    "open": ["/x", "r"], "close": [3], "read": [3, 10], "write": [3, 10],
    "unlink": ["/x"], "execve": ["/x", "argv"], "getpid": [], "getuid": [],
    "mkdir": ["/x"], "rmdir": ["/x"], "getdents": ["/"],
}


def test_criterion_05_disruption(capsys):
    failing = Action("manipulateparam", (7, "/never", "/never"))
    bad = []
    for syscall in SYSCALLS:
        for k in range(1, 6):
            pre = tuple(Action("store_add", ("pre", 1)) for _ in range(k))
            post = (Action("store_add", ("post", 1)),
                    Action("store_add", ("post", 1)))
            chain = RuleChain("c", (Rule(
                "r0", ConditionBlock(ALWAYS_TRUE, ALWAYS_TRUE, OP_AND),
                ActionChain(pre + (failing,) + post), 1),))
            sb = SandboxState()
            ev = make_event(syscall, *SAMPLE_ARGS[syscall])
            disp = dispatch_chain(chain, ev, sb)
            expected_errno = errno_default(ev)
            if not (sb.store.get("pre") == k and sb.store.get("post") == 0
                    and disp.result == expected_errno and disp.blocked):
                bad.append((syscall, k, disp.result, sb.store.get("post")))
    ok = not bad
    announce(capsys, 5, ok, f"55 (syscall, k) cells, failures={bad}")
    assert ok


# --- 6: condition-count law ----------------------------------------------------

def test_criterion_06_condition_count(capsys):
    m3 = make_setting("m3")
    sb = SandboxState()
    sb.vfs.put_file("/f", b"x")
    per_call = dispatch(m3.program, make_event("open", "/f", "r"),
                        sb).conditions_evaluated
    _, syscalls, conditions = run_copy(100_000, m3)
    symbolic = 2_500 * 32_720
    ok = (per_call == 2_500 and syscalls == 10 and conditions == 25_000
          and symbolic == 81_800_000)
    announce(capsys, 6, ok,
             f"per-syscall={per_call} copy={syscalls} syscalls/"
             f"{conditions} conditions, 2500*32720={symbolic}")
    assert per_call == 2_500
    assert (syscalls, conditions) == (10, 25_000)
    assert symbolic == 81_800_000


# --- 7: benchmark ordering at desk scale ----------------------------------------

@pytest.fixture(scope="module")
def bench_medians():
    sizes = subsample_geometric(2_000_000, 40)
    settings = [make_setting(i) for i in ("m1", "m2", "m3", "m4")]
    start = time.perf_counter()
    _, summaries = run_suite(settings, sizes, reps=100)
    elapsed = time.perf_counter() - start
    medians = {}
    for s in summaries:
        medians.setdefault(s["setting"], {})[s["size"]] = s["median"]
    return medians, sizes, elapsed


def _fraction(sizes, pred):
    good = sum(1 for size in sizes if pred(size))
    return good / len(sizes)


def test_criterion_07a_interception_overhead(capsys, bench_medians):
    med, sizes, elapsed = bench_medians
    frac = _fraction(sizes, lambda s: med["m2"][s] > med["m1"][s])
    ok = frac >= 0.95 and elapsed < 300
    announce(capsys, "7a", ok,
             f"median(m2)>median(m1) at {frac:.0%} of sizes "
             f"(suite {elapsed:.1f}s)")
    assert elapsed < 300
    assert frac >= 0.95


def test_criterion_07b_rule_cost_ordering(capsys, bench_medians):
    med, sizes, _ = bench_medians
    frac_m3 = _fraction(sizes, lambda s: med["m3"][s] > med["m1"][s])
    frac_m4 = _fraction(sizes, lambda s: med["m4"][s] >= med["m3"][s])
    ok = frac_m3 >= 0.95 and frac_m4 >= 0.95
    announce(capsys, "7b", ok,
             f"median(m3)>median(m1) at {frac_m3:.0%}, "
             f"median(m4)>=median(m3) at {frac_m4:.0%} of sizes")
    assert frac_m3 >= 0.95
    assert frac_m4 >= 0.95


def test_criterion_07c_rule_vs_logging_overhead(capsys, bench_medians):
    """Expected honest failure on an interpreted runtime.

    The criterion requires (m3 - m1) < (m2 - m1): 2,500 interpreted
    condition evaluations per syscall would have to cost less than one
    log-record format-and-emit.  A condition here is one leaf expression
    in a generated Python guard function (about 10-11 ns), so m3's
    per-syscall overhead is about 26-27 us while m2's logging overhead
    is about 3.7-4.0 us (m2 - m1 and m3 - m1 per syscall, copying a 2 MB
    file; medians of this fixture's 100 reps, over 10 runs on a 2-vCPU
    VM, in BENCH_paper_gates.json).  The inequality reflects the
    original in-kernel implementation, where a condition is a handful of
    machine instructions; it is not attainable in this medium.  Measured
    numbers are printed for the ledger.
    """
    med, sizes, _ = bench_medians
    frac = _fraction(
        sizes, lambda s: (med["m3"][s] - med["m1"][s])
        < (med["m2"][s] - med["m1"][s]))
    ok = frac >= 0.95
    announce(capsys, "7c", ok,
             f"(m3-m1)<(m2-m1) at {frac:.0%} of sizes "
             f"(expected honest failure: interpreted condition evaluation "
             f"dominates logging)")
    assert frac >= 0.95, (
        f"(m3-m1)<(m2-m1) holds at only {frac:.0%} of sizes; 2,500 "
        f"interpreted condition evaluations cannot undercut one log "
        f"record. Honest failure; see the decisions ledger.")


# --- 8: cloaking under a grep-like sweep -----------------------------------------

def _logging_program():
    guard = ConditionBlock(ALWAYS_TRUE, ALWAYS_TRUE, OP_AND)
    rule = Rule("log_all", guard,
                ActionChain((Action("call_orig"), Action("log"))), 1)
    chain = RuleChain("log_chain", (rule,))
    return RuleProgram(chains={"log_chain": chain},
                       bindings=[(sc, "log_chain")
                                 for sc in ("open", "read", "close",
                                            "getdents")])


def _populated_sandbox(log_path):
    sb = SandboxState()
    for d in range(4):
        for f in range(5):
            sb.vfs.put_file(f"/srv/d{d}/file{f}", b"benign payload %d" % f)
    sb.vfs.put_file("/etc/hostname", b"decoy")
    sb.sinks = [VfsSink(sb.vfs, log_path)]
    return sb


def test_criterion_08_cloaking(capsys):
    log_path = "/var/log/apate.log"
    user = _logging_program()
    cloaked = apply_cloak(user, cloak_ruleset(log_path))
    sb = _populated_sandbox(log_path)
    ctx = make_ctx(uid=1000)

    # generate traffic so the log accumulates well past 100 records
    src = EventSource(ctx)
    for _ in range(3):
        for d in range(4):
            dispatch(cloaked, src.event("getdents", f"/srv/d{d}"), sb)
            for f in range(5):
                fd = dispatch(cloaked,
                              src.event("open", f"/srv/d{d}/file{f}", "r"),
                              sb).result
                dispatch(cloaked, src.event("read", fd, 4096), sb)
                dispatch(cloaked, src.event("close", fd), sb)

    records_before_scan = sb.log_count
    found = scan_for_substring(cloaked, sb, b"apate", ctx)

    # control: the same world scanned without the cloak sees the log.
    # (The control must not log into the VFS itself: reading the log file
    # while appending one record per read never reaches end-of-file.)
    sb_ctl = _populated_sandbox(log_path)
    sb_ctl.sinks = [MemorySink()]
    sb_ctl.vfs.put_file(log_path, read_file(sb.vfs, log_path))
    control = scan_for_substring(user, sb_ctl, b"apate", ctx)

    ok = (found["hits"] == [] and records_before_scan >= 100
          and log_path in control["hits"])
    announce(capsys, 8, ok,
             f"hits={found['hits']} records={records_before_scan} "
             f"(uncloaked control finds {control['hits']})")
    assert records_before_scan >= 100
    assert found["hits"] == []
    assert log_path in control["hits"]


# --- 9: compiler round-trip and determinism --------------------------------------

CONDITION_POOL = [
    'testforuid(">";{k})', 'testforuid("<=";{k})', 'always_true()',
    'testforparam(0;"/srv/a{k}")', 'testforpname("proc{k}*")',
    'store_cmp("cell{k}";"==";{k})',
]
ACTION_POOL = [
    'log()', 'call_orig()', 'store_add("cnt{k}";1)', 'store_set("reg{k}";{k})',
    'manipulateparam(0;"/from{k}/*";"/to{k}/")',
]


def random_program_source(rng):
    lines = []
    n_rules = rng.randint(1, 3)
    n_blocks = rng.randint(0, 2)
    rule_names = [f"r{i}" for i in range(n_rules)]
    block_names = [f"cb{i}" for i in range(n_blocks)]
    lines.append(f"define {','.join(rule_names)} as rule")
    if block_names:
        lines.append(f"define {','.join(block_names)} as conditionblock")
    lines.append("define rc as rulechain")

    def cond_call():
        return rng.choice(CONDITION_POOL).format(k=rng.randint(0, 9))

    def condexpr(depth=0):
        if depth >= 2 or rng.random() < 0.5:
            return cond_call()
        op = rng.choice(("&&", "||"))
        left, right = condexpr(depth + 1), condexpr(depth + 1)
        if rng.random() < 0.5:
            return f"({left} {op} {right})"
        return f"{left} {op} {right}"

    for name in block_names:
        lines.append(f"let {name} be {{{condexpr()}}}")
    for name in rule_names:
        if block_names and rng.random() < 0.5:
            guard = rng.choice(block_names)
        else:
            guard = "{" + condexpr() + "}"
        actions = ",".join(
            rng.choice(ACTION_POOL).format(k=rng.randint(0, 9))
            for _ in range(rng.randint(1, 3)))
        lines.append(f"let {name} be {{{guard}->{actions}}}")
    members = ",".join((":" if rng.random() < 0.4 else "") + n
                       for n in rule_names)
    lines.append(f"let rc be {{{members}}}")
    lines.append(f"bind rc to sys_{rng.choice(SYSCALLS)}")
    return "\n".join(lines) + "\n"


def _strip_spans(prog):
    import dataclasses
    chains = {}
    for name, chain in prog.chains.items():
        rules = tuple(dataclasses.replace(r, span="") for r in chain.rules)
        chains[name] = dataclasses.replace(chain, rules=rules)
    return dataclasses.replace(prog, chains=chains)


def test_criterion_09a_round_trip(capsys):
    rng = random.Random(909)
    failures = 0
    for _ in range(500):
        src = random_program_source(rng)
        printed = pretty_print(parse(tokenize(SourceUnit(src))))
        reprinted = pretty_print(parse(tokenize(SourceUnit(printed))))
        prog1, _ = compile_source(src)
        prog1_again, _ = compile_source(src)
        prog2, _ = compile_source(printed)
        if (printed != reprinted
                or apc.serialize(prog1) != apc.serialize(prog1_again)
                or apc.serialize(_strip_spans(prog1))
                != apc.serialize(_strip_spans(prog2))):
            failures += 1
    ok = failures == 0
    announce(capsys, "9a", ok, f"500 random programs, failures={failures}")
    assert ok


def random_tree(rng, leaf_ids):
    """Random binary tree over the given store-backed leaf indices."""
    if len(leaf_ids) == 1:
        i = leaf_ids[0]
        return Condition("store_cmp", (f"v{i}", "==", 1)), f"b[{i}]"
    split = rng.randint(1, len(leaf_ids) - 1)
    left, lsrc = random_tree(rng, leaf_ids[:split])
    right, rsrc = random_tree(rng, leaf_ids[split:])
    op = rng.choice((OP_AND, OP_OR))
    pysrc = f"({lsrc} {'and' if op == OP_AND else 'or'} {rsrc})"
    return ConditionBlock(left, right, op), pysrc


def test_criterion_09b_lowering_equivalence(capsys):
    rng = random.Random(99)
    mismatches = 0
    total = 0
    for n in range(1, 11):
        for _ in range(5):
            tree, pysrc = random_tree(rng, list(range(n)))
            if isinstance(tree, Condition):
                tree = ConditionBlock(tree, ALWAYS_TRUE, OP_AND)
            ref = eval(f"lambda b: 1 if {pysrc} else 0")  # trusted test source
            sb = SandboxState()
            ev = make_event("getpid")
            for mask in range(2 ** n):
                bits = [(mask >> i) & 1 for i in range(n)]
                for i, bit in enumerate(bits):
                    sb.store.set(f"v{i}", bit)
                total += 1
                if holds(tree, ev, sb) != ref(bits):
                    mismatches += 1
    ok = mismatches == 0
    announce(capsys, "9b", ok,
             f"guards up to 10 leaves, {total} exhaustive valuations, "
             f"mismatches={mismatches}")
    assert ok


# --- 10: Turing-machinery smoke test ----------------------------------------------

def test_criterion_10_tripwire_and_budget(capsys):
    always = ConditionBlock(ALWAYS_TRUE, ALWAYS_TRUE, OP_AND)
    secret = Condition("testforparam", (0, "/secret"))
    tripwire = RuleChain("trip", (
        Rule("count", ConditionBlock(secret, ALWAYS_TRUE, OP_AND),
             ActionChain((Action("store_add", ("n", 1)),))),
        Rule("skip", ConditionBlock(Condition("store_cmp", ("n", "<", 3)),
                                    ALWAYS_TRUE, OP_AND),
             ActionChain((Action("jump", (3,)),))),
        Rule("trap", ConditionBlock(secret, ALWAYS_TRUE, OP_AND),
             ActionChain((Action("block", ()),)), 1),
        Rule("fall", always, ActionChain((Action("call_orig", ()),)), 1),
    ))
    prog = RuleProgram(chains={"trip": tripwire}, bindings=[("open", "trip")])
    sb = SandboxState()
    sb.vfs.put_file("/secret", b"s")
    sb.vfs.put_file("/other", b"o")
    src = EventSource(make_ctx())

    results = [dispatch(prog, src.event("open", "/secret", "r"), sb).result
               for _ in range(5)]
    other = dispatch(prog, src.event("open", "/other", "r"), sb).result
    # hand-computed: opens 1-2 pass, 3rd and later blocked with EACCES
    hand_computed = [3, 4, -13, -13, -13]
    tripwire_ok = results == hand_computed and other >= 5

    # a deliberate jump loop must stop at exactly the 10,000-step budget
    loop = RuleChain("loop", (
        Rule("spin", always, ActionChain((Action("jump", (0,)),))),))
    loop_prog = RuleProgram(chains={"loop": loop},
                            bindings=[("getpid", "loop")])
    sb2 = SandboxState()
    disp = dispatch(loop_prog, src.event("getpid"), sb2)
    steps = disp.conditions_evaluated // 2  # 2-leaf guard per visit
    budget_ok = (steps == DEFAULT_JUMP_BUDGET and disp.blocked
                 and disp.result == errno_default(make_event("getpid")))

    ok = tripwire_ok and budget_ok
    announce(capsys, 10, ok,
             f"tripwire results={results} (expected {hand_computed}), "
             f"loop stopped at {steps} steps")
    assert results == hand_computed
    assert other >= 5
    assert steps == DEFAULT_JUMP_BUDGET
    assert disp.blocked
