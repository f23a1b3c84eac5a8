"""A reference interpreter for rule programs, as a differential oracle.

``ref_dispatch`` walks a RuleProgram directly.  It composes the chains
bound to a syscall in binding order, evaluates each guard as
``(d + e) * f >= 4`` at every node over test_engine's per-condition
reference, runs actions through the builtin registry, and applies the
exit flag, jumps (which win over exit), disruption with one error
routine, the jump budget and the pass-through default, calling the real
exec_syscall.  Seeded programs replayed over seeded traces must give the
same dispositions, diagnostics, log lines and VFS through it and through
engine.dispatch.
"""

import random

from apate import engine
from apate.builtins import REGISTRY
from apate.dsl import compile_source
from apate.engine import SCAN_RUN, dispatch, validate_program
from apate.model import (Action, ActionChain, Condition, ConditionBlock,
                         Disposition, OP_OR, Rule, RuleChain, RuleProgram,
                         SYSCALLS, SyscallEvent)
from apate.sandbox import SandboxState, errno_default, exec_syscall

from conftest import MemorySink, make_ctx
from test_engine import _random_leaf, _random_tree, _ref_leaf


def _holds(node, ev, sb, count, seen, where):
    if isinstance(node, Condition):
        count[0] += 1
        name, p = node.builtin_name, node.params
        if name in ("testforparam", "testforfdpath") and p[0] >= len(ev.args):
            seen.add(f"absent argument {where}")
        if (name == "store_cmp" and p[1] not in ("==", "!=")
                and not isinstance(sb.store.get(p[0]), int)):
            sb.diag("StoreTypeMismatch",
                    f"store_cmp: {p[0]!r} {p[1]} {p[2]} on a non-int cell")
            return 0
        return _ref_leaf(node, ev, sb)
    d = _holds(node.left, ev, sb, count, seen, where)
    e = _holds(node.right, ev, sb, count, seen, where)
    return 1 if (d + e) * node.op_code >= 4 else 0


def ref_dispatch(prog, ev, sb, budget, seen):
    """One event through prog; adds each semantic it takes to seen."""
    rules = []
    for sc, name in prog.bindings:
        if sc == ev.syscall:
            base = len(rules)
            for rule in prog.chains[name].rules:
                jumps = [a.params[0] for a in rule.actions.actions
                         if a.builtin_name == "jump"]
                jump = jumps[-1] if jumps else None
                if jump is not None and jump >= 0:
                    jump += base
                rules.append((rule, jump))
    disp = Disposition(ev.seq, ev.syscall)
    # where dispatch runs each rule's guard: inline in the scan, or a
    # called body b<i> (seen only to count what the replay reached)
    bound = prog.scans.get(ev.syscall)
    called = bound[0].__globals__ if bound else {}

    def error(kind, detail):
        seen.add(kind)
        sb.diag("ChainDisrupted", detail)
        disp.result = errno_default(ev)
        disp.blocked = disp.invoked = True

    i = steps = 0
    fired = True
    while i < len(rules):
        if steps == budget:
            error("budget runs out mid-scan" if not fired
                  else "budget runs out at a jump", f"BudgetExhausted budget={budget}")
            break
        steps += 1
        rule, jump = rules[i]
        count = [0]
        fired = _holds(rule.guard, ev, sb, count, seen, "in a called body"
                       if f"b{i:d}" in called else "inline")
        disp.conditions_evaluated += count[0]
        if not fired:
            i += 1
            continue
        disp.matched_rules.append(i)
        if i >= SCAN_RUN:
            seen.add("fires past the first scan run")
        status = 0
        for k, action in enumerate(rule.actions.actions):
            name = action.builtin_name
            status = REGISTRY[name].fn(ev, sb, disp, action.params)
            if status:
                error("disruption",
                      f"ActionFailed index={k} builtin={name} status={status}")
                break
        if status:
            break
        if jump is None:
            if rule.exit_flag:
                seen.add("exit")
                break
            i += 1
        elif 0 <= jump < len(rules):
            seen.add("backward jump" if jump <= i else "forward jump")
            i = jump
        else:
            error("out-of-range jump",
                  f"JumpOutOfRange target={jump} len={len(rules)}")
            break
    if not disp.invoked:
        disp.result = exec_syscall(sb, ev)
    disp.manipulated_args = list(ev.args)
    return disp


_PATHS = ("/etc/motd", "/etc/passwd", "/var/lib/mysql/x", "/var/log",
          "/srv/a", "/etc", "/", "r", "/etc/\udcffx")
_PATTERNS = ("/etc/*", "/var/*", "*", "/etc/motd", "/srv/a")


def _action(rng, n):
    kind = rng.choice(("manipulateparam", "log", "call_orig", "block",
                       "jump", "store_set", "store_add", "filter_dirents"))
    params = {
        "manipulateparam": lambda: (rng.randint(-1, 2), rng.choice(_PATTERNS),
                                    rng.choice(("/var/", "/etc/motd", "/tmp"))),
        "block": lambda: rng.choice(((), (-13,), (5,))),
        "jump": lambda: (rng.randint(-2, n + 1),),
        "store_set": lambda: ("n", rng.choice((0, 3, 5, "x"))),
        "store_add": lambda: ("n", rng.choice((1, -2))),
        "filter_dirents": lambda: (rng.choice(("motd", "m*", "*")),),
    }.get(kind, tuple)()
    return Action(kind, params)


def _program(rng):
    chains = {}
    for c in range(rng.randint(1, 3)):
        n = rng.choice((1, 2, 5, 9, 14, 20))
        rules = []
        for r in range(n):
            guard = _random_tree(rng, 4)
            if isinstance(guard, Condition):
                guard = ConditionBlock(guard, _random_leaf(rng), OP_OR)
            actions = [_action(rng, n) for _ in range(rng.randint(1, 3))]
            if any(a.builtin_name == "block" for a in actions):
                k = next(i for i, a in enumerate(actions)
                         if a.builtin_name == "block")
                actions = actions[:k + 1] + [
                    a for a in actions[k + 1:] if a.builtin_name != "call_orig"]
            rules.append(Rule(f"r{r}", guard, ActionChain(tuple(actions)),
                              int(rng.random() < 0.3)))
        chains[f"c{c}"] = RuleChain(f"c{c}", tuple(rules))
    bindings = [(sc, name) for name in chains
                for sc in rng.sample(SYSCALLS, rng.randint(2, 8))]
    rng.shuffle(bindings)
    return RuleProgram(chains, bindings)


def _events(rng, n):
    ctxs = [make_ctx(uid=u, pid=p, ssid=s, pname=pn, parent_pname=pp)
            for u, p, s, pn, pp in ((1000, 100, 1, "bash", "sshd"),
                                    (0, 1, 0, "mysqld", "mysql"),
                                    (1001, 42, 7, "sh", "ssh-agent"))]
    args = {"open": lambda: [rng.choice(_PATHS), rng.choice("rwa")],
            "close": lambda: [rng.randint(3, 6)],
            "read": lambda: [rng.randint(3, 6), rng.randint(0, 64)],
            "write": lambda: [rng.randint(3, 6), rng.randint(0, 64)],
            "execve": lambda: [rng.choice(_PATHS), "sh -c id"],
            "getpid": list, "getuid": list}
    return [(sc, args.get(sc, lambda: [rng.choice(_PATHS)])(),
             rng.choice(ctxs)) for sc in rng.choices(SYSCALLS, k=n)]


# Each later guard must see what the actions before it did: r1 the
# rewrite r0 made, and r3 the descriptor r2's call_orig closed.
REFRESH = '''define r0,r1,r2,r3 as rule
define rc as rulechain
let r0 be {{testforparam(0;"/etc/*")}->manipulateparam(0;"/etc/*";"/var/")}
let r1 be {{testforparam(0;"/var/*")}->store_add("n";1)}
let r2 be {{always_true()}->call_orig()}
let r3 be {{testforfdpath(0;"/etc/*")}->block(-13)}
let rc be {r0,r1,r2,r3}
bind rc to sys_open
bind rc to sys_close
'''


def _world():
    sb = SandboxState(clock=lambda: "2024-05-01T12:00:00.000000+00:00")
    for path in ("/etc/motd", "/var/lib/mysql/x", "/srv/a"):
        sb.vfs.put_file(path, b"welcome to apate")
    sb.fds.alloc("/etc/motd", "r", sb.vfs.files["/etc/motd"])   # fd 3
    sb.sinks = [MemorySink()]
    return sb


def test_dispatch_matches_reference_interpreter(monkeypatch):
    seen = set()
    for seed in range(-1, 40):
        rng = random.Random(seed)
        prog = _program(rng) if seed >= 0 else compile_source(REFRESH)[0]
        budget = rng.choice((3, 7, 25, 60)) if seed >= 0 else 60
        monkeypatch.setattr(engine, "DEFAULT_JUMP_BUDGET", budget)
        validate_program(prog)
        got_sb, want_sb = _world(), _world()
        events = _events(rng, 60) if seed >= 0 else [
            ("open", ["/etc/motd", "r"], make_ctx()), ("close", [3], make_ctx())]
        for seq, (sc, args, ctx) in enumerate(events, start=1):
            got = dispatch(prog, SyscallEvent(seq, sc, list(args), ctx), got_sb)
            want = ref_dispatch(prog, SyscallEvent(seq, sc, list(args), ctx),
                                want_sb, budget, seen)
            assert got == want, (seed, seq)
            assert got_sb.diagnostics == want_sb.diagnostics, (seed, seq)
            assert got_sb.sinks[0].lines == want_sb.sinks[0].lines, (seed, seq)
        assert got_sb.vfs.digest() == want_sb.vfs.digest()
        assert got_sb.store.get("n") == want_sb.store.get("n")
    assert seen == {"exit", "forward jump", "backward jump", "out-of-range jump",
                    "disruption", "budget runs out mid-scan",
                    "budget runs out at a jump", "fires past the first scan run",
                    "absent argument inline", "absent argument in a called body"}
