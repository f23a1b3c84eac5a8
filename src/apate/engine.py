"""Rule evaluation: guards, scans, action chains, chain traversal.

Binding (validate_program, at load or at the first dispatch of a program
built in code) generates each guard once (builtins.GuardSource) and
compiles one scan per distinct rule sequence bound to a syscall, held by
the program; nothing is cached across programs.  A scan reads each
per-event value its guards need once and evaluates them in rule order up
to the first that holds, every leaf left to right with no short-circuit,
so diagnostics come out in leaf order and a guard counts the leaves
it was generated with.
"""

from __future__ import annotations

from itertools import accumulate

from .builtins import GUARD_NS, GuardSource, checked, define, read_lines
from .errors import ApateError
from .model import (ConditionBlock, Disposition, OP_AND,
                    RuleProgram, SyscallEvent)
from .sandbox import SandboxState, errno_default, exec_syscall

DEFAULT_JUMP_BUDGET = 10_000
SCAN_RUN = 16


def _flatten(node):
    """Children of the same-operator run rooted at node, left to right."""
    out, stack = [], [node]
    while stack:
        n = stack.pop()
        if isinstance(n, ConditionBlock) and n.op_code == node.op_code:
            stack += (n.right, n.left)
        else:
            out.append(n)
    return out


def compiled_guard(block: ConditionBlock):
    """Return (guard, leaves) for a condition block: the finished
    builtins.GuardSource and the number of conditions it emitted.

    Iterative, so depth is unbounded.  Each same-operator run is a 0/1
    local flag and each child one statement: an AND run starts at 1 and
    each child is ``if not <child>: g = 0``, an OR run starts at 0 and
    each child is ``if <child>: g = 1``.  A compare leaf is written as
    one compare, the inverse one in an AND run (``if a != k: g = 0``)
    and itself in an OR run (``if a == k: g = 1``).  That is
    ``(d + e) * f >= 4`` applied pairwise, with no short-circuit: a
    nested run is written in place as its own flag, which then acts as
    one child of its parent, so every leaf evaluates in left-to-right
    order.  Each compare sits just before a jump, where CPython can
    specialize it.
    """
    src = GuardSource()
    lines, runs = [], []          # open runs: (flag, is an AND run)
    todo = [block]
    while todo:
        node = todo.pop()
        if isinstance(node, ConditionBlock):
            conj = node.op_code == OP_AND
            runs.append((flag := f"g{len(runs)}", conj))
            lines.append(f"{flag} = {conj:d}")
            todo.append(None)
            todo += reversed(_flatten(node))
            continue
        if node is None:          # end of the innermost open run
            child = runs.pop()[0]
            if not runs:
                return src.finish(lines, child), src.leaves
        else:
            child = src.leaf(node.builtin_name, node.params)
        lines.append(src.child(*runs[-1], child))


def _scan(guards):
    """Generate scan(ev, sb, start, stop): the first rule that holds, or stop.

    Over rules [start, stop), it reads each value once, just before the
    first rule that needs it; a plan longer than SCAN_RUN rules reads at
    the top and compiles in runs of SCAN_RUN rules, so no compile unit
    grows with the plan.  A GuardSource's lines run inline as they are
    (its params are literals, so it names nothing the scan lacks), or its
    body is called with the reads its leaves name; anything else (a
    tracer's wrapper) is called as guard(ev, sb).
    A one-rule plan is only scanned from 0 to 1: no range test.
    """
    reads, lines, calls, ns = {}, [], [], dict(GUARD_NS)
    for i, guard in enumerate(guards):
        body, args, names = ((guard.body, guard.args, guard.reads)
                             if isinstance(guard, GuardSource) else (guard, (), {}))
        lines += read_lines({k: v for k, v in names.items() if k not in reads})
        reads.update(names)
        test = f"start <= {i:d} < stop" if len(guards) > 1 else "True"
        if body is None:
            calls.append([f"    if {test}:", *(f"        {x}" for x in guard.lines),
                          f"        if {guard.result}: return {i:d}"])
        else:
            ns[f"b{i:d}"] = body
            args = ", ".join(["ev", "sb", *args])
            calls.append([f"    if {test} and b{i:d}({args}): return {i:d}"])
        lines += calls[-1]
    if len(calls) <= SCAN_RUN:
        return define(ns, "scan", ["def scan(ev, sb, start, stop):", *lines,
                                   "    return stop"])
    params = ", ".join(["ev", "sb", "start", "stop", *reads])
    runs = [define(ns, "run", [f"def run({params}):",
                               *sum(calls[k:k + SCAN_RUN], []), "    return stop"])
            for k in range(0, len(calls), SCAN_RUN)]
    return define(ns, "make", [     # runs in a closure: no cycle through ns
        "def make(runs):", "    def scan(ev, sb, start, stop):",
        *(f"    {line}" for line in read_lines(reads)),
        f"        for run in runs[start // {SCAN_RUN:d}:]:",
        f"            if (i := run({params})) < stop: return i",
        "        return stop", "    return scan"])(runs)


def bind_actions(rule):
    """Check a rule's actions; returns ((fn, params, failure detail), ...),
    held by its plan entry, and its jump target, the param of its last
    jump or None.  call_orig may not follow block."""
    bound, blocked, jump = [], False, None
    for index, action in enumerate(rule.actions.actions):
        spec = checked(name := action.builtin_name, "action", action.params)
        if name == "block":
            blocked = True
        elif name == "call_orig" and blocked:
            raise ApateError(
                f"rule {rule.name!r}: call_orig after block is contradictory")
        elif name == "jump":
            jump = action.params[0]
        bound.append((spec.fn, action.params,
                      f"ActionFailed index={index} builtin={name}"))
    return tuple(bound), jump


def run_action_chain(actions, ev: SyscallEvent, sandbox: SandboxState,
                     disp: Disposition):
    """Execute bound actions (bind_actions) in order into disp.

    The first nonzero status disrupts the chain: the error routine runs
    once, recording the failure and setting the syscall's errno.
    Returns the failing status, or 0.
    """
    for fn, params, failure in actions:
        status = fn(ev, sandbox, disp, params)
        if status != 0:
            _chain_error(ev, sandbox, disp, f"{failure} status={status}")
            return status
    return 0


def _chain_error(ev, sandbox, disp, detail):
    """The error routine: runs exactly once per disruption."""
    sandbox.diag("ChainDisrupted", detail)
    disp.result = errno_default(ev)
    disp.blocked = disp.invoked = True


def dispatch(prog: RuleProgram, ev: SyscallEvent,
             sandbox: SandboxState) -> Disposition:
    """Route one event through the chains bound to its syscall, into the
    one Disposition returned; an unbound program is bound first.

    Rules are visited one scan at a time; the actions of the rule a scan
    stops at run before the next scan reads the event.  Then traversal
    goes on at that rule's successor, which binding decided: past the
    end stops it, and -1 (a jump out of range) disrupts it.  After
    DEFAULT_JUMP_BUDGET visited rules the event is blocked with the
    errno-table value.  Unless call_orig or block ran, the syscall runs
    after traversal (pass-through default).
    """
    if prog.scans is None:
        validate_program(prog)
    disp = Disposition(ev.seq, ev.syscall)
    bound = prog.scans.get(ev.syscall)
    if bound is not None:
        scan, sums, rules, n, budgeted = bound
        i = steps = 0
        while i < n:
            stop = min(n, i + DEFAULT_JUMP_BUDGET - steps) if budgeted else n
            j = scan(ev, sandbox, i, stop) if i < stop else stop
            if j == stop:         # no rule in [i, stop) holds
                disp.conditions_evaluated += sums[j] - sums[i]
                if j < n:
                    _chain_error(ev, sandbox, disp,
                                 f"BudgetExhausted budget={DEFAULT_JUMP_BUDGET}")
                break
            disp.conditions_evaluated += sums[j + 1] - sums[i]
            steps += j + 1 - i
            disp.matched_rules.append(j)
            actions, i, jump = rules[j]
            if run_action_chain(actions, ev, sandbox, disp):
                break  # disruption stops traversal; exit semantics subsumed
            if i < 0:
                _chain_error(ev, sandbox, disp,
                             f"JumpOutOfRange target={jump} len={n}")
                break
    if not disp.invoked:
        disp.result = exec_syscall(sandbox, ev)
    disp.manipulated_args = list(ev.args)
    return disp


def validate_program(prog: RuleProgram) -> None:
    """Bind a program: check every rule and set ``prog.scans``.

    A guard shared by several rules is generated once.  Chains bound to
    one syscall run as one, in binding order: a later chain's non-negative
    jump targets move by the rules before it; a negative one stays out of
    range.  Syscalls bound to the same rules share one scans entry: the
    scan, the prefix sums of the leaf counts, each rule's (bound actions,
    successor, jump), the length n, and whether the jump budget can run
    out.  Rule k's successor is where traversal goes on after it fires:
    its jump target if in range (a jump wins over the exit flag), -1 for
    one out of range, n for an exit, else k + 1.
    """
    guards, bound, plan, shared = {}, {}, {}, {}
    for name, chain in prog.chains.items():
        rules = bound[name] = []
        for rule in chain.rules:
            entry = guards.get(id(rule.guard))
            if entry is None:
                entry = guards[id(rule.guard)] = compiled_guard(rule.guard)
            rules.append((*entry, *bind_actions(rule), rule.exit_flag))
    for sc, name in prog.bindings:
        before = plan.get(sc, ())
        plan[sc] = before + tuple(
            r if r[3] is None or r[3] < 0 or not before
            else (*r[:3], r[3] + len(before), r[4]) for r in bound[name])
    keys = {sc: tuple(map(id, rules)) for sc, rules in plan.items() if rules}
    for sc, key in keys.items():
        if key not in shared:
            fns, counts, actions, jumps, exits = zip(*plan[sc])
            n = len(key)
            successors = [(n if x else k + 1) if j is None else
                          j if 0 <= j < n else -1
                          for k, (j, x) in enumerate(zip(jumps, exits))]
            shared[key] = (
                _scan(fns), tuple(accumulate(counts, initial=0)),
                tuple(zip(actions, successors, jumps)), n,
                n > DEFAULT_JUMP_BUDGET or any(j is not None for j in jumps))
    prog.scans = {sc: shared[key] for sc, key in keys.items()}
