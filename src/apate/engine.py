"""Rule evaluation: condition blocks, action chains, chain traversal.

Each guard (a ConditionBlock tree) runs as one Python function,
``guard(ev, sb) -> 0 | 1``, generated by compiled_guard when its program
is bound: at load (validate_program), or at the first dispatch of a
program built in code.  The program's plan holds it; nothing is cached
across programs.  The function reads each per-event value it needs
once, at its top (a wildcard prefix once per subject and prefix
length), then evaluates every leaf left to right as an inline
expression: nothing short-circuits, so diagnostics come out in leaf
order and the number of conditions evaluated is the block's static
``leaf_count``.  A run of same-operator blocks is one boolean local,
all() (AND) or any() (OR) of a tuple of its children, built in full
before the fold; that is what ``(d + e) * f >= 4`` gives when applied
pairwise.  Each leaf's text comes from its builtin's emitter
(builtins.py), with params bound as namespace constants, never written
into the source.
"""

from __future__ import annotations

from .builtins import GuardSource, check_params, lookup, specialize
from .errors import ApateError
from .model import (ActionChain, Condition, ConditionBlock, Disposition,
                    OP_AND, RuleChain, RuleProgram, SyscallEvent)
from .sandbox import SandboxState, errno_default, exec_syscall

DEFAULT_JUMP_BUDGET = 10_000


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


def _flush(body, run):
    """Fold a run's pending items into its local, which then leads them."""
    var, fold, pending = run
    if pending:
        body.append(f"{var} = {fold}(({', '.join(pending)},))")
        pending[:] = [var]


def _generate(block: ConditionBlock):
    """Build guard(ev, sb) for a block; iterative, so depth is unbounded.

    Each same-operator run folds its children with all() (AND) or any()
    (OR); a nested run folds after the parent's items before it and joins
    the parent's next tuple as one item, so every leaf evaluates in
    left-to-right order.
    """
    src = GuardSource()
    body, runs = [], []           # open runs: (local, fold, pending items)
    todo = [block]
    while todo:
        node = todo.pop()
        if isinstance(node, Condition):
            runs[-1][2].append(src.leaf(node.builtin_name, node.params))
            continue
        if runs:
            _flush(body, runs[-1])
        if node is None:          # end of the innermost open run
            var = runs.pop()[0]
            if runs:
                runs[-1][2].append(var)
            else:
                body.append(f"return 1 if {var} else 0")
        else:
            fold = "all" if node.op_code == OP_AND else "any"
            runs.append((f"g{len(runs)}", fold, []))
            todo.append(None)
            todo += reversed(_flatten(node))
    return src.function(body)


def compiled_guard(block: ConditionBlock):
    """Return (guard function, leaf_count) for a condition block."""
    return _generate(block), block.leaf_count()


def eval_condition(cond: Condition, ev: SyscallEvent, sandbox: SandboxState,
                   disp: "Disposition | None" = None) -> int:
    """Evaluate one condition; counts 1 condition into disp."""
    fn = specialize(cond.builtin_name, cond.params)
    if disp is not None:
        disp.conditions_evaluated += 1
    return fn(ev, sandbox)


def eval_condition_block(block: ConditionBlock, ev: SyscallEvent,
                         sandbox: SandboxState,
                         disp: "Disposition | None" = None) -> int:
    """Evaluate a block: 1 iff (d + e) * op_code >= 4, children in full."""
    guard, count = compiled_guard(block)
    if disp is not None:
        disp.conditions_evaluated += count
    return guard(ev, sandbox)


def run_action_chain(chain: ActionChain, ev: SyscallEvent,
                     sandbox: SandboxState,
                     disp: "Disposition | None" = None):
    """Execute actions in order into the event's disposition; the first
    nonzero status disrupts the chain.

    On disruption the error routine runs once: the failure is recorded
    and the result slot is set to the syscall-dependent errno.  Returns
    (status, result) where status is the first failing status or 0.
    """
    if disp is None:
        disp = Disposition(ev.seq, ev.syscall)
    for index, action in enumerate(chain.actions):
        status = lookup(action.builtin_name).fn(ev, sandbox, disp, action.params)
        if status != 0:
            _chain_error(ev, sandbox, disp,
                         f"ActionFailed index={index} builtin={action.builtin_name} "
                         f"status={status}")
            return status, disp.result
    return 0, disp.result


def _chain_error(ev, sandbox, disp, detail):
    """The error routine: runs exactly once per disruption."""
    sandbox.diag("ChainDisrupted", detail)
    disp.result = errno_default(ev)
    disp.blocked = disp.invoked = True


def eval_chain(chain: RuleChain, ev: SyscallEvent,
               sandbox: SandboxState) -> Disposition:
    """Bind one rule chain on its own and traverse it for one event."""
    prog = RuleProgram({chain.name: chain}, [(ev.syscall, chain.name)])
    return dispatch(prog, ev, sandbox)


def dispatch(prog: RuleProgram, ev: SyscallEvent,
             sandbox: SandboxState) -> Disposition:
    """Route one event through the chains bound to its syscall.

    A program never passed to validate_program is bound here, on its
    first dispatch.  Rules, actions and the error routine write into the
    one Disposition this returns.  Rules are visited in order; a fired
    rule with a jump redirects traversal to its target instead of
    falling through to the next rule (and takes precedence over the exit
    flag); else its exit flag stops traversal.  DEFAULT_JUMP_BUDGET
    traversal steps bound jump loops; exhausting them blocks the event
    with the errno-table value.  If no executed chain invoked call_orig
    or block, the original syscall runs unchanged after traversal
    (pass-through default), as it does for an unbound syscall.
    """
    if prog.plan is None:
        validate_program(prog)
    disp = Disposition(ev.seq, ev.syscall)
    rules = prog.plan.get(ev.syscall, ())
    i = steps = 0
    while i < len(rules):
        if steps >= DEFAULT_JUMP_BUDGET:
            _chain_error(ev, sandbox, disp,
                         f"BudgetExhausted budget={DEFAULT_JUMP_BUDGET}")
            break
        steps += 1
        guard, leaf_count, actions, exit_flag, jump = rules[i]
        disp.conditions_evaluated += leaf_count
        if guard(ev, sandbox):
            disp.matched_rules.append(i)
            status, _ = run_action_chain(actions, ev, sandbox, disp)
            if status != 0:
                break  # disruption stops traversal; exit semantics subsumed
            if jump is not None:
                if not (0 <= jump < len(rules)):
                    _chain_error(ev, sandbox, disp,
                                 f"JumpOutOfRange target={jump} len={len(rules)}")
                    break
                i = jump
                continue
            if exit_flag:
                break
        i += 1
    if not disp.invoked:
        disp.result = exec_syscall(sandbox, ev)
    disp.manipulated_args = list(ev.args)
    return disp


def validate_program(prog: RuleProgram) -> None:
    """Bind a program: check every rule and set ``prog.plan``.

    Generating a guard checks its conditions; each action must be a known
    action with valid params, and call_orig may not follow block.  A
    guard that several rules share is generated once.  A rule's jump
    target is the param of the last jump in its chain, None if it has none.
    The chains bound to one syscall run as one, in binding order: each
    non-negative jump target of a later chain moves by the number of
    rules before it, so it still reaches the same rule; a negative one
    stays out of range.
    """
    guards, bound = {}, {}
    for name, chain in prog.chains.items():
        rules = []
        for rule in chain.rules:
            entry = guards.get(id(rule.guard))
            if entry is None:
                entry = guards[id(rule.guard)] = compiled_guard(rule.guard)
            blocked, jump = False, None
            for action in rule.actions.actions:
                spec = lookup(action.builtin_name)
                if spec.kind != "action":
                    raise ApateError(
                        f"{action.builtin_name} is a {spec.kind}, not an action")
                err = check_params(action.builtin_name, action.params)
                if err:
                    raise ApateError(err)
                if action.builtin_name == "block":
                    blocked = True
                elif action.builtin_name == "call_orig" and blocked:
                    raise ApateError(
                        f"rule {rule.name!r}: call_orig after block is contradictory")
                elif action.builtin_name == "jump":
                    jump = action.params[0]
            rules.append((*entry, rule.actions, rule.exit_flag, jump))
        bound[name] = tuple(rules)
    plan = {}
    for sc, name in prog.bindings:
        before = plan.get(sc, ())
        plan[sc] = before + tuple(
            r if r[4] is None or r[4] < 0 else (*r[:4], r[4] + len(before))
            for r in bound[name])
    prog.plan = plan
