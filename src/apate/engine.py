"""Rule evaluation: condition blocks, action chains, chain traversal.

Each guard (a ConditionBlock tree) runs as one Python function,
``guard(ev, sb) -> 0 | 1``, generated on first use by compiled_guard and
cached by object id.  The function reads each per-event value it needs
once, at its top, then evaluates every leaf left to right as an inline
expression: nothing short-circuits, so diagnostics come out in leaf
order and the number of conditions evaluated is the block's static
``leaf_count``.  A run of same-operator blocks is one flat sum of its
children compared against a count (all of them for AND, one for OR),
which is what ``(d + e) * f >= 4`` gives when applied pairwise.  Each
leaf's text comes from its builtin's emitter (builtins.py), with params
bound as namespace constants, never written into the source.
"""

from __future__ import annotations

from .builtins import GuardSource, check_params, lookup, specialize
from .errors import ApateError
from .model import (ActionChain, Condition, ConditionBlock, Disposition,
                    OP_AND, RuleChain, RuleProgram, SyscallEvent)
from .sandbox import SandboxState, errno_default, exec_syscall

DEFAULT_JUMP_BUDGET = 10_000


class EvalContext:
    """Per-event mutable state threaded through rules and actions."""

    __slots__ = ("result", "blocked", "invoked", "jump_target",
                 "conditions", "matched_rules")

    def __init__(self):
        self.result = 0
        self.blocked = False
        self.invoked = False      # call_orig or block happened
        self.jump_target = None
        self.conditions = 0
        self.matched_rules = []


# Compiled guard cache.  Keyed by object identity; the value keeps a
# reference to the guard so ids are never reused while cached.
_compiled = {}


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
    var, _, pending = run
    if pending:
        body.append(f"{var} += sum(({', '.join(pending)},))")
        pending.clear()


def _generate(block: ConditionBlock):
    """Build guard(ev, sb) for a block; iterative, so depth is unbounded.

    Each same-operator run counts its true children in a local: its
    leaves are summed as a tuple, and a nested run adds its own 0/1 after
    the leaves before it are added, so every leaf evaluates in
    left-to-right order.
    """
    src = GuardSource()
    body, runs = [], []           # open runs: (local, count needed, leaves)
    todo = [block]
    while todo:
        node = todo.pop()
        if isinstance(node, Condition):
            runs[-1][2].append(src.leaf(node.builtin_name, node.params))
            continue
        if runs:
            _flush(body, runs[-1])
        if node is None:          # end of the innermost open run
            var, need, _ = runs.pop()
            test = f"({var} >= {need})"
            body.append(f"{runs[-1][0]} += {test}" if runs
                        else f"return 1 if {test} else 0")
        else:
            children = _flatten(node)
            need = len(children) if node.op_code == OP_AND else 1
            var = f"g{len(body)}"
            runs.append((var, need, []))
            body.append(f"{var} = 0")
            todo.append(None)
            todo += reversed(children)
    return src.function(body)


def compiled_guard(block: ConditionBlock):
    """Return (guard function, leaf_count) for a condition block."""
    entry = _compiled.get(id(block))
    if entry is not None and entry[2] is block:
        return entry[0], entry[1]
    fn = _generate(block)
    count = block.leaf_count()
    _compiled[id(block)] = (fn, count, block)
    return fn, count


def eval_condition(cond: Condition, ev: SyscallEvent, sandbox: SandboxState,
                   ctx: "EvalContext | None" = None) -> int:
    """Evaluate one condition; increments the condition counter by 1."""
    fn = specialize(cond.builtin_name, cond.params)
    if ctx is not None:
        ctx.conditions += 1
    return fn(ev, sandbox)


def eval_condition_block(block: ConditionBlock, ev: SyscallEvent,
                         sandbox: SandboxState,
                         ctx: "EvalContext | None" = None) -> int:
    """Evaluate a block: 1 iff (d + e) * op_code >= 4, children in full."""
    guard, count = compiled_guard(block)
    if ctx is not None:
        ctx.conditions += count
    return guard(ev, sandbox)


def run_action_chain(chain: ActionChain, ev: SyscallEvent,
                     sandbox: SandboxState,
                     ctx: "EvalContext | None" = None):
    """Execute actions in order; first nonzero status disrupts the chain.

    On disruption the error routine runs once: the failure is recorded
    and the result slot is set to the syscall-dependent errno.  Returns
    (status, result) where status is the first failing status or 0.
    """
    if ctx is None:
        ctx = EvalContext()
    for index, action in enumerate(chain.actions):
        spec = lookup(action.builtin_name)
        status = spec.fn(ev, sandbox, ctx, action.params)
        if status != 0:
            _chain_error(ev, sandbox, ctx,
                         f"ActionFailed index={index} builtin={action.builtin_name} "
                         f"status={status}")
            return status, ctx.result
    return 0, ctx.result


def _chain_error(ev, sandbox, ctx, detail):
    """The error routine: runs exactly once per disruption."""
    sandbox.diag("ChainDisrupted", detail)
    ctx.result = errno_default(ev)
    ctx.blocked = True
    ctx.invoked = True
    ctx.jump_target = None


def eval_chain(chain: RuleChain, ev: SyscallEvent, sandbox: SandboxState,
               budget: int = DEFAULT_JUMP_BUDGET) -> Disposition:
    """Traverse a rule chain for one event.

    Rules are visited in order; a fired rule with the exit flag stops
    traversal; a successful jump action redirects traversal instead of
    falling through to the next rule (and takes precedence over the exit
    flag).  A traversal-step budget bounds jump loops; exhausting it
    blocks the event with the errno-table value.  If no executed chain
    invoked call_orig or block, the original syscall runs unchanged
    after traversal (pass-through default).
    """
    ctx = EvalContext()
    rules = chain.rules
    i = 0
    steps = 0
    while 0 <= i < len(rules):
        if steps >= budget:
            _chain_error(ev, sandbox, ctx, f"BudgetExhausted budget={budget}")
            break
        steps += 1
        rule = rules[i]
        guard_fn, leaf_count = compiled_guard(rule.guard)
        ctx.conditions += leaf_count
        if guard_fn(ev, sandbox):
            ctx.matched_rules.append(i)
            status, _ = run_action_chain(rule.actions, ev, sandbox, ctx)
            if status != 0:
                break  # disruption stops traversal; exit semantics subsumed
            if ctx.jump_target is not None:
                target = ctx.jump_target
                ctx.jump_target = None
                if not (0 <= target < len(rules)):
                    _chain_error(ev, sandbox, ctx,
                                 f"JumpOutOfRange target={target} len={len(rules)}")
                    break
                i = target
                continue
            if rule.exit_flag:
                break
        i += 1
    if not ctx.invoked:
        ctx.result = exec_syscall(sandbox, ev)
    return Disposition(seq=ev.seq, syscall=ev.syscall,
                       matched_rules=ctx.matched_rules, result=ctx.result,
                       blocked=ctx.blocked, manipulated_args=list(ev.args),
                       conditions_evaluated=ctx.conditions)


def dispatch(prog: RuleProgram, ev: SyscallEvent, sandbox: SandboxState,
             budget: int = DEFAULT_JUMP_BUDGET) -> Disposition:
    """Route one event: unbound syscalls run the original call directly."""
    chain = prog.chain_for(ev.syscall)
    if chain is None:
        result = exec_syscall(sandbox, ev)
        return Disposition(seq=ev.seq, syscall=ev.syscall, result=result,
                           manipulated_args=list(ev.args))
    return eval_chain(chain, ev, sandbox, budget=budget)


def validate_program(prog: RuleProgram) -> None:
    """Surface compile-time bugs at load: unknown builtins, bad params,
    call_orig after block within one action chain."""
    for chain in prog.chains.values():
        for rule in chain.rules:
            _validate_guard(rule.guard)
            blocked = False
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


def _validate_guard(block) -> None:
    stack = [block]
    while stack:
        node = stack.pop()
        if isinstance(node, ConditionBlock):
            stack += (node.right, node.left)
            continue
        spec = lookup(node.builtin_name)
        if spec.kind != "condition":
            raise ApateError(f"{node.builtin_name} is a {spec.kind}, not a condition")
        err = check_params(node.builtin_name, node.params)
        if err:
            raise ApateError(err)
