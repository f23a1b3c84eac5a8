"""Predefined log-cloaking rules.

These rules make the honeypot's own logfile invisible to every syscall
issued through the hooked layer: opening, reading, writing, or unlinking
the logfile fails with ENOENT (a missing file is stealthier than a
permission error), and directory listings omit its entry.  The rules are
prepended with exit flags so user rules can never run first.
"""

from __future__ import annotations

from .model import (Action, ActionChain, ALWAYS_TRUE, Condition,
                    ConditionBlock, OP_AND, Rule, RuleChain, RuleProgram)
from .sandbox import ENOENT, normalize_path, parent_of


def _guard(cond: Condition) -> ConditionBlock:
    return ConditionBlock(cond, ALWAYS_TRUE, OP_AND)


def _rule(name, cond, actions) -> Rule:
    return Rule(name, _guard(cond), ActionChain(tuple(actions)), exit_flag=1,
                span="cloak")


def cloak_ruleset(log_path: str) -> RuleProgram:
    """Build the cloak bindings for open, read, write, unlink, getdents.

    The logfile is hidden from every uid, admin included: reading the log
    requires going around the hooked layer entirely.
    """
    log_path = normalize_path(log_path)
    log_dir = parent_of(log_path)
    basename = log_path.rsplit("/", 1)[1]
    block = Action("block", (ENOENT,))

    by_path = Condition("testforparam", (0, log_path))
    by_fd = Condition("testforfdpath", (0, log_path))

    chains = {
        "_cloak_open": RuleChain("_cloak_open",
                                 (_rule("_cloak_open_0", by_path, [block]),)),
        "_cloak_read": RuleChain("_cloak_read",
                                 (_rule("_cloak_read_0", by_fd, [block]),)),
        "_cloak_write": RuleChain("_cloak_write",
                                  (_rule("_cloak_write_0", by_fd, [block]),)),
        "_cloak_unlink": RuleChain("_cloak_unlink",
                                   (_rule("_cloak_unlink_0", by_path, [block]),)),
        "_cloak_getdents": RuleChain(
            "_cloak_getdents",
            (_rule("_cloak_getdents_0",
                   Condition("testforparam", (0, log_dir)),
                   [Action("call_orig", ()),
                    Action("filter_dirents", (basename,))]),)),
    }
    bindings = [("open", "_cloak_open"), ("read", "_cloak_read"),
                ("write", "_cloak_write"), ("unlink", "_cloak_unlink"),
                ("getdents", "_cloak_getdents")]
    return RuleProgram(chains=chains, bindings=bindings)


def _shift_jumps(rule: Rule, offset: int) -> Rule:
    """The rule with each non-negative jump target moved by offset."""
    actions = tuple(
        Action("jump", (a.params[0] + offset,))
        if a.builtin_name == "jump" and len(a.params) == 1
        and isinstance(a.params[0], int) and a.params[0] >= 0 else a
        for a in rule.actions.actions)
    return Rule(rule.name, rule.guard, ActionChain(actions), rule.exit_flag,
                rule.span)


def apply_cloak(user_prog: RuleProgram, cloak_prog: RuleProgram) -> RuleProgram:
    """Merge: cloak rules run before any user rules on the same syscall.

    Each non-negative user jump target moves past the cloak rules; a
    negative one stays out of range.
    """
    chains = dict(user_prog.chains)
    bindings = []
    user_bound = dict(user_prog.bindings)
    for syscall, cloak_chain_name in cloak_prog.bindings:
        cloak_chain = cloak_prog.chains[cloak_chain_name]
        if syscall in user_bound:
            user_chain = chains[user_bound[syscall]]
            merged_name = f"{cloak_chain_name}+{user_chain.name}"
            offset = len(cloak_chain.rules)
            chains[merged_name] = RuleChain(
                merged_name, cloak_chain.rules
                + tuple(_shift_jumps(r, offset) for r in user_chain.rules))
            bindings.append((syscall, merged_name))
        else:
            chains[cloak_chain_name] = cloak_chain
            bindings.append((syscall, cloak_chain_name))
    for syscall, chain_name in user_prog.bindings:
        if not any(sc == syscall for sc, _ in bindings):
            bindings.append((syscall, chain_name))
    return RuleProgram(chains=chains, bindings=bindings)
