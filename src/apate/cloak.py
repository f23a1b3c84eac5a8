"""Predefined log-cloaking rules, written in .apate (CLOAK_SOURCE).

These rules make the honeypot's own logfile invisible to every syscall
issued through the hooked layer: opening, reading, writing, or unlinking
the logfile fails with ENOENT, and directory listings omit its entry.
The rules are prepended with exit flags so user rules can never run
first.
"""

from __future__ import annotations

from dataclasses import replace
from string import Template

from .dsl import _arg_src, compile_source
from .errors import ApateError
from .model import Action, ActionChain, Rule, RuleChain, RuleProgram
from .sandbox import normalize_path, parent_of

# $log, $dir and $name are the logfile's path, directory and basename,
# each as a string literal; .apate has no '$'.
CLOAK_SOURCE = Template("""\
// Touching the logfile fails with ENOENT (-2): a missing file is
// stealthier than a permission error.
define by_path,by_fd,listing as rule
define cloak_path,cloak_fd,cloak_dir as rulechain
let by_path be {{testforparam(0;$log)}->block(-2)}
let by_fd be {{testforfdpath(0;$log)}->block(-2)}
let listing be {{testforparam(0;$dir)}->call_orig(),filter_dirents($name)}
let cloak_path be {:by_path}
let cloak_fd be {:by_fd}
let cloak_dir be {:listing}
bind cloak_path to open
bind cloak_fd to read
bind cloak_fd to write
bind cloak_path to unlink
bind cloak_dir to getdents
""")


def cloak_ruleset(log_path: str) -> RuleProgram:
    """Compile the cloak bindings for open, read, write, unlink, getdents.

    The logfile is hidden from every uid, admin included: reading the log
    requires going around the hooked layer entirely.  Rule spans are
    ``<cloak>:N``, N a line of CLOAK_SOURCE.  A path with a '*' is
    rejected: a pattern would read it as a wildcard and hide other files.
    """
    if "*" in log_path:
        raise ApateError(f"cloak log path {log_path!r} contains '*', which "
                         "the cloak's patterns would read as a wildcard")
    log_path = normalize_path(log_path)
    source = CLOAK_SOURCE.substitute(
        log=_arg_src(log_path), dir=_arg_src(parent_of(log_path)),
        name=_arg_src(log_path.rsplit("/", 1)[1]))
    return compile_source(source, "<cloak>")[0]


def _shift_jumps(rule: Rule, offset: int) -> Rule:
    """The rule with each non-negative jump target moved by offset."""
    actions = tuple(
        Action("jump", (a.params[0] + offset,))
        if a.builtin_name == "jump" and len(a.params) == 1
        and isinstance(a.params[0], int) and a.params[0] >= 0 else a
        for a in rule.actions.actions)
    return Rule(rule.name, rule.guard, ActionChain(actions), rule.exit_flag,
                rule.span)


def _free(name, taken) -> str:
    """name, or the first ``<name>#<n>`` not in taken."""
    fresh, n = name, 0
    while fresh in taken:
        n += 1
        fresh = f"{name}#{n}"
    return fresh


def apply_cloak(user_prog: RuleProgram, cloak_prog: RuleProgram) -> RuleProgram:
    """Merge: cloak rules run before any user rules on the same syscall.

    Each non-negative user jump target moves past the cloak rules; a
    negative one stays out of range.  An added chain never replaces a
    user chain, and a cloak rule never shares a user rule's name: where
    a name is taken, it gets the first free ``<name>#<n>``.
    """
    chains = dict(user_prog.chains)
    user_rules = {r.name for chain in chains.values() for r in chain.rules}
    bindings = []
    user_bound = dict(user_prog.bindings)
    added = {}   # (cloak chain, user chain or None) -> added chain's name
    for syscall, cloak_name in cloak_prog.bindings:
        user_name = user_bound.get(syscall)
        if (cloak_name, user_name) not in added:
            rules = tuple(replace(r, name=_free(r.name, user_rules))
                          for r in cloak_prog.chains[cloak_name].rules)
            name = cloak_name
            if user_name is not None:
                name = f"{cloak_name}+{user_name}"
                rules += tuple(_shift_jumps(r, len(rules))
                               for r in chains[user_name].rules)
            fresh = _free(name, chains)
            chains[fresh] = RuleChain(fresh, rules)
            added[cloak_name, user_name] = fresh
        bindings.append((syscall, added[cloak_name, user_name]))
    for syscall, chain_name in user_prog.bindings:
        if not any(sc == syscall for sc, _ in bindings):
            bindings.append((syscall, chain_name))
    return RuleProgram(chains=chains, bindings=bindings)
