"""Predefined log-cloaking rules, written in .apate (CLOAK_SOURCE).

These rules make the honeypot's own logfile invisible to every syscall
issued through the hooked layer: opening, reading, writing, or unlinking
the logfile fails with ENOENT, and directory listings omit its entry.
apply_cloak binds them before the user's chains, each with its exit
flag, so no user rule runs on an event a cloak rule fired on.
"""

from __future__ import annotations

from string import Template

from .dsl import _arg_src, compile_source
from .errors import ApateError
from .model import RuleChain, RuleProgram
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


def _free(name, taken) -> str:
    """name, or the first ``<name>#<n>`` not in taken."""
    fresh, n = name, 0
    while fresh in taken:
        n += 1
        fresh = f"{name}#{n}"
    return fresh


def apply_cloak(user_prog: RuleProgram, cloak_prog: RuleProgram) -> RuleProgram:
    """The user program with the cloak's chains bound before its own.

    Where both bind a syscall, binding runs the cloak chain and then the
    user chain as one (engine.validate_program).  User chains and rules
    are kept as they are; a cloak chain whose name the user program
    already has takes the first free ``<name>#<n>``.
    """
    chains = dict(user_prog.chains)
    names = {}
    for name, chain in cloak_prog.chains.items():
        fresh = names[name] = _free(name, chains)
        chains[fresh] = RuleChain(fresh, chain.rules)
    bindings = [(sc, names[name]) for sc, name in cloak_prog.bindings]
    return RuleProgram(chains, bindings + user_prog.bindings)
