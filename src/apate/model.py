"""Core data model: events, conditions, rules, and compiled programs.

A condition block combines two child truth values d and e with an
operator code f (2 = AND, 4 = OR) via the arithmetic test
``(d + e) * f >= 4``.  Rules pair one condition block (the guard) with
an ordered action chain and an exit flag; a rule chain is evaluated
first to last until a fired rule carries the exit flag.
"""

from __future__ import annotations

from dataclasses import dataclass, field

OP_AND = 2
OP_OR = 4

# Syscall return values for a refused or failing call (negated errnos).
ENOENT = -2
EBADF = -9
EACCES = -13
EEXIST = -17
EINVAL = -22
EFBIG = -27
ENOTEMPTY = -39

# The eleven hooked syscalls: argument slots ("path", "mode", "fd", "count"
# or "argv"; write's count is its byte length) and the errno of a refused
# call, None for getpid/getuid, which cannot fail and return pid or uid.
SYSCALL_TABLE = {
    "open": (("path", "mode"), EACCES),
    "close": (("fd",), EBADF),
    "read": (("fd", "count"), EBADF),
    "write": (("fd", "count"), EBADF),
    "unlink": (("path",), EACCES),
    "execve": (("path", "argv"), EACCES),
    "getpid": ((), None),
    "getuid": ((), None),
    "mkdir": (("path",), EACCES),
    "rmdir": (("path",), EACCES),
    "getdents": (("path",), EBADF),
}

SYSCALLS = tuple(SYSCALL_TABLE)


def hooked_syscall(name: str) -> "str | None":
    """The hooked syscall that ``name`` or ``sys_<name>`` names, or None."""
    bare = name[4:] if name.startswith("sys_") else name
    return bare if bare in SYSCALL_TABLE else None


@dataclass(slots=True)
class TaskContext:
    """Identity of the task issuing a syscall.

    Nothing mutates a TaskContext, so events of one task may share one.
    """

    pid: int
    uid: int
    ssid: int
    pname: str
    parent_pname: str

    def __post_init__(self):
        if not type(self.pid) is type(self.uid) is type(self.ssid) is int:
            raise TypeError("pid, uid and ssid must be integers, got "
                            f"{self.pid!r}, {self.uid!r}, {self.ssid!r}")
        if not type(self.pname) is type(self.parent_pname) is str:
            raise TypeError("pname and parent_pname must be strings, got "
                            f"{self.pname!r}, {self.parent_pname!r}")
        if self.pid < 1 or self.uid < 0 or self.ssid < 0:
            raise ValueError("pid >= 1, uid >= 0, ssid >= 0 required")
        if not self.pname or not self.parent_pname:
            raise ValueError("pname and parent_pname must be non-empty")


@dataclass(slots=True)
class SyscallEvent:
    """One intercepted syscall invocation.

    ``args`` is mutable: manipulating actions rewrite it in place and
    later rules, actions, and the original syscall observe the rewrite.
    """

    seq: int
    syscall: str
    args: list
    ctx: TaskContext

    def __post_init__(self):
        entry = SYSCALL_TABLE.get(self.syscall)
        if entry is None:
            raise ValueError(f"unknown syscall {self.syscall!r}")
        if len(self.args) != len(entry[0]):
            raise ValueError(f"{self.syscall} takes {len(entry[0])} args, "
                             f"got {len(self.args)}")


@dataclass(frozen=True)
class Condition:
    """Leaf predicate: a registered builtin applied to literal params.

    The neutral always-true condition is spelled with builtin name
    ``always_true`` and no params.
    """

    builtin_name: str
    params: tuple = ()


ALWAYS_TRUE = Condition("always_true", ())


@dataclass(frozen=True)
class ConditionBlock:
    """Binary node over conditions / nested blocks.

    Evaluates to 1 exactly when ``(d + e) * op_code >= 4`` where d and e
    are the child results.  Both children are always evaluated; there is
    no short-circuit, so condition counts are deterministic.
    """

    left: "Condition | ConditionBlock"
    right: "Condition | ConditionBlock"
    op_code: int

    def __post_init__(self):
        if self.op_code not in (OP_AND, OP_OR):
            raise ValueError("op_code must be 2 (AND) or 4 (OR)")


@dataclass(frozen=True)
class Action:
    """One atomic action: builtin name plus literal params.

    Execution returns an integer status; 0 means success, any nonzero
    status disrupts the enclosing chain.
    """

    builtin_name: str
    params: tuple = ()


@dataclass(frozen=True)
class ActionChain:
    """Ordered, non-empty list of actions with disrupt-on-error semantics."""

    actions: tuple

    def __post_init__(self):
        if len(self.actions) < 1:
            raise ValueError("action chain must contain at least one action")


@dataclass(frozen=True)
class Rule:
    """Guard + action chain + exit flag; ``name`` is kept for serialization."""

    name: str
    guard: ConditionBlock
    actions: ActionChain
    exit_flag: int = 0
    span: str = "-"


@dataclass(frozen=True)
class RuleChain:
    """Ordered rules, evaluated first to last."""

    name: str
    rules: tuple


@dataclass
class RuleProgram:
    """Compiled, immutable binding of rule chains to syscall names.

    ``bindings`` preserves source order.  Source and .apc bind a syscall
    at most once; a program built in code (a cloaked one) may bind it to
    several chains.  Binding (engine.validate_program) sets ``scans``,
    the one bound form, which dispatch walks: syscall -> (scan, prefix
    sums of the leaf counts, each rule's (bound actions, successor, jump
    target or None), length, whether the jump budget can run out); a
    successor is where traversal goes on after the rule fires.
    """

    chains: dict = field(default_factory=dict)          # name -> RuleChain
    bindings: list = field(default_factory=list)        # [(syscall, chain name)]
    scans: "dict | None" = field(default=None, init=False, compare=False, repr=False)


EMPTY_PROGRAM = RuleProgram()


@dataclass(slots=True)
class Disposition:
    """Outcome of dispatching one event; rules and actions write into it
    as they run.  ``invoked`` (call_orig or block ran, so the original
    call is not run again) is evaluation state and is not reported."""

    seq: int
    syscall: str
    matched_rules: list = field(default_factory=list)
    result: int = 0
    blocked: bool = False
    manipulated_args: "list | tuple" = ()   # dispatch sets the final args
    conditions_evaluated: int = 0
    invoked: bool = False
