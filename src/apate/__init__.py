"""apate: a portable honeypot syscall rule system.

Compiles a small configuration language into rule programs, evaluates
them over syscall events against an in-memory sandbox (virtual
filesystem, fd table, scratch store), supports log cloaking, and ships
a copy-workload benchmark harness.
"""

from .model import (Action, ActionChain, ALWAYS_TRUE, Condition,
                    ConditionBlock, Disposition, Rule, RuleChain,
                    RuleProgram, SyscallEvent, SYSCALLS, TaskContext)
from .engine import dispatch
from .sandbox import SandboxState, VirtualFS, exec_syscall, vfs_from_manifest
from .dsl import compile_source
from .apc import deserialize, serialize

__version__ = "0.1.0"

__all__ = [
    "Action", "ActionChain", "ALWAYS_TRUE", "Condition", "ConditionBlock",
    "Disposition", "Rule", "RuleChain", "RuleProgram", "SyscallEvent",
    "SYSCALLS", "TaskContext", "dispatch", "SandboxState", "VirtualFS",
    "exec_syscall", "vfs_from_manifest", "compile_source", "serialize",
    "deserialize", "__version__",
]
