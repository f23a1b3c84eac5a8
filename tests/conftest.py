import json
from dataclasses import dataclass

import pytest

from apate.engine import (bind_actions, dispatch, run_action_chain,
                          validate_program)
from apate.model import (Action, ActionChain, ALWAYS_TRUE, Condition,
                         ConditionBlock, Disposition, OP_AND, Rule, RuleChain,
                         RuleProgram, SYSCALLS, SyscallEvent, TaskContext)
from apate.logsink import TRUNCATION_MARK
from apate.replay import EventSource
from apate.sandbox import SandboxState, VirtualFS, split_path

# The worked mysql-redirect example program, verbatim (including line
# continuations and comments) so the lexer handles the real layout.
MYSQL_EXAMPLE = '''define c1,c2,c3 as condition
define r1,r2 as rule
define a1,a2 as action
define cb1 as conditionblock
define rc1 as rulechain
define sy1 as syscall

let c1 be testforpname
let c2 be testforparam
let c3 be testforuid
let a1 be manipulateparam
let a2 be log
let sy1 be sys_open

let cb1 be {(c1("mysql") && c2(0;"/var/\\
   lib/mysql/*"))}

let r1 be {cb1->a1(0;"/var/lib/mysql/*" \\
  ;"/honey/mysql/")}
let r2 be {{c3(">",0)}->a2()}
let rc1 be {r2,:r1} // :defines exit

bind rc1 to sy1
'''

TRUE_LEAF = Condition("testforuid", (">=", 0))
FALSE_LEAF = Condition("testforuid", ("<", 0))


def make_ctx(pid=100, uid=1000, ssid=1, pname="bash", parent_pname="sshd"):
    return TaskContext(pid=pid, uid=uid, ssid=ssid, pname=pname,
                       parent_pname=parent_pname)


_seq = [0]


def make_event(syscall, *args, ctx=None, seq=None):
    if seq is None:
        _seq[0] += 1
        seq = _seq[0]
    return SyscallEvent(seq=seq, syscall=syscall, args=list(args),
                        ctx=ctx or make_ctx())


_BOUND = {}   # id(node) -> (node, the program it guards)


def holds(node, ev, sb, disp=None) -> int:
    """1 iff a condition or condition block holds for ev, else 0.

    The node guards the first rule of a program bound to every syscall
    once per node; the event is blocked by it or by an always-true second
    rule, so its syscall never runs.  Counts into disp the conditions
    dispatch counted for the node.
    """
    hit = _BOUND.get(id(node))
    if hit is None or hit[0] is not node:
        block = (node if isinstance(node, ConditionBlock)
                 else ConditionBlock(node, ALWAYS_TRUE, OP_AND))
        stop = ActionChain((Action("block"),))
        rules = (Rule("r", block, stop, 1),
                 Rule("s", ConditionBlock(ALWAYS_TRUE, ALWAYS_TRUE, OP_AND), stop))
        prog = RuleProgram({"c": RuleChain("c", rules)},
                           [(sc, "c") for sc in SYSCALLS])
        validate_program(prog)
        if len(_BOUND) >= 256:
            _BOUND.clear()
        hit = _BOUND[id(node)] = (node, prog)
    got = dispatch(hit[1], ev, sb)
    if disp is not None:   # less the wrapping leaf and the second rule's two
        disp.conditions_evaluated += (
            got.conditions_evaluated - (not isinstance(node, ConditionBlock))
            - 2 * (got.matched_rules == [1]))
    return 1 if got.matched_rules == [0] else 0


def dispatch_chain(chain, ev, sb):
    """Bind one rule chain on its own and dispatch one event through it."""
    return dispatch(RuleProgram({chain.name: chain}, [(ev.syscall, chain.name)]),
                    ev, sb)


def run_actions(chain, ev, sb, disp=None):
    """Bind an ActionChain and run it into disp (a fresh one if None);
    (status, disp.result)."""
    actions, _ = bind_actions(Rule("r", None, chain))
    disp = disp or Disposition(ev.seq, ev.syscall)
    return run_action_chain(actions, ev, sb, disp), disp.result


def to_dict(d: Disposition) -> dict:
    """A disposition's report entry as a dict; it shares the
    disposition's lists, not copies.  ``json.dumps`` of a list of these
    is the reference for the report's ``events[]`` bytes."""
    return {
        "seq": d.seq,
        "syscall": d.syscall,
        "matched_rules": d.matched_rules,
        "result": d.result,
        "blocked": d.blocked,
        "args": d.manipulated_args,
        "conditions": d.conditions_evaluated,
    }


@dataclass
class LogRecord:
    """A record as parse_record reads it back."""

    ts: str
    seq: int
    pid: int
    uid: int
    syscall: str
    args: list
    result: int


def parse_record(line: str) -> LogRecord:
    """Inverse of logsink.format_record (modulo the truncation marker)."""
    head = line.split("|", 7)
    if len(head) != 8 or head[0] != "apate" or head[1] != "1":
        raise ValueError(f"not a log record: {line!r}")
    tail, result = head[7].rsplit("|", 1)
    if tail.endswith(TRUNCATION_MARK):
        args = [tail]  # truncated payload kept verbatim
    else:
        args = json.loads(tail)
    return LogRecord(ts=head[2], seq=int(head[3]), pid=int(head[4]),
                     uid=int(head[5]), syscall=head[6], args=args,
                     result=int(result))


class MemorySink:
    """Collects formatted lines in a list."""

    def __init__(self):
        self.lines = []
        self.dropped = 0

    def emit(self, line: str) -> None:
        self.lines.append(line)

    def close(self) -> None:
        pass


def check_invariants(vfs: VirtualFS) -> None:
    """VirtualFS's invariants: "/" is a directory, no path is both a file
    and a directory, every entry's parent is a directory, and
    ``children`` indexes exactly the entries in each directory."""
    dirs = vfs.children
    assert "/" in dirs and not dirs.keys() & vfs.files.keys(), (
        "no root, or a path that is both file and dir")
    derived = {d: set() for d in dirs}
    for p in [*vfs.files, *dirs]:
        parent, name = split_path(p)
        assert parent in dirs, f"orphan {p}"
        if p != "/":
            derived[parent].add(name)
    assert dirs == derived, "child index differs from the tree"


def bytes_read(sandbox: SandboxState, fd: int, n: int) -> bytes:
    """The n bytes a read on fd just returned: the n before its offset."""
    _, offset, _, content = sandbox.fds.get(fd)
    return bytes(content[offset - n:offset])


def scan_for_substring(prog: RuleProgram, sandbox: SandboxState,
                       needle: bytes, ctx: TaskContext,
                       root: str = "/") -> dict:
    """Grep-style sweep through the hooked layer.

    Walks every directory visible via getdents, opens and reads every
    visible file, and searches the bytes for ``needle``.  Returns the
    matching paths and how many dispatched syscalls the sweep issued.
    All traffic goes through the rule program, so cloaked entries are
    invisible to the sweep exactly as they would be to an intruder.
    """
    src = EventSource(ctx, start_seq=10_000_000)
    hits = []
    syscalls = 0
    pending = [root]
    while pending:
        directory = pending.pop()
        disp = dispatch(prog, src.event("getdents", directory), sandbox)
        syscalls += 1
        if disp.result < 0:
            continue
        entries = list(sandbox.last_getdents)
        prefix = directory if directory.endswith("/") else directory + "/"
        for name in entries:
            path = prefix + name
            probe = dispatch(prog, src.event("getdents", path), sandbox)
            syscalls += 1
            if probe.result >= 0:
                pending.append(path)
                continue
            disp = dispatch(prog, src.event("open", path, "r"), sandbox)
            syscalls += 1
            if disp.result < 0:
                continue
            fd = disp.result
            content = b""
            while True:
                r = dispatch(prog, src.event("read", fd, 65536), sandbox)
                syscalls += 1
                if r.result <= 0:
                    break
                content += bytes_read(sandbox, fd, r.result)
            dispatch(prog, src.event("close", fd), sandbox)
            syscalls += 1
            if needle in content:
                hits.append(path)
    return {"hits": hits, "syscalls": syscalls}


@pytest.fixture
def sandbox():
    return SandboxState()


@pytest.fixture
def ctx():
    return make_ctx()
