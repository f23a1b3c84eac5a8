import json
import random
from dataclasses import replace

import pytest

from apate import apc
from apate.cloak import CLOAK_SOURCE, apply_cloak, cloak_ruleset
from apate.dsl import _arg_src, compile_source
from apate.engine import dispatch
from apate.errors import TraceError
from apate.logsink import VfsSink
from apate.model import (ALWAYS_TRUE, OP_AND, SYSCALLS, Action, ActionChain,
                         Condition, ConditionBlock, Rule, RuleChain,
                         RuleProgram, SyscallEvent, TaskContext)
from apate.replay import (EventSource, parse_trace, parse_trace_line,
                          replay_trace, scan_for_substring)
from apate.sandbox import ENOENT, SandboxState, normalize_path, parent_of

from conftest import MYSQL_EXAMPLE, make_ctx, make_event

LOG = "/var/log/apate.log"


def cloaked_sandbox():
    sb = SandboxState()
    sb.vfs.put_file(LOG, b"apate|1|secret line\n")
    sb.vfs.put_file("/var/log/syslog", b"ordinary\n")
    sb.sinks = [VfsSink(sb.vfs, LOG)]
    return sb


@pytest.fixture
def cloak():
    return cloak_ruleset(LOG)


class TestCloak:
    def test_open_blocked_with_enoent(self, cloak):
        sb = cloaked_sandbox()
        disp = dispatch(cloak, make_event("open", LOG, "r"), sb)
        assert disp.result == ENOENT
        assert disp.blocked

    def test_other_files_unaffected(self, cloak):
        sb = cloaked_sandbox()
        disp = dispatch(cloak, make_event("open", "/var/log/syslog", "r"), sb)
        assert disp.result >= 3

    def test_unlink_blocked(self, cloak):
        sb = cloaked_sandbox()
        disp = dispatch(cloak, make_event("unlink", LOG), sb)
        assert disp.result == ENOENT
        assert sb.vfs.is_file(LOG)

    def test_read_write_blocked_by_fd(self, cloak):
        sb = cloaked_sandbox()
        fd = sb.fds.alloc(LOG, "r", sb.vfs.files[LOG])  # around the hook layer
        assert dispatch(cloak, make_event("read", fd, 100), sb).result == ENOENT
        wfd = sb.fds.alloc(LOG, "w", sb.vfs.files[LOG])
        assert dispatch(cloak, make_event("write", wfd, 10), sb).result == ENOENT

    def test_getdents_omits_log_entry(self, cloak):
        sb = cloaked_sandbox()
        disp = dispatch(cloak, make_event("getdents", "/var/log"), sb)
        assert disp.result == 1
        assert sb.last_getdents == ["syslog"]

    def test_getdents_elsewhere_untouched(self, cloak):
        sb = cloaked_sandbox()
        disp = dispatch(cloak, make_event("getdents", "/var"), sb)
        assert disp.result == 1
        assert sb.last_getdents == ["log"]

    def test_admin_uid_gets_no_exemption(self, cloak):
        sb = cloaked_sandbox()
        ev = make_event("open", LOG, "r", ctx=make_ctx(uid=0))
        assert dispatch(cloak, ev, sb).result == ENOENT

    def test_merge_keeps_user_rules_running_after_cloak(self, cloak):
        from apate.dsl import compile_source
        user, _ = compile_source(MYSQL_EXAMPLE)
        merged = apply_cloak(user, cloak)
        sb = cloaked_sandbox()
        sb.vfs.put_file("/honey/mysql/ibdata1", b"honeydata")
        # The cloak rule does not fire, so the user redirect still does.
        ev = make_event("open", "/var/lib/mysql/ibdata1", "r",
                        ctx=make_ctx(parent_pname="mysql"))
        disp = dispatch(merged, ev, sb)
        assert disp.result >= 3
        assert sb.fds.path_of(disp.result) == "/honey/mysql/ibdata1"
        # ...and the logfile is still invisible on the same binding.
        assert dispatch(merged, make_event("open", LOG, "r"), sb).result == ENOENT

    @pytest.mark.parametrize("target", [2, 7, -1])
    def test_merge_keeps_user_jump_targets(self, cloak, target):
        always = ConditionBlock(ALWAYS_TRUE, ALWAYS_TRUE, OP_AND)

        def rule(name, action):
            return Rule(name, always, ActionChain((action,)))

        user = RuleProgram(
            chains={"rc": RuleChain("rc", (
                rule("r0", Action("jump", (target,))),
                rule("r1", Action("block", (-1,))),
                rule("r2", Action("store_add", ("r2", 1))),
            ))},
            bindings=[("open", "rc")])
        outcomes = []
        for prog in (user, apply_cloak(user, cloak)):
            sb = cloaked_sandbox()
            disp = dispatch(prog, make_event("open", "/x", "r"), sb)
            outcomes.append((disp.result, disp.blocked, sb.store.get("r2")))
        assert outcomes[0] == outcomes[1]
        if target == 2:
            assert outcomes[0] == (ENOENT, False, 1)

    def test_merge_preserves_unrelated_user_bindings(self, cloak):
        from apate.dsl import compile_source
        user, _ = compile_source(
            'define r as rule\ndefine rc as rulechain\n'
            'let r be {{always_true()}->log()}\n'
            'let rc be {r}\nbind rc to sys_getpid')
        merged = apply_cloak(user, cloak)
        bound = dict(merged.bindings)
        assert bound["getpid"] == "rc"
        assert set(bound) == {"open", "read", "write", "unlink", "getdents",
                              "getpid"}


# Frozen copy of the cloak as it was built from model constructors before
# it was written in .apate: the reference for the differential test.
def _frozen_cloak_ruleset(log_path: str) -> RuleProgram:
    log_path = normalize_path(log_path)
    log_dir = parent_of(log_path)
    basename = log_path.rsplit("/", 1)[1]
    block = Action("block", (ENOENT,))

    def rule(name, cond, actions):
        return Rule(name, ConditionBlock(cond, ALWAYS_TRUE, OP_AND),
                    ActionChain(tuple(actions)), exit_flag=1, span="cloak")

    by_path = Condition("testforparam", (0, log_path))
    by_fd = Condition("testforfdpath", (0, log_path))
    chains = {
        "_cloak_open": RuleChain("_cloak_open",
                                 (rule("_cloak_open_0", by_path, [block]),)),
        "_cloak_read": RuleChain("_cloak_read",
                                 (rule("_cloak_read_0", by_fd, [block]),)),
        "_cloak_write": RuleChain("_cloak_write",
                                  (rule("_cloak_write_0", by_fd, [block]),)),
        "_cloak_unlink": RuleChain("_cloak_unlink",
                                   (rule("_cloak_unlink_0", by_path, [block]),)),
        "_cloak_getdents": RuleChain(
            "_cloak_getdents",
            (rule("_cloak_getdents_0",
                  Condition("testforparam", (0, log_dir)),
                  [Action("call_orig", ()),
                   Action("filter_dirents", (basename,))]),)),
    }
    bindings = [("open", "_cloak_open"), ("read", "_cloak_read"),
                ("write", "_cloak_write"), ("unlink", "_cloak_unlink"),
                ("getdents", "_cloak_getdents")]
    return RuleProgram(chains=chains, bindings=bindings)


# Forward (r0), backward (r3) and negative (r4) jumps; cloaked, each
# non-negative target moves past the cloak rule.  bash above uid 500
# loops r3 -> r1 -> r2 -> r3 until the jump budget runs out.
JUMPS = '''define r0,r1,r2,r3,r4 as rule
define rc as rulechain
let r0 be {{testforuid(">";500)}->jump(3)}
let r1 be {{testforparam(0;"/var/*")}->store_add("n";1)}
let r2 be {{testforpname("sh")}->log()}
let r3 be {{testforpname("bash")}->jump(1)}
let r4 be {{testforpname("cron")}->jump(-1)}
let rc be {r0,r1,:r2,r3,r4}
bind rc to sys_open
bind rc to sys_read
bind rc to sys_getdents
bind rc to sys_getpid
'''

# A path with a '*' is not here: cloak_ruleset rejects it (test_cli.py).
CLOAK_PATHS = ["/", "/apate.log", "/var/log/apate/today.log",
               '/var/log/q"uote.log', "/var/log/back\\slash.log",
               "/var/log/sp ace.log", "/var/log/caf\u00e9.log",
               "/var/log/new\nline.log"]


def _cloak_trace(rng, log_path, n=300):
    log_dir = parent_of(normalize_path(log_path))
    paths = [log_path, log_dir, "/", "/var", "/var/log", "/var/log/syslog",
             "/srv/a", log_dir.rstrip("/") + "/other", "/var/lib/mysql/x"]
    ctxs = [make_ctx(uid=uid, pname=pname, parent_pname=parent)
            for uid in (0, 1000) for pname in ("sh", "bash", "cron")
            for parent in ("sshd", "mysql")]
    args_for = {
        "open": lambda: [rng.choice(paths), rng.choice(("r", "w", "a"))],
        "close": lambda: [rng.randrange(4, 9)],   # fd 3 stays open
        "read": lambda: [rng.randrange(3, 9), rng.randrange(0, 64)],
        "write": lambda: [rng.randrange(3, 9), rng.randrange(0, 64)],
        "unlink": lambda: [rng.choice(paths)],
        "execve": lambda: [rng.choice(paths), "sh -c id"],
        "getpid": list, "getuid": list,
        "mkdir": lambda: [rng.choice(paths)],
        "rmdir": lambda: [rng.choice(paths)],
        "getdents": lambda: [rng.choice(paths)],
    }
    return [make_event(sc, *args_for[sc](), ctx=rng.choice(ctxs), seq=seq)
            for seq, sc in enumerate(rng.choices(SYSCALLS, k=n), start=1)]


def _replay(prog, log_path, events):
    sb = SandboxState(clock=lambda: "2024-05-01T12:00:00.000000+00:00")
    for path in ("/var/log/syslog", "/srv/a", "/var/lib/mysql/x",
                 parent_of(normalize_path(log_path)).rstrip("/") + "/other"):
        sb.vfs.put_file(path, b"data")
    log = normalize_path(log_path)
    if log != "/":   # fd 3: the log, opened around the hooked layer
        sb.vfs.put_file(log, b"")
        sb.fds.alloc(log, "a", sb.vfs.files[log])
    sb.sinks = [VfsSink(sb.vfs, log_path)]
    out = []
    report = replay_trace(prog, [SyscallEvent(e.seq, e.syscall, list(e.args),
                                              e.ctx) for e in events],
                          sb, out.append)
    return ([(d.result, d.blocked, d.matched_rules, d.manipulated_args,
              d.conditions_evaluated) for d in out], report.vfs_digest)


@pytest.mark.parametrize("user_src", [None, MYSQL_EXAMPLE, JUMPS],
                         ids=["empty", "mysql", "jumps"])
@pytest.mark.parametrize("log_path", CLOAK_PATHS)
def test_cloak_matches_frozen_model_built_cloak(user_src, log_path):
    user = (RuleProgram() if user_src is None
            else compile_source(user_src, "user.apate")[0])
    for seed in (1, 2, 3):
        events = _cloak_trace(random.Random(seed), log_path)
        new = _replay(apply_cloak(user, cloak_ruleset(log_path)), log_path,
                      events)
        old = _replay(apply_cloak(user, _frozen_cloak_ruleset(log_path)),
                      log_path, events)
        assert new == old


@pytest.mark.parametrize("log_path", CLOAK_PATHS)
def test_cloak_source_compiles_cleanly_and_round_trips(log_path):
    path = normalize_path(log_path)
    source = CLOAK_SOURCE.substitute(
        log=_arg_src(path), dir=_arg_src(parent_of(path)),
        name=_arg_src(path.rsplit("/", 1)[1]))
    prog, warnings = compile_source(source, "<cloak>")
    assert warnings == []
    blob = apc.serialize(prog)
    assert blob == apc.serialize(cloak_ruleset(log_path))
    assert apc.serialize(apc.deserialize(blob)) == blob
    assert sorted({r.span for c in prog.chains.values() for r in c.rules}) == [
        "<cloak>:5", "<cloak>:6", "<cloak>:7"]


def _user_rule_named(name) -> RuleProgram:
    """One rule called name on getpid and on each syscall the cloak binds."""
    return compile_source(
        f"define {name} as rule\ndefine rc as rulechain\n"
        f'let {name} be {{{{testforpname("cron")}}->block(-13)}}\n'
        "let rc be {" + name + "}\n"
        + "".join(f"bind rc to {sc}\n"
                  for sc in ("getpid", "open", "read", "getdents")),
        "user.apate")[0]


@pytest.mark.parametrize("name", ["by_path", "by_fd", "listing"])
def test_cloak_rules_never_share_a_user_rule_name(name):
    merged = apply_cloak(_user_rule_named(name), cloak_ruleset(LOG))
    blob = apc.serialize(merged)
    assert apc.serialize(apc.deserialize(blob)) == blob
    rules = {r.name: r.span for c in merged.chains.values() for r in c.rules}
    assert rules[name] == "user.apate:3" and rules[f"{name}#1"] != rules[name]
    events = _cloak_trace(random.Random(5), LOG)
    plain = apply_cloak(_user_rule_named("mine"), cloak_ruleset(LOG))
    assert _replay(merged, LOG, events) == _replay(plain, LOG, events)


def test_cloak_rule_takes_the_first_free_name():
    user = _user_rule_named("by_path")
    (rule,) = user.chains["rc"].rules
    user.chains["rc"] = RuleChain("rc", (rule, replace(rule, name="by_path#1")))
    merged = apply_cloak(user, cloak_ruleset(LOG))
    assert [r.name for r in merged.chains["cloak_path+rc"].rules] == [
        "by_path#2", "by_path", "by_path#1"]
    assert [r.name for r in merged.chains["cloak_path"].rules] == ["by_path#2"]


class TestTraceParsing:
    def line(self, **kw):
        base = {"seq": 1, "syscall": "open", "args": ["/etc/passwd", "r"],
                "ctx": {"pid": 42, "uid": 1000, "ssid": 1, "pname": "bash",
                        "parent_pname": "sshd"}}
        base.update(kw)
        return json.dumps(base)

    def test_parse_line(self):
        ev = parse_trace_line(self.line())
        assert ev.syscall == "open"
        assert ev.ctx.uid == 1000

    def test_len_payload_becomes_int(self):
        ev = parse_trace_line(self.line(syscall="write", args=[3, {"len": 512}]))
        assert ev.args == [3, 512]

    def test_parse_trace_skips_blank_lines(self):
        text = self.line() + "\n\n" + self.line(seq=2) + "\n"
        assert [e.seq for e in parse_trace(text)] == [1, 2]

    @pytest.mark.parametrize("bad", [
        "not json",
        '{"seq":1}',
        '{"seq":1,"syscall":"open","args":["/x"],"ctx":{"pid":1,"uid":0,'
        '"ssid":0,"pname":"a","parent_pname":"b"}}',  # wrong arity
        '{"seq":1,"syscall":"open","args":["/x","r"],"ctx":{"pid":0,"uid":0,'
        '"ssid":0,"pname":"a","parent_pname":"b"}}',  # pid < 1
        '{"seq":"x","syscall":"open","args":["/x","r"],"ctx":{"pid":1,"uid":0,'
        '"ssid":0,"pname":"a","parent_pname":"b"}}',  # non-integer seq
        '{"seq":1,"syscall":"unlink","args":"a","ctx":{"pid":1,"uid":0,'
        '"ssid":0,"pname":"a","parent_pname":"b"}}',  # args not a list
        '{"seq":1,"syscall":"getpid","args":[],"ctx":{"pid":1,"uid":0,'
        '"ssid":0,"pname":"a","parent_pname":"b"}} x',  # trailing data
        '{"seq":1,"syscall":"getpid","args":[],"ctx":{"pid":1,"uid":0,'
        '"ssid":0,"pname":"a","parent_pname":"b"}}{"seq":2,"syscall":'
        '"getpid","args":[],"ctx":{"pid":1,"uid":0,"ssid":0,"pname":"a",'
        '"parent_pname":"b"}}',  # two objects on one line
        '[1]',
        '3',
        '{"seq":1,"syscall":"getpid","args":[],"ctx":5}',
        '{"seq":1,"syscall":"getpid","args":[],"ctx":[1]}',
        '{"seq":1,"syscall":"getpid","args":[],"ctx":{"pid":[1],"uid":0,'
        '"ssid":0,"pname":"a","parent_pname":"b"}}',  # unhashable value
        '{"seq":1,"syscall":"getpid","args":[],"ctx":{"pid":1,"uid":0,'
        '"ssid":0,"pname":"a","parent_pname":"b","tty":1}}',  # unknown key
        '{"seq":1,"syscall":"getpid","args":[],"ctx":{"pid":42.0,"uid":1000,'
        '"ssid":1,"pname":"bash","parent_pname":"sshd"}}',  # == line 1's ctx
        '{"seq":1,"syscall":"getpid","args":[],"ctx":{"pid":1,"uid":0,'
        '"ssid":0,"pname":7,"parent_pname":"b"}}',  # pname not a string
        pytest.param("[" * 100_000, id="deep nesting"),
    ])
    def test_trace_errors_carry_line_numbers(self, bad):
        good = self.line()
        with pytest.raises(TraceError) as exc:
            parse_trace(good + "\n" + bad + "\n")
        assert "line 2" in str(exc.value)


    def test_padding_and_crlf(self):
        text = "  " + self.line() + " \t\r\n\t" + self.line(seq=2) + "\r\n"
        assert [e.seq for e in parse_trace(text)] == [1, 2]
        assert parse_trace_line(" " + self.line() + "\r\n").seq == 1

    def test_equal_ctx_shares_one_task_context(self):
        other = {"pid": 7, "uid": 0, "ssid": 0, "pname": "sh",
                 "parent_pname": "init"}
        a, b, c, d = parse_trace("\n".join(
            [self.line(), self.line(seq=2), self.line(seq=3, ctx=other),
             self.line(seq=4, ctx=dict(other))]))
        assert a.ctx is b.ctx and c.ctx is d.ctx
        assert a.ctx is not c.ctx and a.ctx != c.ctx
        # parse_trace_line alone shares nothing
        assert parse_trace_line(self.line()).ctx is not a.ctx

    def test_differential_against_json_loads(self):
        rng = random.Random(5)
        ctxs = [{"pid": rng.randrange(1, 500), "uid": rng.choice((0, 1000)),
                 "ssid": rng.randrange(3), "pname": rng.choice(("sh", "é")),
                 "parent_pname": rng.choice(("sshd", "cron"))}
                for _ in range(6)]
        paths = ["/etc/passwd", "/var/log/x", "/tmp/ü", "/a b"]
        args_for = {
            "open": lambda: [rng.choice(paths), rng.choice(("r", "w"))],
            "close": lambda: [rng.randrange(3, 40)],
            "read": lambda: [rng.randrange(3, 40), rng.randrange(0, 70_000)],
            "write": lambda: [rng.randrange(3, 40),
                              {"len": rng.randrange(0, 70_000)}],
            "unlink": lambda: [rng.choice(paths)],
            "execve": lambda: [rng.choice(paths), "sh -c 'id'"],
            "getpid": list,
            "getuid": list,
            "mkdir": lambda: [rng.choice(paths)],
            "rmdir": lambda: [rng.choice(paths)],
            "getdents": lambda: [rng.choice(paths)],
        }
        lines = []
        for seq in range(1, 2001):
            syscall = rng.choice(SYSCALLS)
            line = json.dumps({"seq": seq, "syscall": syscall,
                               "args": args_for[syscall](),
                               "ctx": rng.choice(ctxs)},
                              ensure_ascii=rng.random() < 0.5)
            lines.append(rng.choice(("", " ", "\t")) + line
                         + rng.choice(("", "  ", "\r")))
            if rng.random() < 0.05:
                lines.append(rng.choice(("", "   ")))
        events = parse_trace("\n".join(lines))
        expected = []
        for line in lines:
            if line.strip():
                obj = json.loads(line)
                expected.append(SyscallEvent(
                    seq=obj["seq"], syscall=obj["syscall"],
                    args=[a["len"] if isinstance(a, dict) else a
                          for a in obj["args"]],
                    ctx=TaskContext(**obj["ctx"])))
        assert len(events) == len(expected) == 2000
        assert {e.syscall for e in events} == set(SYSCALLS)
        for got, want in zip(events, expected):
            assert (got.seq, got.syscall, got.args) == (want.seq, want.syscall,
                                                        want.args)
            assert type(got.args) is list
            assert got.ctx == want.ctx
        # one TaskContext per distinct ctx object in the trace
        distinct = {json.dumps(json.loads(line)["ctx"])
                    for line in lines if line.strip()}
        assert len({id(e.ctx) for e in events}) == len(distinct)


class TestReplay:
    def test_report_totals(self):
        from apate.dsl import compile_source
        prog, _ = compile_source(MYSQL_EXAMPLE)
        sb = SandboxState()
        sb.vfs.put_file("/honey/mysql/ibdata1", b"h")
        src = EventSource(make_ctx(parent_pname="mysql"))
        events = [src.event("open", "/var/lib/mysql/ibdata1", "r"),
                  src.event("getpid")]
        dispositions = []
        report = replay_trace(prog, events, sb, dispositions.append)
        assert len(dispositions) == 2
        # Chain has two rules of 2 leaves each: 4 conditions per open event;
        # getpid is unbound, zero conditions.
        assert report.total_conditions == 4
        assert report.log_records == 1  # r2 fired for uid 1000
        assert report.vfs_digest == sb.vfs.digest()
        d = report.to_dict()
        assert d["total_conditions"] == 4
        assert [x.seq for x in dispositions] == [e.seq for e in events]

    def test_empty_program_passthrough(self):
        sb = SandboxState()
        sb.vfs.put_file("/f", b"x")
        dispositions = []
        report = replay_trace(RuleProgram(), [make_event("open", "/f", "r")],
                              sb, dispositions.append)
        assert dispositions[0].result >= 3
        assert report.total_conditions == 0


class TestScan:
    def test_scan_finds_plain_needle(self):
        sb = cloaked_sandbox()
        sb.vfs.put_file("/home/user/notes", b"contains apate| marker")
        found = scan_for_substring(RuleProgram(), sb, b"apate|", make_ctx())
        assert sorted(found["hits"]) == ["/home/user/notes", LOG]
        assert found["syscalls"] > 0

    def test_scan_respects_cloak(self):
        sb = cloaked_sandbox()
        cloak = cloak_ruleset(LOG)
        found = scan_for_substring(cloak, sb, b"apate|", make_ctx())
        assert found["hits"] == []
