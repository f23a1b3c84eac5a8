import json

import pytest

from apate.cloak import apply_cloak, cloak_ruleset
from apate.engine import dispatch
from apate.errors import TraceError
from apate.logsink import VfsSink
from apate.model import RuleProgram
from apate.replay import (EventSource, parse_trace, parse_trace_line,
                          replay_trace, scan_for_substring)
from apate.sandbox import ENOENT, SandboxState

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
        fd = sb.fds.alloc(LOG, "r")   # fd acquired around the hook layer
        assert dispatch(cloak, make_event("read", fd, 100), sb).result == ENOENT
        wfd = sb.fds.alloc(LOG, "w")
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
    ])
    def test_trace_errors_carry_line_numbers(self, bad):
        good = self.line()
        with pytest.raises(TraceError) as exc:
            parse_trace(good + "\n" + bad + "\n")
        assert "line 2" in str(exc.value)


class TestReplay:
    def test_report_totals(self):
        from apate.dsl import compile_source
        prog, _ = compile_source(MYSQL_EXAMPLE)
        sb = SandboxState()
        sb.vfs.put_file("/honey/mysql/ibdata1", b"h")
        src = EventSource(make_ctx(parent_pname="mysql"))
        events = [src.event("open", "/var/lib/mysql/ibdata1", "r"),
                  src.event("getpid")]
        report = replay_trace(prog, events, sb)
        assert len(report.dispositions) == 2
        # Chain has two rules of 2 leaves each: 4 conditions per open event;
        # getpid is unbound, zero conditions.
        assert report.total_conditions == 4
        assert report.log_records == 1  # r2 fired for uid 1000
        assert report.vfs_digest == sb.vfs.digest()
        d = report.to_dict()
        assert d["total_conditions"] == 4
        assert len(d["events"]) == 2

    def test_empty_program_passthrough(self):
        sb = SandboxState()
        sb.vfs.put_file("/f", b"x")
        report = replay_trace(RuleProgram(), [make_event("open", "/f", "r")], sb)
        assert report.dispositions[0].result >= 3
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
