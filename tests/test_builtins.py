import random
import string

import pytest

from apate.builtins import (WildcardPattern, check_params,
                            rewrite_loop_hazard)
from apate.engine import EvalContext, eval_condition, run_action_chain
from apate.model import Action, ActionChain, Condition

from conftest import make_ctx, make_event


class TestWildcardPattern:
    def test_exact_and_prefix(self):
        assert WildcardPattern("mysql").matches("mysql")
        assert not WildcardPattern("mysql").matches("mysqld")
        assert WildcardPattern("mysql*").matches("mysqld")
        assert WildcardPattern("*").matches("anything at all")
        assert WildcardPattern("*").matches("")

    def test_randomized_against_prefix_oracle(self):
        rng = random.Random(11)
        alphabet = string.ascii_lowercase + "/._"
        for _ in range(500):
            prefix = "".join(rng.choices(alphabet, k=rng.randint(0, 8)))
            s = "".join(rng.choices(alphabet, k=rng.randint(0, 12)))
            assert WildcardPattern(prefix + "*").matches(s) == s.startswith(prefix)
            assert WildcardPattern(prefix).matches(s) == (s == prefix) \
                or prefix == ""  # "" pattern matches only ""
        assert WildcardPattern("").matches("")
        assert not WildcardPattern("").matches("x")

    def test_invalid_patterns_rejected(self):
        with pytest.raises(ValueError):
            WildcardPattern("a*b")
        with pytest.raises(ValueError):
            WildcardPattern("**")


class TestConditions:
    def test_testforparam_paper_example(self, sandbox):
        cond = Condition("testforparam", (0, "/etc/passwd"))
        assert eval_condition(cond, make_event("open", "/etc/passwd", "r"),
                              sandbox) == 1
        assert eval_condition(cond, make_event("open", "/etc/shadow", "r"),
                              sandbox) == 0

    def test_testforparam_wildcard(self, sandbox):
        cond = Condition("testforparam", (0, "/var/lib/mysql/*"))
        ev = make_event("open", "/var/lib/mysql/ib_logfile0", "r")
        assert eval_condition(cond, ev, sandbox) == 1

    def test_testforuid(self, sandbox):
        gt0 = Condition("testforuid", (">", 0))
        assert eval_condition(gt0, make_event("getpid", ctx=make_ctx(uid=1000)),
                              sandbox) == 1
        assert eval_condition(gt0, make_event("getpid", ctx=make_ctx(uid=0)),
                              sandbox) == 0
        eq42 = Condition("testforuid", ("==", 42))
        assert eval_condition(eq42, make_event("getpid", ctx=make_ctx(uid=42)),
                              sandbox) == 1

    def test_testforpname_matches_parent(self, sandbox):
        cond = Condition("testforpname", ("mysql",))
        ev = make_event("getpid", ctx=make_ctx(pname="sh", parent_pname="mysql"))
        assert eval_condition(cond, ev, sandbox) == 1
        ev = make_event("getpid", ctx=make_ctx(pname="mysql", parent_pname="init"))
        assert eval_condition(cond, ev, sandbox) == 0
        ev = make_event("getpid", ctx=make_ctx(parent_pname="mysqld"))
        assert eval_condition(Condition("testforpname", ("mysql*",)), ev,
                              sandbox) == 1

    def test_testforselfpname_matches_own_name(self, sandbox):
        cond = Condition("testforselfpname", ("mysql",))
        ev = make_event("getpid", ctx=make_ctx(pname="mysql", parent_pname="init"))
        assert eval_condition(cond, ev, sandbox) == 1

    def test_ctxfield_cmp(self, sandbox):
        c = Condition("ctxfield_cmp", ("pid", "==", 42))
        assert eval_condition(c, make_event("getpid", ctx=make_ctx(pid=42)),
                              sandbox) == 1
        assert eval_condition(c, make_event("getpid", ctx=make_ctx(pid=43)),
                              sandbox) == 0
        always = Condition("ctxfield_cmp", ("ssid", ">=", 0))
        assert eval_condition(always, make_event("getpid"), sandbox) == 1

    def test_file_keyword(self, sandbox):
        sandbox.vfs.put_file("/ctl/mode", b"enable trap now")
        yes = Condition("file_keyword", ("/ctl/mode", "trap"))
        no = Condition("file_keyword", ("/ctl/mode", "honey"))
        missing = Condition("file_keyword", ("/ctl/other", "trap"))
        empty = Condition("file_keyword", ("/ctl/mode", ""))
        ev = make_event("getpid")
        assert eval_condition(yes, ev, sandbox) == 1
        assert eval_condition(no, ev, sandbox) == 0
        assert eval_condition(missing, ev, sandbox) == 0
        assert eval_condition(empty, ev, sandbox) == 1

    def test_store_cmp_unset_is_zero(self, sandbox):
        c = Condition("store_cmp", ("unset", "==", 0))
        assert eval_condition(c, make_event("getpid"), sandbox) == 1

    def test_store_roundtrip_and_counting(self, sandbox):
        ev = make_event("open", "/x", "r")
        add = ActionChain((Action("store_add", ("opens", 1)),))
        for _ in range(3):
            run_action_chain(add, ev, sandbox)
        c = Condition("store_cmp", ("opens", ">=", 3))
        assert eval_condition(c, make_event("getpid"), sandbox) == 1

    def test_store_set_then_cmp(self, sandbox):
        run_action_chain(ActionChain((Action("store_set", ("n", 3)),)),
                         make_event("getpid"), sandbox)
        assert eval_condition(Condition("store_cmp", ("n", "==", 3)),
                              make_event("getpid"), sandbox) == 1

    def test_testforfdpath(self, sandbox):
        sandbox.vfs.put_file("/var/log/app.log", b"x")
        fd = sandbox.fds.alloc("/var/log/app.log", "r",
                               sandbox.vfs.files["/var/log/app.log"])
        cond = Condition("testforfdpath", (0, "/var/log/app.log"))
        assert eval_condition(cond, make_event("read", fd, 100), sandbox) == 1
        assert eval_condition(cond, make_event("read", fd + 1, 100),
                              sandbox) == 0


class TestManipulateParam:
    def run_one(self, sandbox, arg, pattern, replacement):
        ev = make_event("open", arg, "r")
        chain = ActionChain((Action("manipulateparam",
                                    (0, pattern, replacement)),))
        status, _ = run_action_chain(chain, ev, sandbox)
        return status, ev.args[0]

    def test_redirect_example(self, sandbox):
        status, arg = self.run_one(sandbox, "/var/lib/mysql/ibdata1",
                                   "/var/lib/mysql/*", "/honey/mysql/")
        assert status == 0
        assert arg == "/honey/mysql/ibdata1"

    def test_non_matching_untouched(self, sandbox):
        status, arg = self.run_one(sandbox, "/var/log/syslog",
                                   "/var/lib/mysql/*", "/honey/mysql/")
        assert status == 0
        assert arg == "/var/log/syslog"

    def test_boundary_exact_prefix(self, sandbox):
        _, arg = self.run_one(sandbox, "/var/lib/mysql/",
                              "/var/lib/mysql/*", "/honey/mysql/")
        assert arg == "/honey/mysql/"

    def test_no_double_slash_at_seam(self, sandbox):
        _, arg = self.run_one(sandbox, "/var/lib/mysql/f",
                              "/var/lib/mysql*", "/honey/mysql/")
        assert arg == "/honey/mysql/f"

    def test_exact_match_full_replacement(self, sandbox):
        _, arg = self.run_one(sandbox, "/etc/passwd", "/etc/passwd",
                              "/honey/passwd")
        assert arg == "/honey/passwd"

    def test_idempotent_when_replacement_does_not_rematch(self, sandbox):
        ev = make_event("open", "/var/lib/mysql/ibdata1", "r")
        act = ActionChain((Action("manipulateparam",
                                  (0, "/var/lib/mysql/*", "/honey/mysql/")),))
        run_action_chain(act, ev, sandbox)
        once = ev.args[0]
        run_action_chain(act, ev, sandbox)
        assert ev.args[0] == once

    def test_out_of_range_index_disrupts(self, sandbox):
        ev = make_event("open", "/x", "r")
        chain = ActionChain((Action("manipulateparam", (7, "/x", "/y")),))
        status, _ = run_action_chain(chain, ev, sandbox)
        assert status != 0

    def test_rewrite_loop_hazard_flag(self):
        assert rewrite_loop_hazard((0, "/honey/*", "/honey/deeper/"))
        assert not rewrite_loop_hazard((0, "/var/lib/mysql/*", "/honey/mysql/"))


class TestLogTransparency:
    def test_log_changes_nothing_but_count(self, sandbox):
        sandbox.vfs.put_file("/f", b"data")
        ev = make_event("open", "/f", "r")
        before = sandbox.vfs.digest()
        status, result = run_action_chain(ActionChain((Action("log"),)), ev,
                                          sandbox)
        assert (status, result) == (0, 0)
        assert sandbox.vfs.digest() == before
        assert sandbox.log_count == 1

    def test_sink_failure_is_diagnostic_only(self, sandbox):
        class BrokenSink:
            dropped = 0

            def emit(self, line):
                raise OSError("down")

        sandbox.sinks = [BrokenSink()]
        status, _ = run_action_chain(ActionChain((Action("log"),)),
                                     make_event("getpid"), sandbox)
        assert status == 0
        assert any(d["kind"] == "SinkFailure" for d in sandbox.diagnostics)


class TestCheckParams:
    def test_arity_errors(self):
        assert check_params("testforuid", (">",)) is not None
        assert check_params("testforuid", (">", 0)) is None
        assert check_params("block", ()) is None
        assert check_params("block", (-1,)) is None
        assert check_params("block", (-1, -2)) is not None

    def test_type_errors(self):
        assert check_params("testforparam", ("0", "/x")) is not None
        assert check_params("testforuid", ("~", 0)) is not None
        assert check_params("ctxfield_cmp", ("gid", "==", 0)) is not None
        assert check_params("testforparam", (0, "a*b")) is not None
