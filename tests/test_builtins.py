import json
import random
import string

import pytest

from apate import apc, engine
from apate import builtins as apate_builtins
from apate.builtins import check_params, rewrite_loop_hazard, wildcard
from apate.dsl import compile_source
from apate.engine import dispatch
from apate.errors import ApateError, CorruptRecord
from apate.logsink import args_json
from apate.model import (ALWAYS_TRUE, Action, ActionChain, Condition,
                         ConditionBlock, Disposition, OP_AND, Rule, RuleChain,
                         RuleProgram)
from apate.sandbox import ENOENT, exec_syscall

from conftest import holds, make_ctx, make_event, read_file, run_actions


def _matches(pattern, s, sandbox):
    """Whether pattern matches s, as manipulateparam and filter_dirents
    each decide it through run_actions; they must agree."""
    ev = make_event("open", s, "r")
    chain = ActionChain((Action("manipulateparam", (0, pattern, "R")),))
    assert run_actions(chain, ev, sandbox)[0] == 0
    rewritten = ev.args[0] != s   # "R" starts no s of these alphabets
    # what call_orig leaves after a getdents that listed s alone (s may
    # hold "/" or be empty, so no directory entry can carry it)
    ev = make_event("getdents", "/d")
    sandbox.last_getdents = [s]
    disp = Disposition(ev.seq, ev.syscall, result=1, invoked=True)
    chain = ActionChain((Action("filter_dirents", (pattern,)),))
    assert run_actions(chain, ev, sandbox, disp) == (0, 0 if rewritten else 1)
    assert sandbox.last_getdents == ([] if rewritten else [s])
    return rewritten


class TestWildcard:
    def test_split(self):
        assert wildcard("mysql") == ("mysql", False)
        assert wildcard("mysql*") == ("mysql", True)
        assert wildcard("*") == ("", True)
        assert wildcard("") == ("", False)

    def test_exact_and_prefix(self, sandbox):
        assert _matches("mysql", "mysql", sandbox)
        assert not _matches("mysql", "mysqld", sandbox)
        assert _matches("mysql*", "mysqld", sandbox)
        assert _matches("*", "anything at all", sandbox)
        assert _matches("*", "", sandbox)

    def test_randomized_against_prefix_oracle(self, sandbox):
        rng = random.Random(11)
        alphabet = string.ascii_lowercase + "/._"
        for _ in range(500):
            prefix = "".join(rng.choices(alphabet, k=rng.randint(0, 8)))
            s = "".join(rng.choices(alphabet, k=rng.randint(0, 12)))
            assert _matches(prefix + "*", s, sandbox) == s.startswith(prefix)
            assert _matches(prefix, s, sandbox) == (s == prefix)
            assert rewrite_loop_hazard((0, prefix + "*", s)) == s.startswith(prefix)
            assert rewrite_loop_hazard((0, prefix, s)) == (s == prefix)
        assert _matches("", "", sandbox)
        assert not _matches("", "x", sandbox)

    @pytest.mark.parametrize("pattern", ["a*b", "**"])
    def test_invalid_patterns_rejected(self, sandbox, pattern):
        assert "'*' allowed only once" in check_params("filter_dirents", (pattern,))
        for action in (Action("manipulateparam", (0, pattern, "x")),
                       Action("filter_dirents", (pattern,))):
            with pytest.raises(ApateError, match="allowed only once"):
                run_actions(ActionChain((action,)), make_event("open", "a", "r"),
                            sandbox)


class TestConditions:
    def test_testforparam_paper_example(self, sandbox):
        cond = Condition("testforparam", (0, "/etc/passwd"))
        assert holds(cond, make_event("open", "/etc/passwd", "r"),
                              sandbox) == 1
        assert holds(cond, make_event("open", "/etc/shadow", "r"),
                              sandbox) == 0

    def test_testforparam_wildcard(self, sandbox):
        cond = Condition("testforparam", (0, "/var/lib/mysql/*"))
        ev = make_event("open", "/var/lib/mysql/ib_logfile0", "r")
        assert holds(cond, ev, sandbox) == 1

    def test_testforuid(self, sandbox):
        gt0 = Condition("testforuid", (">", 0))
        assert holds(gt0, make_event("getpid", ctx=make_ctx(uid=1000)),
                              sandbox) == 1
        assert holds(gt0, make_event("getpid", ctx=make_ctx(uid=0)),
                              sandbox) == 0
        eq42 = Condition("testforuid", ("==", 42))
        assert holds(eq42, make_event("getpid", ctx=make_ctx(uid=42)),
                              sandbox) == 1

    def test_testforpname_matches_parent(self, sandbox):
        cond = Condition("testforpname", ("mysql",))
        ev = make_event("getpid", ctx=make_ctx(pname="sh", parent_pname="mysql"))
        assert holds(cond, ev, sandbox) == 1
        ev = make_event("getpid", ctx=make_ctx(pname="mysql", parent_pname="init"))
        assert holds(cond, ev, sandbox) == 0
        ev = make_event("getpid", ctx=make_ctx(parent_pname="mysqld"))
        assert holds(Condition("testforpname", ("mysql*",)), ev,
                              sandbox) == 1

    def test_testforselfpname_matches_own_name(self, sandbox):
        cond = Condition("testforselfpname", ("mysql",))
        ev = make_event("getpid", ctx=make_ctx(pname="mysql", parent_pname="init"))
        assert holds(cond, ev, sandbox) == 1

    def test_ctxfield_cmp(self, sandbox):
        c = Condition("ctxfield_cmp", ("pid", "==", 42))
        assert holds(c, make_event("getpid", ctx=make_ctx(pid=42)),
                              sandbox) == 1
        assert holds(c, make_event("getpid", ctx=make_ctx(pid=43)),
                              sandbox) == 0
        always = Condition("ctxfield_cmp", ("ssid", ">=", 0))
        assert holds(always, make_event("getpid"), sandbox) == 1

    def test_file_keyword(self, sandbox):
        sandbox.vfs.put_file("/ctl/mode", b"enable trap now")
        yes = Condition("file_keyword", ("/ctl/mode", "trap"))
        no = Condition("file_keyword", ("/ctl/mode", "honey"))
        missing = Condition("file_keyword", ("/ctl/other", "trap"))
        empty = Condition("file_keyword", ("/ctl/mode", ""))
        ev = make_event("getpid")
        assert holds(yes, ev, sandbox) == 1
        assert holds(no, ev, sandbox) == 0
        assert holds(missing, ev, sandbox) == 0
        assert holds(empty, ev, sandbox) == 1

    def test_file_keyword_reads_the_file_in_place(self, sandbox):
        class NoCopy(bytearray):
            def __bytes__(self):
                raise AssertionError("file_keyword copied the file")

        sandbox.vfs.put_file("/ctl/mode", b"")
        sandbox.vfs.files["/ctl/mode"] = NoCopy(b"enable trap now")
        found = Condition("file_keyword", ("/ctl/mode", "trap"))
        missing = Condition("file_keyword", ("/ctl/other", "trap"))
        for cond, want, notes in ((found, 1, []), (missing, 0, [
                {"kind": "MissingFile", "detail": "file_keyword: /ctl/other"}])):
            disp = Disposition(0, "getpid")
            assert holds(cond, make_event("getpid"), sandbox, disp) == want
            assert disp.conditions_evaluated == 1
            assert sandbox.diagnostics == notes

    def test_store_cmp_unset_is_zero(self, sandbox):
        c = Condition("store_cmp", ("unset", "==", 0))
        assert holds(c, make_event("getpid"), sandbox) == 1

    def test_store_roundtrip_and_counting(self, sandbox):
        ev = make_event("open", "/x", "r")
        add = ActionChain((Action("store_add", ("opens", 1)),))
        for _ in range(3):
            run_actions(add, ev, sandbox)
        c = Condition("store_cmp", ("opens", ">=", 3))
        assert holds(c, make_event("getpid"), sandbox) == 1

    def test_store_cmp_ordering_past_the_decimal_digit_limit(self, sandbox):
        big = 10 ** 5000    # str() of it raises: the detail shows it in hex
        cond = Condition("store_cmp", ("k", "<", big))
        assert holds(cond, make_event("getpid"), sandbox) == 1   # unset is 0
        sandbox.store.set("k", "text")
        assert holds(cond, make_event("getpid"), sandbox) == 0
        assert sandbox.diagnostics[-1] == {
            "kind": "StoreTypeMismatch",
            "detail": f"store_cmp: 'k' < {big:#x} on a non-int cell"}

    def test_store_set_then_cmp(self, sandbox):
        run_actions(ActionChain((Action("store_set", ("n", 3)),)),
                         make_event("getpid"), sandbox)
        assert holds(Condition("store_cmp", ("n", "==", 3)),
                              make_event("getpid"), sandbox) == 1

    def test_testforfdpath(self, sandbox):
        sandbox.vfs.put_file("/var/log/app.log", b"x")
        fd = sandbox.fds.alloc("/var/log/app.log", "r",
                               sandbox.vfs.files["/var/log/app.log"])
        cond = Condition("testforfdpath", (0, "/var/log/app.log"))
        assert holds(cond, make_event("read", fd, 100), sandbox) == 1
        assert holds(cond, make_event("read", fd + 1, 100),
                              sandbox) == 0

    def test_testforfdpath_needs_an_exact_int_descriptor(self, sandbox):
        # A JSON 3.0 hashes like 3 but names no descriptor.
        sandbox.vfs.put_file("/f", b"x")
        fd = sandbox.fds.alloc("/f", "r", sandbox.vfs.files["/f"])
        cond = Condition("testforfdpath", (0, "*"))
        assert holds(cond, make_event("read", fd, 1), sandbox) == 1
        assert holds(cond, make_event("read", float(fd), 1), sandbox) == 0
        assert sandbox.fds.path_of(float(fd)) is None


class TestManipulateParam:
    def run_one(self, sandbox, arg, pattern, replacement):
        ev = make_event("open", arg, "r")
        chain = ActionChain((Action("manipulateparam",
                                    (0, pattern, replacement)),))
        status, _ = run_actions(chain, ev, sandbox)
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
        run_actions(act, ev, sandbox)
        once = ev.args[0]
        run_actions(act, ev, sandbox)
        assert ev.args[0] == once

    def test_out_of_range_index_disrupts(self, sandbox):
        ev = make_event("open", "/x", "r")
        chain = ActionChain((Action("manipulateparam", (7, "/x", "/y")),))
        status, _ = run_actions(chain, ev, sandbox)
        assert status != 0

    def test_rewrite_loop_hazard_flag(self):
        assert rewrite_loop_hazard((0, "/honey/*", "/honey/deeper/"))
        assert not rewrite_loop_hazard((0, "/var/lib/mysql/*", "/honey/mysql/"))


class TestFilterDirents:
    """filter_dirents edits only its own event's listing: a getdents
    whose call_orig ran in the chain and succeeded.  On any other event
    it changes neither the result, the offset nor last_getdents."""

    SOURCE = ("define r as rule\ndefine rc as rulechain\n"
              "let r be {{testforuid(\">=\";0)}->%s}\n"
              "let rc be {r}\nbind rc to sys_%s\n")

    @pytest.mark.parametrize("actions, syscall, args, want", [
        ('call_orig(),filter_dirents("apate.log")', "open", ("/f", "r"), 4),
        ('call_orig(),filter_dirents("*")', "read", (3, 4), 4),
        ('filter_dirents("apate*"),block(7)', "getdents", ("/var/log",), 7),
        ('call_orig(),filter_dirents("apate*")', "getdents", ("/var/none",),
         ENOENT),
        ('block(5),filter_dirents("*")', "getdents", ("/var/log",), 5),
    ], ids=["open", "read", "before-call-orig", "enoent", "blocked"])
    def test_another_events_listing_is_left_alone(self, sandbox, actions,
                                                 syscall, args, want):
        sandbox.vfs.put_file("/var/log/apate.log", b"")
        sandbox.vfs.put_file("/var/log/syslog", b"")
        sandbox.vfs.put_file("/f", b"0123456789")
        assert exec_syscall(sandbox, make_event("getdents", "/var/log")) == 2
        assert exec_syscall(sandbox, make_event("open", "/f", "r")) == 3
        prog, _ = compile_source(self.SOURCE % (actions, syscall))
        assert dispatch(prog, make_event(syscall, *args), sandbox).result == want
        assert sandbox.fds.get(3)[1] == (4 if syscall == "read" else 0)
        assert sandbox.last_getdents == ["apate.log", "syslog"]
        assert sandbox.diagnostics == []


class TestLogTransparency:
    def test_log_changes_nothing_but_count(self, sandbox):
        sandbox.vfs.put_file("/f", b"data")
        ev = make_event("open", "/f", "r")
        before = sandbox.vfs.digest()
        status, result = run_actions(ActionChain((Action("log"),)), ev,
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
        status, _ = run_actions(ActionChain((Action("log"),)),
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

    def test_int_is_exact_and_any_is_a_literal(self):
        """.apate has str and int literals only: a bool is no int, and
        store_set's value is one of the two."""
        assert check_params("block", (True,)) is not None
        assert check_params("testforuid", (">", False)) is not None
        assert check_params("testforparam", (True, "/x")) is not None
        assert check_params("store_set", ("k", 3)) is None
        assert check_params("store_set", ("k", "v")) is None
        for value in ([1, 2], {"a": 1}, None, True, 1.5):
            assert check_params("store_set", ("k", value)) is not None


# Every string slot, each holding a lone surrogate in turn.
SURROGATE_PARAMS = [
    ("condition", "testforpname", ("a\ud800*",)),
    ("condition", "testforselfpname", ("\udfff",)),
    ("condition", "testforparam", (0, "/\ud800")),
    ("condition", "testforfdpath", (0, "/\ud800")),
    ("condition", "file_keyword", ("/f", "\ud800")),
    ("condition", "file_keyword", ("/f\ud800", "k")),
    ("condition", "store_cmp", ("\ud800", "<", 1)),
    ("action", "manipulateparam", (0, "/a\ud800", "/b")),
    ("action", "manipulateparam", (0, "/a", "/b\ud800")),
    ("action", "store_set", ("\ud800", 1)),
    ("action", "store_set", ("k", "\ud800")),
    ("action", "store_add", ("\ud800", 1)),
    ("action", "filter_dirents", ("\ud800*",)),
]


class TestLoneSurrogate:
    """A string param that is not UTF-8 is refused by the one check, as
    .apate strings refuse it: at load as a CorruptRecord at its line, and
    at bind as an ApateError, never a UnicodeEncodeError."""

    @pytest.mark.parametrize("kind, name, params", SURROGATE_PARAMS)
    def test_check_params(self, kind, name, params):
        assert "lone surrogate" in check_params(name, params)
        encodable = tuple(p.replace("\ud800", "\N{LINE SEPARATOR}")
                          .replace("\udfff", "\U0001f600")
                          if isinstance(p, str) else p for p in params)
        assert check_params(name, encodable) is None

    @pytest.mark.parametrize("kind, name, params", SURROGATE_PARAMS)
    def test_apc_record_is_corrupt_at_its_line(self, kind, name, params):
        tag = "COND" if kind == "condition" else "ACTION"
        blob = ("APATE-RP 1\n"
                'COND\tc0\ttestforuid\t[">",0]\n'
                f"{tag}\tx1\t{name}\t{json.dumps(list(params))}\n")
        with pytest.raises(CorruptRecord, match="^line 3: .*lone surrogate"):
            apc.deserialize(blob.encode())

    @pytest.mark.parametrize("kind, name, params", SURROGATE_PARAMS)
    def test_program_built_in_code_fails_at_bind(self, kind, name, params):
        guard, actions = ALWAYS_TRUE, (Action("log"),)
        if kind == "condition":
            guard = Condition(name, params)
        else:
            actions = (Action(name, params),)
        rule = Rule("r", ConditionBlock(guard, ALWAYS_TRUE, OP_AND),
                    ActionChain(actions))
        prog = RuleProgram({"rc": RuleChain("rc", (rule,))}, [("open", "rc")])
        with pytest.raises(ApateError, match="lone surrogate"):
            engine.validate_program(prog)


NUL_REPLACEMENTS = ["/y\x00", "\x00", "/y\x00/z/"]


class TestNulInReplacement:
    """manipulateparam writes its replacement into a syscall argument, and
    every string slot of a hooked syscall is a C string: a replacement
    holding NUL is refused at compile, at load (at its line) and at bind."""

    @pytest.mark.parametrize("replacement", NUL_REPLACEMENTS)
    def test_check_params(self, replacement):
        assert check_params("manipulateparam", (0, "/x*", replacement)) == (
            f"manipulateparam: NUL character in {replacement!r}")
        assert check_params("manipulateparam",
                            (0, "/x*", replacement.replace("\0", ""))) is None

    def test_pattern_and_other_strings_may_hold_nul(self):
        assert check_params("manipulateparam", (1, "r\x00*", "w")) is None
        assert check_params("store_set", ("k", "a\x00b")) is None
        assert check_params("testforparam", (1, "\x00")) is None

    @pytest.mark.parametrize("replacement", NUL_REPLACEMENTS)
    def test_compile_source_fails_at_its_line(self, replacement):
        text = json.dumps(replacement)     # NUL as \u0000
        source = ("define r as rule\ndefine rc as rulechain\n"
                  f'let r be {{{{always_true()}}->manipulateparam(0;"/x*";{text})}}\n'
                  "let rc be {r}\nbind rc to open\n")
        with pytest.raises(ApateError,
                           match=r"^p\.apate:3:1: manipulateparam: NUL character"):
            compile_source(source, "p.apate")

    @pytest.mark.parametrize("replacement", NUL_REPLACEMENTS)
    def test_apc_record_is_corrupt_at_its_line(self, replacement):
        params = json.dumps([0, "/x*", replacement])
        blob = ("APATE-RP 1\n"
                'COND\tc0\ttestforuid\t[">",0]\n'
                f"ACTION\tx1\tmanipulateparam\t{params}\n")
        with pytest.raises(CorruptRecord,
                           match="^line 3: manipulateparam: NUL character"):
            apc.deserialize(blob.encode())

    def test_program_built_in_code_fails_at_bind(self, sandbox):
        rule = Rule("r", ConditionBlock(ALWAYS_TRUE, ALWAYS_TRUE, OP_AND),
                    ActionChain((Action("manipulateparam",
                                        (0, "/x*", "/y\x00")),
                                 Action("call_orig"))))
        prog = RuleProgram({"rc": RuleChain("rc", (rule,))}, [("open", "rc")])
        with pytest.raises(ApateError, match="NUL character"):
            engine.dispatch(prog, make_event("open", "/xa", "w"), sandbox)
        assert prog.scans is None
        assert read_file(sandbox.vfs, "/y\x00a") is None


BAD_CONDITIONS = [
    ("testforuid", (">= 0 or 1 or 0 <", 5)),
    ("testforuid", ("is not", 5)),
    ("ctxfield_cmp", ("uid.__class__", "==", 1)),
    ("ctxfield_cmp", ("pname", "==", 1)),
    ("ctxfield_cmp", ("uid", "in", 1)),
    ("store_cmp", ("k", "not in", 1)),
]


class TestOneCheck:
    """The emitters trust their params: an operator outside COMPARISONS or
    a context field outside CTX_FIELDS is refused at every way in, before
    any code is generated (no builtins.define call)."""

    @pytest.fixture
    def defined(self, monkeypatch):
        names = []
        real = apate_builtins.define

        def counting(ns, name, lines):
            names.append(name)
            return real(ns, name, lines)

        monkeypatch.setattr(apate_builtins, "define", counting)
        monkeypatch.setattr(engine, "define", counting)
        return names

    @staticmethod
    def source_call(params):
        return "; ".join(f'"{p}"' if isinstance(p, str) else str(p)
                         for p in params)

    @pytest.mark.parametrize("name, params", BAD_CONDITIONS)
    def test_compile_source(self, defined, name, params):
        call = f"{name}({self.source_call(params)})"
        source = ("define r as rule\ndefine rc as rulechain\n"
                  f"let r be {{{{{call}}}->log()}}\n"
                  "let rc be {r}\nbind rc to open\n")
        with pytest.raises(ApateError, match=r"^p\.apate:3:1: "):
            compile_source(source, "p.apate")
        assert defined == []

    @pytest.mark.parametrize("name, params", BAD_CONDITIONS)
    def test_apc_deserialize(self, defined, name, params):
        blob = ("APATE-RP 1\n"
                f"COND\tc0\t{name}\t{args_json(params)}\n"
                "ACTION\ta0\tlog\t[]\nRULE\tr\t(& c0 c0)\ta0\tp:1\n"
                "CHAIN\trc\tr\nBIND\tsys_open\trc\n")
        with pytest.raises(ApateError, match="^line 2: "):
            apc.deserialize(blob.encode())
        assert defined == []

    @pytest.mark.parametrize("name, params", BAD_CONDITIONS)
    def test_validate_program(self, defined, name, params):
        rule = Rule("r", ConditionBlock(Condition(name, params), ALWAYS_TRUE,
                                        OP_AND), ActionChain((Action("log"),)))
        prog = RuleProgram({"rc": RuleChain("rc", (rule,))}, [("open", "rc")])
        with pytest.raises(ApateError):
            engine.validate_program(prog)
        assert defined == [] and prog.scans is None

    @pytest.mark.parametrize("name, params", BAD_CONDITIONS)
    def test_specialize(self, defined, name, params):
        with pytest.raises(ApateError):
            apate_builtins.specialize(name, params)
        assert defined == []
        apate_builtins.specialize("testforuid", (">", 0))
        assert defined == ["guard"]
