import re

import pytest

from apate import apc, builtins, engine
from apate.bench import (DEFAULT_BUFFER, SETTING_IDS, _source, gen_sizes,
                         make_setting, run_copy, run_suite, stats,
                         subsample_geometric)
from apate.engine import compiled_guard, dispatch, validate_program
from apate.errors import TooFewSamples
from apate.model import (Action, ActionChain, ALWAYS_TRUE, Condition,
                         ConditionBlock, OP_AND, Rule, RuleChain, RuleProgram,
                         SYSCALLS)

from test_dsl import strip_spans


def frozen_program(setting_id: str) -> RuleProgram:
    """m2, m3 or m4 as they were built from model classes before they
    were written in .apate; kept as the reference the compiled ones
    must equal, spans aside."""
    def and_chain(leaves):
        node = ConditionBlock(leaves[0], leaves[1], OP_AND)
        for leaf in leaves[2:]:
            node = ConditionBlock(node, leaf, OP_AND)
        return node

    if setting_id == "m2":
        rule = Rule("m2_r0", ConditionBlock(ALWAYS_TRUE, ALWAYS_TRUE, OP_AND),
                    ActionChain((Action("call_orig"), Action("log"))),
                    exit_flag=1)
        return RuleProgram(chains={"m2_chain": RuleChain("m2_chain", (rule,))},
                           bindings=[(sc, "m2_chain") for sc in SYSCALLS])
    true_leaf = Condition("testforuid", (">=", 0))
    false_leaf = Condition("testforuid", ("<", 0))
    miss_guard = and_chain([true_leaf] * 49 + [false_leaf])
    hit_guard = and_chain([true_leaf] * 50)
    actions = [Action("call_orig")]
    if setting_id == "m4":
        actions.append(Action("log"))
    chain_actions = ActionChain(tuple(actions))
    rules = tuple(Rule(f"{setting_id}_r{i}", miss_guard, chain_actions)
                  for i in range(49)) + (
        Rule(f"{setting_id}_r49", hit_guard, chain_actions, exit_flag=1),)
    name = f"{setting_id}_chain"
    return RuleProgram(chains={name: RuleChain(name, rules)},
                       bindings=[(sc, name) for sc in SYSCALLS])


class TestSizeSchedule:
    def test_dense_region_steps_by_one(self):
        sizes = gen_sizes(10_000)
        assert sizes[:3] == [1, 2, 3]
        assert len(sizes) == 10_000
        assert sizes[-1] == 10_000

    def test_step_changes_at_one_million(self):
        sizes = gen_sizes(1_002_000)
        around = [s for s in sizes if 999_998 <= s <= 1_002_000]
        assert around == [999_998, 999_999, 1_000_000, 1_001_000, 1_002_000]

    def test_step_changes_at_one_hundred_million(self):
        sizes = gen_sizes(102_000_000)
        assert sizes[-4:] == [99_999_000, 100_000_000, 101_000_000,
                              102_000_000]

    def test_bounds_checked(self):
        with pytest.raises(ValueError):
            gen_sizes(0)
        with pytest.raises(ValueError):
            gen_sizes(2_000_000_000)

    def test_subsample_spans_range(self):
        sizes = subsample_geometric(2_000_000, 40)
        assert sizes[0] == 1
        assert sizes[-1] == 2_000_000
        assert sizes == sorted(set(sizes))
        assert len(sizes) <= 40


class TestStats:
    def test_known_sample(self):
        st = stats([1, 2, 3, 4])
        assert st.sd == pytest.approx(1.2909944487, abs=1e-9)
        assert st.var == pytest.approx(1.6666666667, abs=1e-9)
        assert st.iqr == pytest.approx(1.5)
        assert st.median == pytest.approx(2.5)
        assert st.n == 4

    def test_constant_sample(self):
        st = stats([2, 2, 2, 2])
        assert (st.sd, st.var, st.iqr) == (0.0, 0.0, 0.0)
        assert st.median == 2

    def test_too_few(self):
        with pytest.raises(TooFewSamples):
            stats([1.0])


class TestSettings:
    def test_ids_buildable(self):
        for sid in SETTING_IDS:
            setting = make_setting(sid)
            assert setting.id == sid
        with pytest.raises(ValueError):
            make_setting("m5")

    def test_m1_no_interception(self):
        assert make_setting("m1").intercept is False
        assert make_setting("m2").intercept is True

    def test_m3_shape(self):
        prog = make_setting("m3").program
        (chain,) = prog.chains.values()
        assert len(chain.rules) == 50
        assert all(compiled_guard(r.guard)[1] == 50 for r in chain.rules)
        assert [r.exit_flag for r in chain.rules] == [0] * 49 + [1]
        assert len(prog.bindings) == 11

    def test_m4_adds_log(self):
        prog = make_setting("m4").program
        (chain,) = prog.chains.values()
        names = [a.builtin_name for a in chain.rules[-1].actions.actions]
        assert names == ["call_orig", "log"]

    @pytest.mark.parametrize("sid", ["m3", "m4"])
    def test_generated_code_is_pinned(self, sid, monkeypatch):
        """Binding m3 or m4 compiles the miss guard's body, the hit
        guard's, four runs of 16 rules and the scan around them, exactly
        as written out here.  A change to this text changes the code the
        paper's gates time, so those gates are to be rerun with it."""
        from apate import builtins
        from apate.engine import validate_program

        sources = []

        def capturing(source, filename, mode):
            sources.append((filename, source))
            return compile(source, filename, mode)

        monkeypatch.setattr(builtins, "compile", capturing, raising=False)
        validate_program(make_setting(sid).program)

        def body(last):
            return "\n".join(["def body(ev, sb, ctx_uid):", "    g0 = 1",
                              *["    if ctx_uid < 0x0: g0 = 0"] * 49,
                              f"    if ctx_uid {last} 0x0: g0 = 0",
                              "    return g0"])

        def run(first, last):
            return "\n".join(
                ["def run(ev, sb, start, stop, ctx_uid):",
                 *(f"    if start <= {i} < stop and b{i}(ev, sb, ctx_uid): "
                   f"return {i}" for i in range(first, last)),
                 "    return stop"])

        scan = "\n".join([
            "def make(runs):",
            "    def scan(ev, sb, start, stop):",
            "        ctx_uid = ev.ctx.uid",
            "        for run in runs[start // 16:]:",
            "            if (i := run(ev, sb, start, stop, ctx_uid)) < stop: "
            "return i",
            "        return stop",
            "    return scan"])
        assert sources == [
            ("<body>", body(">=")),     # miss: 49 true leaves, then uid < 0
            ("<body>", body("<")),      # hit: 50 true leaves (uid >= 0)
            *(("<run>", run(k, min(k + 16, 50))) for k in range(0, 50, 16)),
            ("<make>", scan)]


@pytest.mark.parametrize("sid", ["m2", "m3", "m4"])
class TestSettingSource:
    """m2-m4 compile from .apate text to the programs they were built as
    by hand: the same rules, guards, chains and bindings, with spans."""

    def test_equals_the_frozen_builder(self, sid):
        prog = make_setting(sid).program
        assert strip_spans(prog) == strip_spans(frozen_program(sid))
        (chain,) = prog.chains.values()
        guards = {id(r.guard) for r in chain.rules}
        assert len(guards) == (1 if sid == "m2" else 2)   # miss is shared

    def test_binding_defines_the_same_code(self, sid, monkeypatch):
        defined = []

        def recording(ns, name, lines):
            defined.append((name, "\n".join(lines)))
            return define(ns, name, lines)

        define = builtins.define
        monkeypatch.setattr(builtins, "define", recording)
        monkeypatch.setattr(engine, "define", recording)
        validate_program(make_setting(sid).program)
        compiled, defined[:] = defined[:], []
        validate_program(frozen_program(sid))
        assert compiled == defined
        assert len(compiled) == (1 if sid == "m2" else 7)

    def test_round_trips_through_apc(self, sid):
        prog = make_setting(sid).program
        again = apc.deserialize(apc.serialize(prog))
        assert again == prog
        assert apc.serialize(again) == apc.serialize(prog)

    def test_each_span_is_the_line_of_its_let(self, sid):
        lines = _source(sid).splitlines()
        (chain,) = make_setting(sid).program.chains.values()
        for rule in chain.rules:
            m = re.fullmatch(rf"<{sid}>:(\d+)", rule.span)
            assert m, rule.span
            assert lines[int(m[1]) - 1].startswith(f"let {rule.name} be ")


class TestCopyWorkload:
    def test_counts_small_file(self):
        # size < buffer: open+open+read(data)+write+read(eof)+close+close+
        # unlink = 8 syscalls.
        _, syscalls, conditions = run_copy(1_000, make_setting("m1"))
        assert syscalls == 8
        assert conditions == 0

    def test_counts_100k_file(self):
        # 100,000 bytes in 65,536-byte reads: 2 data reads + 1 eof read,
        # 2 writes, plus open/open/close/close/unlink = 10 syscalls.
        _, syscalls, conditions = run_copy(100_000, make_setting("m3"))
        assert syscalls == 10
        assert conditions == 10 * 2500

    def test_m2_condition_count(self):
        _, syscalls, conditions = run_copy(100_000, make_setting("m2"))
        assert syscalls == 10
        assert conditions == 10 * 2

    @pytest.mark.parametrize("sid", ["m2", "m3", "m4"])
    def test_no_timed_dispatch_binds(self, sid, monkeypatch):
        """A fresh setting's program is bound before the clock starts, so
        the first copy's runtime holds no binding: every dispatch in the
        timed region finds the program bound."""
        from apate import bench
        bound = []

        def recording(prog, ev, sandbox):
            bound.append(prog.scans is not None)
            return dispatch(prog, ev, sandbox)

        monkeypatch.setattr(bench, "dispatch", recording)
        run_copy(1, make_setting(sid))
        assert bound == [True] * 8

    def test_all_settings_copy_faithfully(self):
        for sid in SETTING_IDS:
            runtime, syscalls, _ = run_copy(10_000, make_setting(sid))
            assert runtime > 0
            assert syscalls == 8


class TestSuite:
    def test_suite_rows_and_csv(self, tmp_path):
        out = tmp_path / "rows.csv"
        summary = tmp_path / "summary.csv"
        settings = [make_setting("m1"), make_setting("m2")]
        rows, summaries = run_suite(settings, sizes=[10, 100], reps=3,
                                    out_path=str(out),
                                    summary_path=str(summary))
        assert len(rows) == 2 * 2 * 3
        assert len(summaries) == 2 * 2
        assert all(s["n"] == 3 for s in summaries)
        header = out.read_text().splitlines()[0]
        assert header == "setting,size,rep,runtime_sec,syscalls,conditions"
        assert len(out.read_text().splitlines()) == 13
        assert len(summary.read_text().splitlines()) == 5
