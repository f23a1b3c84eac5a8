import dataclasses
import gc
import operator
import random
import sys
import weakref
from pathlib import Path

import pytest

from apate import builtins as apate_builtins
from apate import engine
from apate.builtins import GuardSource
from apate.engine import DEFAULT_JUMP_BUDGET, dispatch, validate_program
from apate.errors import ApateError, UnknownBuiltin
from apate.model import (Action, ActionChain, ALWAYS_TRUE, Condition,
                         ConditionBlock, Disposition, EMPTY_PROGRAM, OP_AND,
                         OP_OR, Rule, RuleChain, RuleProgram, SYSCALLS)
from apate.sandbox import EACCES, SandboxState, errno_default, normalize_path

from conftest import (FALSE_LEAF, TRUE_LEAF, dispatch_chain, holds, make_ctx,
                      make_event, run_actions)


def leaf(value):
    return TRUE_LEAF if value else FALSE_LEAF


def guard_of(value):
    return ConditionBlock(leaf(value), ALWAYS_TRUE, OP_AND)


def chain_of(*rules):
    return RuleChain("chain", tuple(rules))


def simple_rule(name, fires, actions=None, exit_flag=0):
    acts = actions or [Action("store_add", (f"hits_{name}", 1))]
    return Rule(name, guard_of(fires), ActionChain(tuple(acts)), exit_flag)


def long_guard(value):
    """guard_of(value) and 40 true leaves: past INLINE_CHARS, a called body."""
    block = guard_of(value)
    for i in range(40):
        block = ConditionBlock(block, Condition("testforuid", (">=", -i)), OP_AND)
    return block


def compiles(monkeypatch):
    """The file name of each compile() generated code makes from now on."""
    names = []

    def counting(source, filename, mode):
        names.append(filename)
        return compile(source, filename, mode)

    monkeypatch.setattr(apate_builtins, "compile", counting, raising=False)
    return names


class TestConditionBlock:
    def test_truth_table_matches_formula_and_boolean(self, sandbox):
        ev = make_event("getpid")
        for d in (0, 1):
            for e in (0, 1):
                for f in (OP_AND, OP_OR):
                    block = ConditionBlock(leaf(d), leaf(e), f)
                    got = holds(block, ev, sandbox)
                    assert got == (1 if (d + e) * f >= 4 else 0)
                    assert got == ((d and e) if f == OP_AND else (d or e))

    def test_neutralization_preserves_value(self, sandbox):
        ev = make_event("getpid")
        rng = random.Random(7)

        def random_block(depth):
            if depth == 0 or rng.random() < 0.4:
                return leaf(rng.randint(0, 1))
            return ConditionBlock(random_block(depth - 1),
                                  random_block(depth - 1),
                                  rng.choice((OP_AND, OP_OR)))

        for _ in range(300):
            inner = random_block(4)
            block = inner if isinstance(inner, ConditionBlock) \
                else ConditionBlock(inner, leaf(1), OP_AND)
            wrapped = ConditionBlock(block, ALWAYS_TRUE, OP_AND)
            assert (holds(wrapped, ev, sandbox)
                    == holds(block, ev, sandbox))

    def test_no_short_circuit_counts_all_leaves(self, sandbox):
        ev = make_event("getpid")
        block = ConditionBlock(FALSE_LEAF,
                               ConditionBlock(TRUE_LEAF, FALSE_LEAF, OP_OR),
                               OP_AND)
        disp = Disposition(ev.seq, ev.syscall)
        holds(block, ev, sandbox, disp)
        assert disp.conditions_evaluated == 3

    def test_bad_op_code_rejected(self):
        with pytest.raises(ValueError):
            ConditionBlock(TRUE_LEAF, TRUE_LEAF, 3)


class TestEvalCondition:
    def test_always_true(self, sandbox):
        assert holds(ALWAYS_TRUE, make_event("getpid"), sandbox) == 1

    def test_counter_increments(self, sandbox):
        disp = Disposition(1, "getpid")
        holds(TRUE_LEAF, make_event("getpid"), sandbox, disp)
        holds(FALSE_LEAF, make_event("getpid"), sandbox, disp)
        assert disp.conditions_evaluated == 2

    def test_unknown_builtin_raises(self, sandbox):
        with pytest.raises(UnknownBuiltin):
            holds(Condition("nope", ()), make_event("getpid"), sandbox)

    def test_arg_index_out_of_range_is_zero_with_diagnostic(self, sandbox):
        cond = Condition("testforparam", (3, "x"))
        ev = make_event("open", "/etc/passwd", "r")
        assert holds(cond, ev, sandbox) == 0
        assert any(d["kind"] == "ArgIndexOutOfRange"
                   for d in sandbox.diagnostics)


class TestActionChain:
    def test_empty_chain_is_refused(self):
        with pytest.raises(ValueError,
                           match="action chain must contain at least one"):
            ActionChain(())

    def test_disruption_skips_rest_and_sets_errno(self, sandbox):
        sandbox.vfs.put_file("/f", b"hello")
        sandbox.store.set("bad", "not-an-int")
        chain = ActionChain((Action("store_add", ("ok", 1)),
                             Action("store_add", ("bad", 1)),
                             Action("store_add", ("after", 1))))
        ev = make_event("open", "/f", "r")
        status, result = run_actions(chain, ev, sandbox)
        assert status != 0
        assert result == EACCES
        assert sandbox.store.get("ok") == 1
        assert sandbox.store.get("after") == 0
        assert any(d["kind"] == "ChainDisrupted" for d in sandbox.diagnostics)

    def test_call_orig_sets_result(self, sandbox):
        sandbox.vfs.put_file("/tmp/x", b"data")
        ev = make_event("open", "/tmp/x", "r")
        status, result = run_actions(
            ActionChain((Action("log"), Action("call_orig"))), ev, sandbox)
        assert status == 0
        assert result >= 3

    def test_block_then_log_runs_both(self, sandbox):
        ev = make_event("unlink", "/apate.log")
        sandbox.vfs.put_file("/apate.log", b"x")
        disp = Disposition(ev.seq, ev.syscall)
        status, result = run_actions(
            ActionChain((Action("block"), Action("log"))), ev, sandbox, disp)
        assert status == 0
        assert result == -13
        assert disp.blocked and disp.invoked
        assert sandbox.log_count == 1
        assert "/apate.log" in sandbox.vfs.files


class TestEvalChain:
    def test_first_exit_match_stops_traversal(self, sandbox):
        rules = (simple_rule("r0", fires=False),
                 simple_rule("r1", fires=True, exit_flag=1),
                 simple_rule("r2", fires=True, exit_flag=1))
        disp = dispatch_chain(chain_of(*rules), make_event("getpid"), sandbox)
        assert disp.matched_rules == [1]
        assert sandbox.store.get("hits_r2") == 0

    def test_non_exit_rules_accumulate(self, sandbox):
        rules = (simple_rule("r0", fires=True),
                 simple_rule("r1", fires=True),
                 simple_rule("r2", fires=True, exit_flag=1))
        disp = dispatch_chain(chain_of(*rules), make_event("getpid"), sandbox)
        assert disp.matched_rules == [0, 1, 2]

    def test_order_sensitivity(self, sandbox):
        exit_true = simple_rule("a", fires=True, exit_flag=1)
        other = simple_rule("b", fires=True)
        d1 = dispatch_chain(chain_of(exit_true, other), make_event("getpid"),
                        SandboxState())
        d2 = dispatch_chain(chain_of(other, exit_true), make_event("getpid"),
                        SandboxState())
        assert d1.matched_rules == [0]
        assert d2.matched_rules == [0, 1]

    def test_pass_through_when_nothing_invokes(self, sandbox):
        # fired rule logs but never calls call_orig/block: original runs
        sandbox.vfs.put_file("/x", b"abc")
        rule = Rule("r", guard_of(True), ActionChain((Action("log"),)))
        disp = dispatch_chain(chain_of(rule), make_event("open", "/x", "r"),
                          sandbox)
        assert disp.result == 3  # first fd
        assert not disp.blocked

    def test_pass_through_uses_manipulated_args(self, sandbox):
        sandbox.vfs.mkdirs("/honey")
        rule = Rule("r", guard_of(True), ActionChain(
            (Action("manipulateparam", (0, "/var/*", "/honey/")),)))
        disp = dispatch_chain(chain_of(rule),
                          make_event("open", "/var/data", "w"), sandbox)
        assert disp.manipulated_args[0] == "/honey/data"
        assert "/honey/data" in sandbox.vfs.files

    def test_condition_count_2500(self, sandbox):
        # 50 rules x 50-condition AND trees, rules 1..49 false, rule 50 true
        def and_tree(leaves):
            node = ConditionBlock(leaves[0], leaves[1], OP_AND)
            for c in leaves[2:]:
                node = ConditionBlock(node, c, OP_AND)
            return node

        miss = and_tree([TRUE_LEAF] * 49 + [FALSE_LEAF])
        hit = and_tree([TRUE_LEAF] * 50)
        acts = ActionChain((Action("call_orig"),))
        rules = tuple(Rule(f"r{i}", miss, acts) for i in range(49))
        rules += (Rule("r49", hit, acts, exit_flag=1),)
        disp = dispatch_chain(chain_of(*rules), make_event("getpid"), sandbox)
        assert disp.conditions_evaluated == 2500
        assert disp.matched_rules == [49]

    def test_condition_count_deterministic(self):
        rules = (simple_rule("r0", fires=True),
                 simple_rule("r1", fires=False),
                 simple_rule("r2", fires=True, exit_flag=1))
        counts = set()
        for _ in range(5):
            disp = dispatch_chain(chain_of(*rules),
                              make_event("getpid", seq=1), SandboxState())
            counts.add(disp.conditions_evaluated)
        assert len(counts) == 1

    def test_disruption_blocks_event(self, sandbox):
        sandbox.store.set("bad", "str")
        rule = Rule("r", guard_of(True),
                    ActionChain((Action("store_add", ("bad", 1)),)))
        ev = make_event("open", "/nope", "r")
        disp = dispatch_chain(chain_of(rule), ev, sandbox)
        assert disp.blocked
        assert disp.result == EACCES


class TestJump:
    def test_jump_skips_to_target(self, sandbox):
        r0 = Rule("r0", guard_of(True),
                  ActionChain((Action("store_add", ("n", 1)),
                               Action("jump", (2,)))))
        r1 = simple_rule("r1", fires=True)
        r2 = simple_rule("r2", fires=True, exit_flag=1)
        disp = dispatch_chain(chain_of(r0, r1, r2), make_event("getpid"), sandbox)
        assert disp.matched_rules == [0, 2]
        assert sandbox.store.get("hits_r1") == 0

    def test_jump_loop_hits_budget_exactly(self, sandbox):
        r0 = Rule("r0", guard_of(True),
                  ActionChain((Action("store_add", ("n", 1)),
                               Action("jump", (0,)))))
        ev = make_event("getpid")
        disp = dispatch_chain(chain_of(r0), ev, sandbox)
        assert sandbox.store.get("n") == DEFAULT_JUMP_BUDGET == 10_000
        assert disp.blocked
        assert disp.result == errno_default(ev)
        assert any(d["kind"] == "ChainDisrupted"
                   and "BudgetExhausted" in d["detail"]
                   for d in sandbox.diagnostics)

    def test_jump_out_of_range_disrupts(self, sandbox):
        r0 = Rule("r0", guard_of(True), ActionChain((Action("jump", (5,)),)))
        r1 = simple_rule("r1", fires=True)
        r2 = simple_rule("r2", fires=True)
        ev = make_event("open", "/x", "r")
        disp = dispatch_chain(chain_of(r0, r1, r2), ev, sandbox)
        assert disp.blocked
        assert disp.result == EACCES
        assert disp.matched_rules == [0]

    @pytest.mark.parametrize("target", [3, -1])
    def test_jump_just_out_of_range_disrupts(self, sandbox, target):
        r0 = Rule("r0", guard_of(True),
                  ActionChain((Action("jump", (target,)),)), exit_flag=1)
        r1 = simple_rule("r1", fires=True)
        disp = dispatch_chain(chain_of(r0, r1, r1), make_event("getpid"),
                              sandbox)
        assert disp.blocked and disp.matched_rules == [0]
        assert sandbox.diagnostics == [{
            "kind": "ChainDisrupted",
            "detail": f"JumpOutOfRange target={target} len=3"}]

    def test_jump_to_next_is_sequential_equivalent(self, sandbox):
        r0 = Rule("r0", guard_of(True), ActionChain((Action("jump", (1,)),)))
        r1 = simple_rule("r1", fires=True, exit_flag=1)
        disp = dispatch_chain(chain_of(r0, r1), make_event("getpid"), sandbox)
        assert disp.matched_rules == [0, 1]

    def test_jump_wins_over_exit_flag(self, sandbox):
        r0 = Rule("r0", guard_of(True), ActionChain((Action("jump", (2,)),)),
                  exit_flag=1)
        r1 = simple_rule("r1", fires=True)
        r2 = simple_rule("r2", fires=True)
        disp = dispatch_chain(chain_of(r0, r1, r2), make_event("getpid"), sandbox)
        assert disp.matched_rules == [0, 2]
        assert sandbox.store.get("hits_r1") == 0
        assert sandbox.store.get("hits_r2") == 1

    def test_failure_after_jump_disrupts_without_jumping(self, sandbox):
        sandbox.store.set("bad", "str")
        sandbox.vfs.put_file("/x", b"abc")
        r0 = Rule("r0", guard_of(True),
                  ActionChain((Action("jump", (2,)),
                               Action("store_add", ("bad", 1)))))
        r1 = simple_rule("r1", fires=True)
        r2 = simple_rule("r2", fires=True)
        ev = make_event("open", "/x", "r")
        disp = dispatch_chain(chain_of(r0, r1, r2), ev, sandbox)
        assert disp.matched_rules == [0]
        assert disp.blocked
        assert disp.result == EACCES == errno_default(ev)
        assert [d["kind"] for d in sandbox.diagnostics] == ["ChainDisrupted"]
        assert sandbox.store.get("hits_r2") == 0
        assert not sandbox.fds.entries    # the original open never ran

    def test_last_of_two_jumps_wins(self, sandbox):
        r0 = Rule("r0", guard_of(True),
                  ActionChain((Action("jump", (1,)), Action("jump", (2,)))))
        r1 = simple_rule("r1", fires=True)
        r2 = simple_rule("r2", fires=True)
        disp = dispatch_chain(chain_of(r0, r1, r2), make_event("getpid"), sandbox)
        assert disp.matched_rules == [0, 2]
        assert sandbox.store.get("hits_r1") == 0

    def test_block_then_jump_stays_blocked_and_continues(self, sandbox):
        sandbox.vfs.put_file("/x", b"abc")
        r0 = Rule("r0", guard_of(True),
                  ActionChain((Action("block"), Action("jump", (2,)))))
        r1 = simple_rule("r1", fires=True)
        r2 = simple_rule("r2", fires=True)
        disp = dispatch_chain(chain_of(r0, r1, r2), make_event("open", "/x", "r"),
                          sandbox)
        assert disp.matched_rules == [0, 2]
        assert disp.blocked
        assert disp.result == EACCES
        assert sandbox.store.get("hits_r1") == 0
        assert sandbox.store.get("hits_r2") == 1
        assert not sandbox.fds.entries


class TestDispatch:
    def test_unbound_syscall_passes_through_zero_conditions(self, sandbox):
        rule = simple_rule("r", fires=True, exit_flag=1)
        prog = RuleProgram(chains={"rc": RuleChain("rc", (rule,))},
                           bindings=[("open", "rc")])
        ev = make_event("getpid")
        disp = dispatch(prog, ev, sandbox)
        assert disp.conditions_evaluated == 0
        assert disp.result == ev.ctx.pid
        assert disp.matched_rules == []

    def test_empty_program_is_identity(self):
        for syscall, args in (("getpid", ()), ("getuid", ()),
                              ("mkdir", ("/d",)), ("open", ("/d/f", "w"))):
            sb_direct = SandboxState()
            sb_engine = SandboxState()
            from apate.sandbox import exec_syscall
            ev1 = make_event(syscall, *args, seq=1)
            ev2 = make_event(syscall, *args, seq=1)
            r_direct = exec_syscall(sb_direct, ev1)
            disp = dispatch(EMPTY_PROGRAM, ev2, sb_engine)
            assert disp.result == r_direct
            assert sb_direct.vfs.digest() == sb_engine.vfs.digest()


class TestBinding:
    def test_first_dispatch_binds_an_unvalidated_program(self, sandbox):
        prog = RuleProgram(chains={"rc": chain_of(simple_rule("r", True))},
                           bindings=[("getpid", "rc")])
        assert prog.scans is None
        dispatch(prog, make_event("getpid"), sandbox)
        assert set(prog.scans) == {"getpid"}
        assert dataclasses.replace(prog).scans is None

    def test_plan_entries_carry_successors(self):
        """Each entry is (bound actions, successor, jump): the jump target
        if in range (it wins over exit), -1 out of range, the plan's
        length for an exit, else the next rule; a later chain's
        non-negative targets move by the rules before it."""
        def rule(exit_flag, *jumps):
            return Rule("r", guard_of(True), ActionChain(
                (Action("log"), *(Action("jump", (j,)) for j in jumps))),
                exit_flag)
        first = chain_of(rule(0), rule(1), rule(1, 0), rule(0, 8))
        second = RuleChain("b", (rule(0, 1), rule(0, -2), rule(0, 4), rule(1)))
        prog = RuleProgram(chains={"a": first, "b": second},
                           bindings=[("getpid", "a"), ("getpid", "b"),
                                     ("open", "b")])
        validate_program(prog)
        _, _, entries, n, budgeted = prog.scans["getpid"]
        assert (n, budgeted) == (8, True)
        assert [e[1:] for e in entries] == [
            (1, None), (8, None), (0, 0), (-1, 8),
            (5, 5), (-1, -2), (-1, 8), (8, None)]
        assert [e[1:] for e in prog.scans["open"][2]] == [
            (1, 1), (-1, -2), (-1, 4), (4, None)]
        log = apate_builtins.REGISTRY["log"].fn
        assert [fn for fn, *_ in entries[2][0]] == [
            log, apate_builtins.REGISTRY["jump"].fn]
        assert entries[2][0][0] == (log, (),
                                    "ActionFailed index=0 builtin=log")

    def test_shared_guard_is_generated_once(self, monkeypatch):
        blocks = []
        generate = engine.compiled_guard

        def counting(block):
            blocks.append(block)
            return generate(block)

        monkeypatch.setattr(engine, "compiled_guard", counting)
        shared = simple_rule("r", True)
        prog = RuleProgram(chains={"a": chain_of(shared, shared),
                                   "b": chain_of(shared)},
                           bindings=[("open", "a"), ("getpid", "b")])
        validate_program(prog)
        assert blocks == [shared.guard]
        assert prog.scans["open"][2][0] == prog.scans["getpid"][2][0]

    def test_guards_die_with_their_program(self, sandbox, monkeypatch):
        """What binding keeps of its guards, the scans and the long
        guards' bodies, lives only as long as the program."""
        made = []
        generate = engine.compiled_guard

        def recording(block):
            guard, count = generate(block)
            if guard.body is not None:
                made.append(weakref.ref(guard.body))
            return guard, count

        monkeypatch.setattr(engine, "compiled_guard", recording)
        slow = Rule("l", long_guard(True), ActionChain((Action("log"),)))
        prog = RuleProgram(chains={"rc": chain_of(simple_rule("r", False), slow)},
                           bindings=[("getpid", "rc")])
        assert dispatch(prog, make_event("getpid"), sandbox).matched_rules == [1]
        made += [weakref.ref(scan) for scan, *_ in prog.scans.values()]
        assert len(made) == 2 and all(ref() is not None for ref in made)
        del prog
        gc.collect()
        assert all(ref() is None for ref in made)


def _bound_in_turn(first, second, syscall="getpid"):
    """Chains a (first's rules) and b (second's) bound to one syscall."""
    return RuleProgram(chains={"a": RuleChain("a", tuple(first)),
                               "b": RuleChain("b", tuple(second))},
                       bindings=[(syscall, "a"), (syscall, "b")])


class TestComposition:
    """Chains bound to one syscall run as one, in binding order."""

    def test_chains_run_in_binding_order(self, sandbox):
        def last(name):
            return simple_rule(name, True, [Action("store_set", ("last", name))])

        prog = _bound_in_turn([last("a0")], [last("b0")])
        dispatch(prog, make_event("getpid"), sandbox)
        assert sandbox.store.get("last") == "b0"
        prog.bindings.reverse()
        validate_program(prog)
        dispatch(prog, make_event("getpid"), sandbox)
        assert sandbox.store.get("last") == "a0"

    def test_matched_rules_count_across_chains(self, sandbox):
        prog = _bound_in_turn(
            [simple_rule("a0", True), simple_rule("a1", False)],
            [simple_rule("b0", True)])
        disp = dispatch(prog, make_event("getpid"), sandbox)
        assert disp.matched_rules == [0, 2]
        assert disp.conditions_evaluated == 6   # 3 rules x 2 leaves

    def test_later_chain_jumps_within_itself(self, sandbox):
        b0 = Rule("b0", guard_of(True), ActionChain((Action("jump", (1,)),)))
        prog = _bound_in_turn(
            [simple_rule("a0", True), simple_rule("a1", True)],
            [b0, simple_rule("b1", True, exit_flag=1)])
        disp = dispatch(prog, make_event("getpid"), sandbox)
        assert disp.matched_rules == [0, 1, 2, 3]
        assert [sandbox.store.get(f"hits_{n}") for n in ("a0", "a1", "b1")] \
            == [1, 1, 1]
        assert [entry[2] for entry in prog.scans["getpid"][2]] == [
            None, None, 3, None]

    def test_negative_jump_stays_out_of_range(self, sandbox):
        b0 = Rule("b0", guard_of(True), ActionChain((Action("jump", (-1,)),)))
        prog = _bound_in_turn([simple_rule("a0", True)],
                              [b0, simple_rule("b1", True)])
        ev = make_event("getpid")
        disp = dispatch(prog, ev, sandbox)
        assert disp.matched_rules == [0, 1]
        assert disp.blocked and disp.result == errno_default(ev)
        assert sandbox.diagnostics[-1]["detail"] == \
            "JumpOutOfRange target=-1 len=3"
        assert sandbox.store.get("hits_b1") == 0

    def test_exit_flag_in_first_chain_stops_the_second(self, sandbox):
        prog = _bound_in_turn([simple_rule("a0", True, exit_flag=1)],
                              [simple_rule("b0", True)])
        disp = dispatch(prog, make_event("getpid"), sandbox)
        assert disp.matched_rules == [0]
        assert sandbox.store.get("hits_b0") == 0


class TestValidateProgram:
    def test_call_orig_after_block_rejected(self):
        rule = Rule("r", guard_of(True),
                    ActionChain((Action("block"), Action("call_orig"))))
        prog = RuleProgram(chains={"rc": RuleChain("rc", (rule,))},
                           bindings=[("open", "rc")])
        with pytest.raises(ApateError, match="contradictory"):
            validate_program(prog)

    def test_unknown_builtin_rejected(self):
        rule = Rule("r", ConditionBlock(Condition("bogus", ()), ALWAYS_TRUE,
                                        OP_AND),
                    ActionChain((Action("log"),)))
        prog = RuleProgram(chains={"rc": RuleChain("rc", (rule,))},
                           bindings=[("open", "rc")])
        with pytest.raises(UnknownBuiltin):
            validate_program(prog)

    def test_bad_params_rejected(self):
        rule = Rule("r", guard_of(True), ActionChain((Action("jump", ()),)))
        prog = RuleProgram(chains={"rc": RuleChain("rc", (rule,))},
                           bindings=[("open", "rc")])
        with pytest.raises(ApateError, match="jump"):
            validate_program(prog)


# --- generated guards ---------------------------------------------------------

_CMP = {"==": operator.eq, "!=": operator.ne, ">": operator.gt,
        "<": operator.lt, ">=": operator.ge, "<=": operator.le}


def _wild(pattern, s):
    return s.startswith(pattern[:-1]) if pattern.endswith("*") else s == pattern


def _ref_leaf(cond, ev, sb):
    """Each condition builtin's semantics, written out independently."""
    name, p = cond.builtin_name, cond.params
    if name == "always_true":
        return 1
    if name == "testforpname":
        return int(_wild(p[0], ev.ctx.parent_pname))
    if name == "testforselfpname":
        return int(_wild(p[0], ev.ctx.pname))
    if name == "testforuid":
        return int(_CMP[p[0]](ev.ctx.uid, p[1]))
    if name == "ctxfield_cmp":
        return int(_CMP[p[1]](getattr(ev.ctx, p[0]), p[2]))
    if name == "store_cmp":
        cell = sb.store.get(p[0])
        if p[1] not in ("==", "!=") and type(cell) is not int:
            sb.diag("StoreTypeMismatch",
                    f"store_cmp: {p[0]!r} {p[1]} {p[2]} on a non-int cell")
            return 0
        return int(_CMP[p[1]](cell, p[2]))
    if name == "file_keyword":
        content = sb.vfs.read_file(normalize_path(p[0]))
        if content is None:
            sb.diag("MissingFile", f"file_keyword: {p[0]}")
            return 0
        return int(p[1].encode("utf-8") in content)
    index, pattern = p
    if not 0 <= index < len(ev.args):
        sb.diag("ArgIndexOutOfRange", f"{name} index {index} on {ev.syscall}")
        return 0
    value = ev.args[index]
    if name == "testforparam":
        return int(_wild(pattern, str(value)))
    assert name == "testforfdpath"
    path = sb.fds.path_of(value)
    return 0 if path is None else int(_wild(pattern, path))


def _ref_block(node, ev, sb, counter):
    """(d + e) * f >= 4 at every node, both children always evaluated."""
    if isinstance(node, Condition):
        counter[0] += 1
        return _ref_leaf(node, ev, sb)
    d = _ref_block(node.left, ev, sb, counter)
    e = _ref_block(node.right, ev, sb, counter)
    return 1 if (d + e) * node.op_code >= 4 else 0


# Prefixes of several lengths on one subject, two of one length ("ssh-*",
# "bash*"; "/etc/*", "/var/*"), one longer than every value, ones equal to
# a whole value ("mysql*", "/etc/motd*"), "*", and non-ASCII ones.
_NAMES = ("sshd", "s*", "ssh*", "ssh-*", "bash*", "bash", "mysql*",
          "mysqld-and-a-much-longer-name*", "dæ*", "dæmon", "*", "")
_PATHS = ("/etc/*", "/var/*", "/e*", "/etc/m*", "/etc/motd*", "/etc/motd",
          "*", "/var/lib/mysql/*", "/etc/motd/and/a/much/longer/tail*",
          "/ét*", "/étc/ñ", "r", "4*", "/x*")


def _random_leaf(rng):
    kind = rng.choice(("always_true", "testforpname", "testforselfpname",
                       "testforparam", "testforuid", "ctxfield_cmp",
                       "file_keyword", "store_cmp", "testforfdpath"))
    op = rng.choice(tuple(_CMP))
    if kind == "always_true":
        return ALWAYS_TRUE
    if kind in ("testforpname", "testforselfpname"):
        return Condition(kind, (rng.choice(_NAMES),))
    if kind in ("testforparam", "testforfdpath"):
        return Condition(kind, (rng.randint(-1, 2), rng.choice(_PATHS)))
    if kind == "testforuid":
        return Condition(kind, (op, rng.choice((0, 999, 1000, 1001))))
    if kind == "ctxfield_cmp":
        return Condition(kind, (rng.choice(("pid", "uid", "ssid")), op,
                                rng.choice((0, 1, 100, 1000))))
    if kind == "file_keyword":
        return Condition(kind, (rng.choice(("/etc/motd", "/missing")),
                                rng.choice(("apate", "nope", ""))))
    return Condition(kind, (rng.choice(("n", "unset")), op,
                            rng.choice((0, 3, 5))))


def _random_tree(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return _random_leaf(rng)
    return ConditionBlock(_random_tree(rng, depth - 1),
                          _random_tree(rng, depth - 1),
                          rng.choice((OP_AND, OP_OR)))


class TestGeneratedGuards:
    def test_matches_reference_evaluator(self):
        rng = random.Random(20)
        sb = SandboxState()
        sb.vfs.put_file("/etc/motd", b"welcome to apate")
        sb.vfs.put_file("/étc/ñ", b"")
        held = sb.fds.alloc("/etc/motd", "r", sb.vfs.files["/etc/motd"])
        wide = sb.fds.alloc("/étc/ñ", "r", sb.vfs.files["/étc/ñ"])
        sb.store.set("n", 3)
        ctxs = [make_ctx(uid=u, pid=p, ssid=s, pname=n, parent_pname=pn)
                for u, p, s, n, pn in ((1000, 100, 1, "bash", "sshd"),
                                       (0, 1, 0, "mysqld", "mysql"),
                                       (1001, 42, 7, "sh", "ssh-agent"),
                                       (33, 7, 2, "dæmon", "bash"))]
        events = [("open", "/etc/motd", "r"), ("open", "/etc/\udcffx", "w"),
                  ("open", "/étc/ñ", "r"), ("read", wide, 1),
                  ("read", held, 4096), ("read", 99, 10),  # 99: no path
                  ("close", held), ("getpid",), ("write", 4, 17),
                  ("execve", "/bin/sh", "sh -c id"), ("getdents", "/etc")]
        for _ in range(400):
            block = _random_tree(rng, 6)
            if isinstance(block, Condition):
                block = ConditionBlock(block, _random_leaf(rng), OP_OR)
            for syscall, *args in events:
                ev = make_event(syscall, *args, ctx=rng.choice(ctxs))
                mark = len(sb.diagnostics)
                counter = [0]
                want = _ref_block(block, ev, sb, counter)
                want_diags = sb.diagnostics[mark:]
                del sb.diagnostics[mark:]
                disp = Disposition(ev.seq, ev.syscall)
                assert holds(block, ev, sb, disp) == want
                assert disp.conditions_evaluated == counter[0]
                assert sb.diagnostics[mark:] == want_diags

    def test_deep_guards(self, sandbox):
        ev = make_event("getpid", ctx=make_ctx(uid=1000))
        block = ConditionBlock(TRUE_LEAF, TRUE_LEAF, OP_AND)
        for _ in range(4_998):                  # 5,000 leaves, left-deep
            block = ConditionBlock(block, TRUE_LEAF, OP_AND)
        disp = Disposition(ev.seq, ev.syscall)
        assert holds(block, ev, sandbox, disp) == 1
        assert disp.conditions_evaluated == 5_000
        flipped = ConditionBlock(block, FALSE_LEAF, OP_AND)
        assert holds(flipped, ev, sandbox) == 0

        # alternating operators: no run flattens, 2,001 leaves deep
        alt = FALSE_LEAF
        for i in range(2_000):
            op = OP_OR if i % 2 else OP_AND
            alt = ConditionBlock(TRUE_LEAF if op == OP_AND else FALSE_LEAF,
                                 alt, op)
        disp = Disposition(ev.seq, ev.syscall)
        assert holds(alt, ev, sandbox, disp) == 0
        assert disp.conditions_evaluated == 2_001

    @pytest.mark.parametrize("text", [
        '"', "'", "a\nb", ")", "__import__('os')",
        "') or __import__('sys').modules.setdefault('pwned', 1) or ('",
        '" + str(__import__("sys").modules.setdefault("pwned", 1)) + "',
    ])
    def test_param_text_is_never_code(self, sandbox, text):
        sandbox.vfs.put_file("/f", text.encode())
        sandbox.store.set(text, 1)
        hit = make_event("open", text, "r",
                         ctx=make_ctx(pname=text, parent_pname=text))
        miss = make_event("open", text + "x", "r")
        conds = [Condition("testforparam", (0, text)),
                 Condition("testforpname", (text,)),
                 Condition("testforselfpname", (text,)),
                 Condition("store_cmp", (text, "==", 1)),
                 Condition("file_keyword", ("/f", text))]
        for cond in conds:
            assert holds(cond, hit, sandbox) == 1
        assert holds(conds[0], miss, sandbox) == 0
        assert holds(Condition("testforparam", (0, text + "*")),
                              miss, sandbox) == 1
        assert holds(Condition("file_keyword", (text, "x")),
                              hit, sandbox) == 0
        assert sandbox.diagnostics[-1]["detail"] == f"file_keyword: {text}"
        assert "pwned" not in sys.modules

    @pytest.mark.parametrize("cond", [
        Condition("testforuid", (">= 0 or 1 or 0 <", 5)),
        Condition("ctxfield_cmp", ("uid.__class__", "==", 1)),
        Condition("ctxfield_cmp", ("uid", "is not", 1)),
        Condition("store_cmp", ("k", "in", 1)),
    ])
    def test_bad_operator_or_field_rejected(self, sandbox, cond):
        block = ConditionBlock(cond, ALWAYS_TRUE, OP_AND)
        with pytest.raises(ApateError):
            holds(block, make_event("getpid"), sandbox)


# Text a literal must keep whole: quotes, a triple quote, a backslash, a
# named-escape opener, comment and brace characters, NUL, line breaks of
# every kind and a non-BMP character.  check_params refuses a lone
# surrogate (tests/test_builtins.py::TestLoneSurrogate).
_TRICKY = ("'", '"', "'''", "\\", "\\N{", "#", "{}", "\x00", "\r", "\n",
           "\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\u2029",
           "\U0001f600", "a", "é")
_PAD = [Condition("testforuid", (">=", -i)) for i in range(40)]


def _tricky(rng):
    return "".join(rng.choices(_TRICKY, k=rng.randint(1, 5)))


class TestLiteralParams:
    """A param reaches a guard's source only as a literal that compile()
    reads back as an equal value, inline in a scan or in a called body."""

    @staticmethod
    def _check(block, ev, sb, inline=None):
        """guard and a program of it agree with _ref_block; inline, if
        given, is whether the guard runs inline (no called body)."""
        guard, count = engine.compiled_guard(block)
        assert inline is None or (guard.body is None) is inline
        for run in ("holds", "guard"):
            mark = len(sb.diagnostics)
            counter = [0]
            want = _ref_block(block, ev, sb, counter)
            want_diags = sb.diagnostics[mark:]
            del sb.diagnostics[mark:]
            if run == "holds":
                disp = Disposition(ev.seq, ev.syscall)
                assert holds(block, ev, sb, disp) == want
                assert disp.conditions_evaluated == counter[0]
            else:
                got = guard(ev, sb)
                assert type(got) is int and got == want
                assert count == counter[0]
            assert sb.diagnostics[mark:] == want_diags

    def test_tricky_text_matches_reference(self):
        rng = random.Random(24)
        for _ in range(60):
            text, other = _tricky(rng), _tricky(rng)
            pattern = text + "*" if rng.random() < 0.4 else text
            keyword = _tricky(rng)
            conds = [Condition("testforparam", (0, pattern)),
                     Condition("testforparam", (1, pattern)),
                     Condition("testforpname", (pattern,)),
                     Condition("testforselfpname", (pattern,)),
                     Condition("store_cmp", (text, rng.choice(tuple(_CMP)),
                                             rng.choice((0, 3, 5)))),
                     Condition("file_keyword", ("/" + text, keyword)),
                     Condition("file_keyword", ("/" + other, keyword))]
            sb = SandboxState()
            sb.vfs.put_file("/" + text, f"<{keyword}>".encode())
            sb.store.set(text, 3)
            subjects = (text, text + other, other, text[:-1] or other)
            for subject in subjects:
                # a path holds no NUL, so the mode slot carries it whole
                ev = make_event("open", subject.replace("\0", ""), subject,
                                ctx=make_ctx(pname=subject,
                                             parent_pname=rng.choice(subjects)))
                for cond in conds:
                    self._check(ConditionBlock(cond, ALWAYS_TRUE, OP_AND),
                                ev, sb, inline=True)
                    self._check(_chain_block([cond, *_PAD], [OP_AND] * 40,
                                             "left"), ev, sb, inline=False)

    def test_int_past_the_decimal_digit_limit(self, sandbox):
        big = 10 ** 5000 - 1    # 5,000 digits: str() of it raises
        for op, uid, want in (("==", big, 1), ("==", big - 1, 0),
                              ("!=", big - 1, 1), ("<", big - 1, 1),
                              (">=", 0, 0)):
            cond = Condition("testforuid", (op, big))
            ev = make_event("getuid", ctx=make_ctx(uid=uid))
            assert _ref_leaf(cond, ev, sandbox) == want
            self._check(ConditionBlock(cond, ALWAYS_TRUE, OP_AND), ev,
                        sandbox, inline=False)   # over 4,000 hex digits of text

    def test_guards_bind_no_names(self):
        """Inline guards' lines run in the scan as they are: its namespace
        is GUARD_NS, and the params are its code's constants."""
        rules = [Rule(f"r{i}", ConditionBlock(
                     Condition("testforparam", (0, f"/k{i}/*")),
                     Condition("testforuid", ("==", 1000 + i)), OP_AND),
                     ActionChain((Action("log"),))) for i in range(3)]
        prog = RuleProgram({"c": RuleChain("c", tuple(rules))}, [("open", "c")])
        validate_program(prog)
        scan = prog.scans["open"][0]
        assert set(scan.__globals__) == {*apate_builtins.GUARD_NS, "__builtins__"}
        assert {"/k0/", "/k1/", "/k2/", 1000, 1001, 1002} <= set(
            scan.__code__.co_consts)
        assert not [n for n in scan.__code__.co_names if n[0] == "k"]

    @pytest.mark.parametrize("value", [1.5, True, None, bytearray(b"x"),
                                       type("Text", (str,), {})("x")])
    def test_const_writes_only_exact_str_bytes_and_int(self, value):
        with pytest.raises(TypeError):
            GuardSource.const(value)

    def test_str_subclass_param_is_refused_at_bind(self, sandbox):
        text = type("Text", (str,), {"__format__": lambda s, spec: "1) or (1"})
        for cond in (Condition("testforpname", (text("sshd"),)),
                     Condition("testforuid", (text("=="), 0))):
            with pytest.raises(ApateError, match="expected string"):
                holds(cond, make_event("getpid"), sandbox)


# Int literals at and beside the ctx values and the int store cell of
# test_random_guards_match_reference, and past 64 bits.
_EDGES = (-2 ** 64, -1, 0, 1, 2, 6, 7, 8, 41, 42, 43, 99, 100, 101, 999,
          1000, 1001, 2 ** 63, 2 ** 64)


def _any_leaf(rng):
    """A leaf of any condition builtin; a compare's operator is any of six."""
    kind = rng.choice(("always_true", "testforpname", "testforselfpname",
                       "testforparam", "testforuid", "ctxfield_cmp",
                       "file_keyword", "store_cmp", "testforfdpath"))
    op, value = rng.choice(tuple(_CMP)), rng.choice(_EDGES)
    if kind == "always_true":
        return ALWAYS_TRUE
    if kind in ("testforpname", "testforselfpname"):
        return Condition(kind, (rng.choice(_NAMES),))
    if kind in ("testforparam", "testforfdpath"):
        return Condition(kind, (rng.randint(-1, 2), rng.choice(_PATHS)))
    if kind == "testforuid":
        return Condition(kind, (op, value))
    if kind == "ctxfield_cmp":
        return Condition(kind, (rng.choice(("pid", "uid", "ssid")), op, value))
    if kind == "file_keyword":
        return Condition(kind, (rng.choice(("/etc/motd", "/missing")),
                                rng.choice(("apate", "nope"))))
    return Condition(kind, (rng.choice(("n", "s", "unset")), op, value))


def _any_tree(rng, depth):
    """Runs of 2-4 children under either operator, nested to depth."""
    if depth == 0 or rng.random() < 0.3:
        return _any_leaf(rng)
    parts = [_any_tree(rng, depth - 1) for _ in range(rng.randint(2, 4))]
    return _chain_block(parts, [rng.choice((OP_AND, OP_OR)) for _ in parts[1:]],
                        rng.choice(("left", "right")))


class TestCompareLeaves:
    """A compare leaf is one compare: the inverse one in an AND run, the
    compare itself in an OR run.  Every other leaf keeps ``if not``."""

    @staticmethod
    def _line(cond, op_code):
        guard, _ = engine.compiled_guard(ConditionBlock(cond, ALWAYS_TRUE,
                                                        op_code))
        return guard.lines[1]

    @pytest.mark.parametrize("op, inverse", [
        ("==", "!="), ("!=", "=="), ("<", ">="), (">=", "<"), (">", "<="),
        ("<=", ">")])
    def test_each_operator(self, op, inverse):
        for cond, subject in ((Condition("testforuid", (op, 5)), "ctx_uid"),
                              (Condition("ctxfield_cmp", ("pid", op, 5)),
                               "ctx_pid")):
            assert self._line(cond, OP_AND) == f"if {subject} {inverse} 0x5: g0 = 0"
            assert self._line(cond, OP_OR) == f"if {subject} {op} 0x5: g0 = 1"

    @pytest.mark.parametrize("cond, subject, literal", [
        (Condition("testforpname", ("ssh*",)), "ctx_parent_pname_p3", "'ssh'"),
        (Condition("testforselfpname", ("bash",)), "ctx_pname", "'bash'"),
        (Condition("testforparam", (1, "/etc/*")), "a1_p5", "'/etc/'"),
        (Condition("testforfdpath", (0, "/x")), "f0", "'/x'"),
        (Condition("store_cmp", ("k", "==", 3)), "store_get('k')", "0x3"),
        (Condition("testforparam", (-1, "/x")), "am1", "'/x'"),
        (Condition("testforfdpath", (-2, "/x*")), "fm2_p2", "'/x'"),
    ])
    def test_wildcards_and_store_equality(self, cond, subject, literal):
        assert self._line(cond, OP_AND) == f"if {subject} != {literal}: g0 = 0"
        assert self._line(cond, OP_OR) == f"if {subject} == {literal}: g0 = 1"
        if cond.builtin_name == "store_cmp":
            cond = Condition("store_cmp", ("k", "!=", 3))
            assert self._line(cond, OP_AND) == f"if {subject} == {literal}: g0 = 0"

    @pytest.mark.parametrize("cond", [
        ALWAYS_TRUE, Condition("file_keyword", ("/f", "k")),
        Condition("store_cmp", ("k", "<", 3))])
    def test_other_leaves_keep_if_not(self, cond):
        line = self._line(cond, OP_AND)
        assert line.startswith("if not ") and line.endswith(": g0 = 0")
        line = self._line(cond, OP_OR)
        assert line.startswith("if ") and not line.startswith("if not ")
        assert line.endswith(": g0 = 1")

    @pytest.mark.parametrize("op_code", [OP_AND, OP_OR])
    def test_inline_limit_counts_each_compare_as_before(self, op_code):
        """A compare's text was ``(ctx_uid == 0x1)``: 16 characters with a
        one-digit literal, 17 with two.  500 characters still run inline,
        501 in a called body."""
        assert apate_builtins.INLINE_CHARS == 500
        for n_two_digit, inline in ((4, True), (5, False)):
            values = [1] * (31 - n_two_digit) + [16] * n_two_digit
            block = _chain_block([Condition("testforuid", ("==", v))
                                  for v in values], [op_code] * 30, "left")
            assert (engine.compiled_guard(block)[0].body is None) is inline

    @pytest.mark.parametrize("op", list(_CMP))
    def test_compares_at_their_boundaries(self, op):
        """Each compare leaf decides its guard, beside always_true in an
        AND run or a false leaf in an OR run, one below, at and one above
        its subject, inline and in a called body."""
        sb = SandboxState()
        sb.store.set("n", 7)
        sb.store.set("s", "text")
        ev = make_event("getpid", ctx=make_ctx(uid=1000, pid=42, ssid=7))
        conds = [Condition("testforuid", (op, v)) for v in (999, 1000, 1001)]
        conds += [Condition("ctxfield_cmp", (field, op, v))
                  for field, at in (("pid", 42), ("ssid", 7))
                  for v in (at - 1, at, at + 1)]
        conds += [Condition("store_cmp", (key, op, v))
                  for key in ("n", "s", "unset") for v in (-1, 0, 6, 7, 8)]
        for cond in conds:
            for other, op_code in ((ALWAYS_TRUE, OP_AND), (FALSE_LEAF, OP_OR)):
                block = ConditionBlock(cond, other, op_code)
                TestLiteralParams._check(block, ev, sb, inline=True)
                TestLiteralParams._check(_chain_block(
                    [block, *_PAD], [OP_AND] * 40, "left"), ev, sb,
                    inline=False)

    def test_random_guards_match_reference(self):
        """Inline and as a called body, every leaf runs in order: result,
        count and diagnostics agree with _ref_block."""
        rng = random.Random(29)
        sb = SandboxState()
        sb.vfs.put_file("/etc/motd", b"welcome to apate")
        held = sb.fds.alloc("/etc/motd", "r", sb.vfs.files["/etc/motd"])
        sb.store.set("n", 7)
        sb.store.set("s", "text")
        ctxs = [make_ctx(uid=u, pid=p, ssid=s, pname=n, parent_pname=pn)
                for u, p, s, n, pn in ((1000, 100, 1, "bash", "sshd"),
                                       (0, 1, 0, "mysqld", "mysql"),
                                       (1001, 42, 7, "sh", "ssh-agent"),
                                       (2 ** 63, 99, 8, "dæmon", "bash"))]
        events = [("open", "/etc/motd", "r"), ("open", "/étc/ñ", "w"),
                  ("read", held, 4096), ("read", 99, 10),   # 99: no path
                  ("write", "/etc/motd", 3), ("close", held), ("getpid",),
                  ("execve", "/bin/sh", "sh -c id"), ("getdents", "/etc")]
        inline = 0
        for _ in range(150):
            block = _any_tree(rng, 3)
            if isinstance(block, Condition):
                block = ConditionBlock(block, _any_leaf(rng), OP_OR)
            padded = _chain_block([block, *_PAD], [OP_AND] * 40, "left")
            inline += engine.compiled_guard(block)[0].body is None
            for syscall, *args in events:
                ev = make_event(syscall, *args, ctx=rng.choice(ctxs))
                TestLiteralParams._check(block, ev, sb)
                TestLiteralParams._check(padded, ev, sb, inline=False)
        assert 50 < inline < 150

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("workload",
                             ["guard-heavy", "honeypot-mix", "bulk-copy"])
    def test_workload_guards_get_the_same_bodies(self, workload, seed,
                                                 tmp_path, monkeypatch):
        """The guards that get a called body are those that got one with
        every leaf written as ``if not (…)``: each of guard-heavy's 50
        and none of the others' (cloaked, as the workload runs)."""
        from apate.cloak import apply_cloak, cloak_ruleset
        from apate.dsl import compile_source
        monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
        import gen
        inputs = gen.generate(workload, seed, str(tmp_path))
        prog = compile_source(Path(inputs.source).read_text("utf-8"))[0]
        if "--cloak" in inputs.run_flags:
            prog = apply_cloak(prog, cloak_ruleset("/var/log/apate.log"))
        rules = {r.name: r for c in prog.chains.values() for r in c.rules}
        bodies = {name for name, r in rules.items()
                  if engine.compiled_guard(r.guard)[0].body is not None}
        assert bodies == (set(rules) if workload == "guard-heavy" else set())
        assert len(rules) == {"guard-heavy": 50, "honeypot-mix": 5,
                              "bulk-copy": 1}[workload]

    def test_mysql_example_guards_stay_inline(self):
        from apate.cloak import apply_cloak, cloak_ruleset
        from apate.dsl import compile_source
        from conftest import MYSQL_EXAMPLE

        plain = compile_source(MYSQL_EXAMPLE)[0]
        for prog in (plain, apply_cloak(plain,
                                        cloak_ruleset("/var/log/apate.log"))):
            for chain in prog.chains.values():
                for rule in chain.rules:
                    assert engine.compiled_guard(rule.guard)[0].body is None


def _chain_block(leaves, ops, nest):
    """leaves[0] ops[0] leaves[1] ... parenthesized to the left or right."""
    if nest == "left":      # (((c0 o0 c1) o1 c2) o2 c3) ...
        block = leaves[0]
        for op, cond in zip(ops, leaves[1:]):
            block = ConditionBlock(block, cond, op)
        return block
    block = leaves[-1]      # c0 o0 (c1 o1 (c2 o2 c3 ...))
    for cond, op in zip(reversed(leaves[:-1]), reversed(ops)):
        block = ConditionBlock(cond, block, op)
    return block


class TestStatementForm:
    """Each run is a 0/1 flag and each child one statement; every leaf runs."""

    @pytest.mark.parametrize("nest", ["left", "right"])
    def test_3000_deep_alternating_ops_that_fail(self, sandbox, nest):
        depth = 3_000
        ops = [OP_AND if i % 2 else OP_OR for i in range(depth)]
        ev = make_event("getuid", ctx=make_ctx(uid=1000))
        # left: every prefix holds through the || leaves, and the last &&
        # meets a false leaf; right: c0 || (c1 && (c2 || ...)) with the
        # || leaves false and the && leaves true, so only the innermost
        # leaf decides
        if nest == "left":
            leaves = [TRUE_LEAF] * depth + [FALSE_LEAF]
        else:
            leaves = [leaf(i % 2) for i in range(depth)] + [FALSE_LEAF]
        for last, want in ((FALSE_LEAF, 0), (TRUE_LEAF, 1)):
            block = _chain_block(leaves[:-1] + [last], ops, nest)
            disp = Disposition(ev.seq, ev.syscall)
            assert holds(block, ev, sandbox, disp) == want
            assert disp.conditions_evaluated == depth + 1
            guard, count = engine.compiled_guard(block)
            assert count == depth + 1
            assert type(got := guard(ev, sandbox)) is int and got == want

    @pytest.mark.parametrize("padded", [False, True])
    def test_missing_leaves_report_in_leaf_order(self, padded):
        ev = make_event("open", "/etc/passwd", "r", ctx=make_ctx(uid=1000))
        misses = [
            Condition("testforparam", (5, "x")),         # past the arity
            Condition("file_keyword", ("/nope", "k")),   # missing file
            Condition("store_cmp", ("s", "<", 3)),       # str cell ordered
            Condition("testforparam", (7, "y*")),
        ]
        want_kinds = ["ArgIndexOutOfRange", "MissingFile",
                      "StoreTypeMismatch", "ArgIndexOutOfRange"]
        # AND run: a false leaf, then a miss, then nested OR runs of misses
        nested = ConditionBlock(
            misses[1], ConditionBlock(ALWAYS_TRUE, ConditionBlock(
                misses[2], misses[3], OP_OR), OP_AND), OP_OR)
        fails = ConditionBlock(ConditionBlock(
            Condition("testforuid", ("==", 1)), misses[0], OP_AND),
            nested, OP_AND)
        holds_ = ConditionBlock(misses[0], ConditionBlock(
            nested, ALWAYS_TRUE, OP_OR), OP_OR)
        pad = [Condition("testforuid", (">=", -i)) for i in range(40)]
        for block, want, leaves in ((fails, 0, 6), (holds_, 1, 6)):
            if padded:      # past INLINE_CHARS: a called body
                block = ConditionBlock(block, _chain_block(
                    pad, [OP_AND] * (len(pad) - 1), "left"), OP_AND)
                leaves += len(pad)
            guard, count = engine.compiled_guard(block)
            assert isinstance(guard, GuardSource)
            assert (guard.body is not None) is padded
            for run in ("holds", "guard"):
                sb = SandboxState()
                sb.store.set("s", "text")
                if run == "holds":
                    disp = Disposition(ev.seq, ev.syscall)
                    assert holds(block, ev, sb, disp) == want
                    assert disp.conditions_evaluated == leaves
                else:
                    got = guard(ev, sb)
                    assert type(got) is int and got == want
                    assert count == leaves
                assert [d["kind"] for d in sb.diagnostics] == want_kinds
                assert sb.diagnostics[0]["detail"] == \
                    "testforparam index 5 on open"

    def test_cloaked_mysql_example_inlines_every_guard(self):
        from apate.cloak import apply_cloak, cloak_ruleset
        from apate.dsl import compile_source
        from conftest import MYSQL_EXAMPLE

        prog = apply_cloak(compile_source(MYSQL_EXAMPLE)[0],
                           cloak_ruleset("/var/log/apate.log"))
        validate_program(prog)
        assert len(prog.scans) >= 5
        for scan, *_ in prog.scans.values():
            names = scan.__code__.co_names
            assert not [n for n in names if n[0] == "b" and n[1:].isdigit()]
            assert "guard" not in names


ABSENT_LEAVES = [Condition("testforparam", (0, "*")),
                 Condition("testforparam", (1, "/x")),
                 Condition("testforfdpath", (0, "/x*")),
                 Condition("testforparam", (0, "*")),     # repeated
                 Condition("testforparam", (-1, "/x")),
                 Condition("testforfdpath", (-1, "*")),
                 Condition("testforparam", (-2, "/x*"))]


class TestArgLeaves:
    """An argument leaf is one compare; out of range (past the arity or at
    a negative index), its read is an Absent that notes one
    ArgIndexOutOfRange per compare."""

    @pytest.mark.parametrize("syscall", ["getpid", "getuid"])
    @pytest.mark.parametrize("conj", [True, False])
    @pytest.mark.parametrize("padded", [False, True])
    def test_absent_arguments_note_each_leaf_in_order(self, syscall, conj,
                                                      padded):
        ev = make_event(syscall)
        op = OP_AND if conj else OP_OR
        leaves = list(ABSENT_LEAVES)
        if padded:      # past INLINE_CHARS: a called body; the value stays 0
            leaves += [Condition("testforuid", (">=" if conj else "<", -i))
                       for i in range(40)]
        block = _chain_block(leaves, [op] * (len(leaves) - 1), "left")
        guard, count = engine.compiled_guard(block)
        assert (guard.body is not None) is padded
        assert count == len(leaves)
        want = [{"kind": "ArgIndexOutOfRange",
                 "detail": f"{c.builtin_name} index {c.params[0]} on {syscall}"}
                for c in ABSENT_LEAVES]
        for run in ("holds", "guard"):
            sb = SandboxState()
            if run == "holds":
                disp = Disposition(ev.seq, ev.syscall)
                assert holds(block, ev, sb, disp) == 0
                assert disp.conditions_evaluated == len(leaves)
            else:
                got = guard(ev, sb)
                assert type(got) is int and got == 0
            assert sb.diagnostics == want

    def test_absent_ne_notes_one_miss_and_is_true(self, sandbox):
        absent = apate_builtins.Absent(sandbox, "testforparam", 3, "getpid")
        assert (absent != "x") is True
        assert (absent == "x") is False
        assert sandbox.diagnostics == 2 * [{
            "kind": "ArgIndexOutOfRange",
            "detail": "testforparam index 3 on getpid"}]

    def test_in_range_argument_that_names_no_fd_notes_nothing(self, sandbox):
        ev = make_event("close", 99)
        block = ConditionBlock(Condition("testforfdpath", (0, "/x*")),
                               Condition("testforparam", (0, "9*")), OP_AND)
        assert holds(block, ev, sandbox) == 0
        assert sandbox.diagnostics == []
        block = ConditionBlock(block, ABSENT_LEAVES[1], OP_OR)
        assert holds(block, ev, sandbox) == 0
        assert sandbox.diagnostics == [{"kind": "ArgIndexOutOfRange",
                                        "detail": "testforparam index 1 on close"}]
        block = ConditionBlock(Condition("testforparam", (-1, "9*")), block, OP_OR)
        del sandbox.diagnostics[:]
        assert holds(block, ev, sandbox) == 0
        assert sandbox.diagnostics == [
            {"kind": "ArgIndexOutOfRange", "detail": f"testforparam index {i} on close"}
            for i in (-1, 1)]

    def test_called_body_takes_no_nargs(self):
        """nargs feeds only the argument reads' text, which the scan makes,
        so a called body takes the reads its leaves name and not nargs."""
        pad = [Condition("testforuid", (">=", -i)) for i in range(40)]
        args = ConditionBlock(ConditionBlock(
            Condition("testforparam", (0, "/etc/*")),
            Condition("testforfdpath", (0, "/etc/m*")), OP_OR),
            Condition("testforparam", (1, "r")), OP_AND)
        block = ConditionBlock(args, _chain_block(
            pad, [OP_AND] * (len(pad) - 1), "left"), OP_AND)
        guard, _ = engine.compiled_guard(block)
        code = guard.body.__code__
        assert code.co_varnames[:code.co_argcount] == (
            "ev", "sb", "a0_p5", "f0_p6", "a1", "ctx_uid")
        assert "nargs" in guard.reads
        sb = SandboxState()
        sb.vfs.put_file("/etc/motd", b"hi")
        fd = sb.fds.alloc("/etc/motd", "r", sb.vfs.files["/etc/motd"])
        for syscall, *argv in (("open", "/etc/passwd", "r"),
                               ("open", "/etc/passwd", "w"),
                               ("open", "/srv/x", "r"), ("read", fd, 4),
                               ("read", 99, 4), ("close", fd), ("getpid",)):
            ev = make_event(syscall, *argv)
            mark = len(sb.diagnostics)
            counter = [0]
            want = _ref_block(block, ev, sb, counter)
            want_diags = sb.diagnostics[mark:]
            del sb.diagnostics[mark:]
            disp = Disposition(ev.seq, ev.syscall)
            assert holds(block, ev, sb, disp) == want
            assert disp.conditions_evaluated == counter[0] == 43
            assert sb.diagnostics[mark:] == want_diags

    def test_no_range_test_outside_the_reads(self, monkeypatch):
        """A guard-heavy-shaped program: 20 rules of 50 distinct leaves."""
        sources = []

        def capturing(source, filename, mode):
            sources.append(source)
            return compile(source, filename, mode)

        monkeypatch.setattr(apate_builtins, "compile", capturing, raising=False)
        rng = random.Random(19)
        kinds = [lambda k: Condition("testforuid", ("==", 2000 + k)),
                 lambda k: Condition("ctxfield_cmp", ("pid", "<", 50_000 + k)),
                 lambda k: Condition("testforparam", (k % 3, f"/srv/p{k}/*")),
                 lambda k: Condition("testforpname", (f"daemon{k}",)),
                 lambda k: Condition("testforfdpath", (k % 2, f"/data/held{k}*"))]
        rules = [Rule(f"r{i}", _chain_block(
                     [rng.choice(kinds)(50 * i + k) for k in range(50)],
                     [OP_AND] * 49, "left"), ActionChain((Action("call_orig", ()),)))
                 for i in range(20)]
        prog = RuleProgram({"c": RuleChain("c", tuple(rules))},
                           [(sc, "c") for sc in SYSCALLS])
        validate_program(prog)
        assert any("def body(" in s for s in sources)
        reads = 0
        for line in "\n".join(sources).splitlines():
            if "nargs >" in line:
                reads += 1
                name, expr = line.strip().split(" = ", 1)
                assert name[0] in "af" and name[1:].isdigit(), line
                assert expr.endswith(f", {name[1:]}, ev.syscall)"), line
        assert reads == 5     # a0..a2 and f0, f1, in the one scan


FDPATH_LEAVES = [Condition("testforfdpath", (0, "/x*")),
                 Condition("testforfdpath", (0, "*")),
                 Condition("testforfdpath", (0, "/x")),
                 Condition("testforfdpath", (1, "/x*")),
                 Condition("testforfdpath", (-1, "/x*"))]


def _fdpath_events(sb):
    """A path syscall, an open fd, a closed fd, an int that names no fd, a
    bool and getpid, over a sandbox holding /x/held (open) and /x/gone."""
    sb.vfs.put_file("/x/held", b"held")
    sb.vfs.put_file("/x/gone", b"gone")
    held = sb.fds.alloc("/x/held", "r", sb.vfs.files["/x/held"])
    gone = sb.fds.alloc("/x/gone", "r", sb.vfs.files["/x/gone"])
    sb.fds.close(gone)
    return [make_event("open", "/x/held", "r"), make_event("read", held, 4),
            make_event("read", gone, 4), make_event("read", 99, held),
            make_event("read", True, 4), make_event("getpid")]


def _reads(guard, ev, sb):
    """Each of a guard's reads (GuardSource.reads), made in order."""
    ns = {**apate_builtins.GUARD_NS, "ev": ev, "sb": sb}
    for name, expr in guard.reads.items():
        ns[name] = eval(expr, ns)
    return {name: ns[name] for name in guard.reads}


class TestPrefixReads:
    """A wildcard's prefix read of n >= 1 characters is a str (or an
    Absent) on every event, so each compare site sees one type: where a
    descriptor is missing it is '', which no n-character literal equals.
    The n = 0 read of '*' alone stays None there, so '*' matches no
    missing descriptor."""

    @pytest.mark.parametrize("padded", [False, True])
    @pytest.mark.parametrize("cond", FDPATH_LEAVES,
                             ids=lambda c: f"{c.params[0]}:{c.params[1]}")
    def test_leaf_matches_reference_on_every_event(self, cond, padded):
        sb = SandboxState()
        for ev in _fdpath_events(sb):
            for other, op_code in ((ALWAYS_TRUE, OP_AND), (FALSE_LEAF, OP_OR)):
                block = ConditionBlock(cond, other, op_code)
                if padded:
                    block = _chain_block([block, *_PAD], [OP_AND] * 40, "left")
                TestLiteralParams._check(block, ev, sb, inline=not padded)

    def test_prefix_reads_are_never_none(self):
        block = _chain_block([*FDPATH_LEAVES, *_PAD],
                             [OP_AND] * (len(FDPATH_LEAVES) + 39), "left")
        guard, _ = engine.compiled_guard(block)
        assert {"f0_p2", "f0_p0", "f1_p2", "fm1_p2"} <= set(guard.reads)
        sb = SandboxState()
        events = _fdpath_events(sb)
        for ev in events:
            reads = _reads(guard, ev, sb)
            for name, value in reads.items():
                if "_p" in name and name.rsplit("_p", 1)[1] != "0":
                    assert type(value) in (str, apate_builtins.Absent), \
                        (name, ev)
        for ev in (events[0], *events[2:5]):    # no descriptor in slot 0
            reads = _reads(guard, ev, sb)
            assert reads["f0"] is None
            assert reads["f0_p0"] is None and reads["f0_p2"] == ""
        assert sb.diagnostics == []     # making reads compares nothing

    def test_star_alone_never_matches_a_path_syscall(self, sandbox):
        ev = _fdpath_events(sandbox)[0]
        star = ConditionBlock(FDPATH_LEAVES[1], ALWAYS_TRUE, OP_AND)
        for block in (star, _chain_block([star, *_PAD], [OP_AND] * 40, "left")):
            guard, _ = engine.compiled_guard(block)
            assert guard(ev, sandbox) == 0
            assert holds(block, ev, sandbox) == 0
        assert sandbox.diagnostics == []


class TestCompiledOnce:
    """Binding compiles each piece of generated code once, where it runs."""

    def test_cloaked_mysql_example_compiles_once_per_scan(self, monkeypatch):
        from apate.cloak import apply_cloak, cloak_ruleset
        from apate.dsl import compile_source
        from conftest import MYSQL_EXAMPLE

        prog = apply_cloak(compile_source(MYSQL_EXAMPLE)[0],
                           cloak_ruleset("/var/log/apate.log"))
        names = compiles(monkeypatch)
        validate_program(prog)
        scans = {id(scan) for scan, *_ in prog.scans.values()}
        assert len(scans) < len(prog.scans)
        assert names == ["<scan>"] * len(scans)

    def test_long_guard_in_two_plans_compiles_its_body_once(self, sandbox,
                                                            monkeypatch):
        slow = Rule("l", long_guard(True),
                    ActionChain((Action("store_add", ("hits", 1)),)))
        prog = RuleProgram(
            chains={"a": chain_of(slow),
                    "b": RuleChain("b", (simple_rule("s", False), slow))},
            bindings=[("open", "a"), ("getpid", "b")])
        names = compiles(monkeypatch)
        validate_program(prog)
        assert sorted(names) == ["<body>", "<scan>", "<scan>"]
        body = prog.scans["open"][0].__globals__["b0"]
        assert prog.scans["getpid"][0].__globals__["b1"] is body
        assert dispatch(prog, make_event("open", "/x", "r"),
                        sandbox).matched_rules == [0]
        assert dispatch(prog, make_event("getpid"), sandbox).matched_rules == [1]
        assert sandbox.store.get("hits") == 2

    @pytest.mark.parametrize("make", [guard_of, long_guard])
    def test_standalone_guard_compiles_on_its_first_call(self, sandbox,
                                                         monkeypatch, make):
        names = compiles(monkeypatch)
        for value in (0, 1):
            del names[:]
            guard, count = engine.compiled_guard(make(value))
            assert names == ([] if make is guard_of else ["<body>"])
            for _ in range(2):
                got = guard(make_event("getpid"), sandbox)
                assert type(got) is int and got == value
            assert names[1 if make is long_guard else 0:] == ["<guard>"]
