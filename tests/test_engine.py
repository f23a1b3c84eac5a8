import dataclasses
import gc
import operator
import random
import sys
import weakref

import pytest

from apate import engine
from apate.engine import (DEFAULT_JUMP_BUDGET, dispatch,
                          eval_chain, eval_condition, eval_condition_block,
                          run_action_chain, validate_program)
from apate.errors import ApateError, UnknownBuiltin
from apate.model import (Action, ActionChain, ALWAYS_TRUE, Condition,
                         ConditionBlock, Disposition, EMPTY_PROGRAM, OP_AND,
                         OP_OR, Rule, RuleChain, RuleProgram, SYSCALLS)
from apate.sandbox import EACCES, SandboxState, errno_default

from conftest import FALSE_LEAF, TRUE_LEAF, make_ctx, make_event


def leaf(value):
    return TRUE_LEAF if value else FALSE_LEAF


def guard_of(value):
    return ConditionBlock(leaf(value), ALWAYS_TRUE, OP_AND)


def chain_of(*rules):
    return RuleChain("chain", tuple(rules))


def simple_rule(name, fires, actions=None, exit_flag=0):
    acts = actions or [Action("store_add", (f"hits_{name}", 1))]
    return Rule(name, guard_of(fires), ActionChain(tuple(acts)), exit_flag)


class TestConditionBlock:
    def test_truth_table_matches_formula_and_boolean(self, sandbox):
        ev = make_event("getpid")
        for d in (0, 1):
            for e in (0, 1):
                for f in (OP_AND, OP_OR):
                    block = ConditionBlock(leaf(d), leaf(e), f)
                    got = eval_condition_block(block, ev, sandbox)
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
            assert (eval_condition_block(wrapped, ev, sandbox)
                    == eval_condition_block(block, ev, sandbox))

    def test_no_short_circuit_counts_all_leaves(self, sandbox):
        ev = make_event("getpid")
        block = ConditionBlock(FALSE_LEAF,
                               ConditionBlock(TRUE_LEAF, FALSE_LEAF, OP_OR),
                               OP_AND)
        disp = Disposition(ev.seq, ev.syscall)
        eval_condition_block(block, ev, sandbox, disp)
        assert disp.conditions_evaluated == 3

    def test_bad_op_code_rejected(self):
        with pytest.raises(ValueError):
            ConditionBlock(TRUE_LEAF, TRUE_LEAF, 3)


class TestEvalCondition:
    def test_always_true(self, sandbox):
        assert eval_condition(ALWAYS_TRUE, make_event("getpid"), sandbox) == 1

    def test_counter_increments(self, sandbox):
        disp = Disposition(1, "getpid")
        eval_condition(TRUE_LEAF, make_event("getpid"), sandbox, disp)
        eval_condition(FALSE_LEAF, make_event("getpid"), sandbox, disp)
        assert disp.conditions_evaluated == 2

    def test_unknown_builtin_raises(self, sandbox):
        with pytest.raises(UnknownBuiltin):
            eval_condition(Condition("nope", ()), make_event("getpid"), sandbox)

    def test_arg_index_out_of_range_is_zero_with_diagnostic(self, sandbox):
        cond = Condition("testforparam", (3, "x"))
        ev = make_event("open", "/etc/passwd", "r")
        assert eval_condition(cond, ev, sandbox) == 0
        assert any(d["kind"] == "ArgIndexOutOfRange"
                   for d in sandbox.diagnostics)


class TestActionChain:
    def test_disruption_skips_rest_and_sets_errno(self, sandbox):
        sandbox.vfs.put_file("/f", b"hello")
        sandbox.store.set("bad", "not-an-int")
        chain = ActionChain((Action("store_add", ("ok", 1)),
                             Action("store_add", ("bad", 1)),
                             Action("store_add", ("after", 1))))
        ev = make_event("open", "/f", "r")
        status, result = run_action_chain(chain, ev, sandbox)
        assert status != 0
        assert result == EACCES
        assert sandbox.store.get("ok") == 1
        assert sandbox.store.get("after") == 0
        assert any(d["kind"] == "ChainDisrupted" for d in sandbox.diagnostics)

    def test_call_orig_sets_result(self, sandbox):
        sandbox.vfs.put_file("/tmp/x", b"data")
        ev = make_event("open", "/tmp/x", "r")
        status, result = run_action_chain(
            ActionChain((Action("log"), Action("call_orig"))), ev, sandbox)
        assert status == 0
        assert result >= 3

    def test_block_then_log_runs_both(self, sandbox):
        ev = make_event("unlink", "/apate.log")
        sandbox.vfs.put_file("/apate.log", b"x")
        disp = Disposition(ev.seq, ev.syscall)
        status, result = run_action_chain(
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
        disp = eval_chain(chain_of(*rules), make_event("getpid"), sandbox)
        assert disp.matched_rules == [1]
        assert sandbox.store.get("hits_r2") == 0

    def test_non_exit_rules_accumulate(self, sandbox):
        rules = (simple_rule("r0", fires=True),
                 simple_rule("r1", fires=True),
                 simple_rule("r2", fires=True, exit_flag=1))
        disp = eval_chain(chain_of(*rules), make_event("getpid"), sandbox)
        assert disp.matched_rules == [0, 1, 2]

    def test_order_sensitivity(self, sandbox):
        exit_true = simple_rule("a", fires=True, exit_flag=1)
        other = simple_rule("b", fires=True)
        d1 = eval_chain(chain_of(exit_true, other), make_event("getpid"),
                        SandboxState())
        d2 = eval_chain(chain_of(other, exit_true), make_event("getpid"),
                        SandboxState())
        assert d1.matched_rules == [0]
        assert d2.matched_rules == [0, 1]

    def test_pass_through_when_nothing_invokes(self, sandbox):
        # fired rule logs but never calls call_orig/block: original runs
        sandbox.vfs.put_file("/x", b"abc")
        rule = Rule("r", guard_of(True), ActionChain((Action("log"),)))
        disp = eval_chain(chain_of(rule), make_event("open", "/x", "r"),
                          sandbox)
        assert disp.result == 3  # first fd
        assert not disp.blocked

    def test_pass_through_uses_manipulated_args(self, sandbox):
        sandbox.vfs.mkdirs("/honey")
        rule = Rule("r", guard_of(True), ActionChain(
            (Action("manipulateparam", (0, "/var/*", "/honey/")),)))
        disp = eval_chain(chain_of(rule),
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
        disp = eval_chain(chain_of(*rules), make_event("getpid"), sandbox)
        assert disp.conditions_evaluated == 2500
        assert disp.matched_rules == [49]

    def test_condition_count_deterministic(self):
        rules = (simple_rule("r0", fires=True),
                 simple_rule("r1", fires=False),
                 simple_rule("r2", fires=True, exit_flag=1))
        counts = set()
        for _ in range(5):
            disp = eval_chain(chain_of(*rules),
                              make_event("getpid", seq=1), SandboxState())
            counts.add(disp.conditions_evaluated)
        assert len(counts) == 1

    def test_disruption_blocks_event(self, sandbox):
        sandbox.store.set("bad", "str")
        rule = Rule("r", guard_of(True),
                    ActionChain((Action("store_add", ("bad", 1)),)))
        ev = make_event("open", "/nope", "r")
        disp = eval_chain(chain_of(rule), ev, sandbox)
        assert disp.blocked
        assert disp.result == EACCES


class TestJump:
    def test_jump_skips_to_target(self, sandbox):
        r0 = Rule("r0", guard_of(True),
                  ActionChain((Action("store_add", ("n", 1)),
                               Action("jump", (2,)))))
        r1 = simple_rule("r1", fires=True)
        r2 = simple_rule("r2", fires=True, exit_flag=1)
        disp = eval_chain(chain_of(r0, r1, r2), make_event("getpid"), sandbox)
        assert disp.matched_rules == [0, 2]
        assert sandbox.store.get("hits_r1") == 0

    def test_jump_loop_hits_budget_exactly(self, sandbox):
        r0 = Rule("r0", guard_of(True),
                  ActionChain((Action("store_add", ("n", 1)),
                               Action("jump", (0,)))))
        ev = make_event("getpid")
        disp = eval_chain(chain_of(r0), ev, sandbox)
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
        disp = eval_chain(chain_of(r0, r1, r2), ev, sandbox)
        assert disp.blocked
        assert disp.result == EACCES
        assert disp.matched_rules == [0]

    def test_jump_to_next_is_sequential_equivalent(self, sandbox):
        r0 = Rule("r0", guard_of(True), ActionChain((Action("jump", (1,)),)))
        r1 = simple_rule("r1", fires=True, exit_flag=1)
        disp = eval_chain(chain_of(r0, r1), make_event("getpid"), sandbox)
        assert disp.matched_rules == [0, 1]

    def test_jump_wins_over_exit_flag(self, sandbox):
        r0 = Rule("r0", guard_of(True), ActionChain((Action("jump", (2,)),)),
                  exit_flag=1)
        r1 = simple_rule("r1", fires=True)
        r2 = simple_rule("r2", fires=True)
        disp = eval_chain(chain_of(r0, r1, r2), make_event("getpid"), sandbox)
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
        disp = eval_chain(chain_of(r0, r1, r2), ev, sandbox)
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
        disp = eval_chain(chain_of(r0, r1, r2), make_event("getpid"), sandbox)
        assert disp.matched_rules == [0, 2]
        assert sandbox.store.get("hits_r1") == 0

    def test_block_then_jump_stays_blocked_and_continues(self, sandbox):
        sandbox.vfs.put_file("/x", b"abc")
        r0 = Rule("r0", guard_of(True),
                  ActionChain((Action("block"), Action("jump", (2,)))))
        r1 = simple_rule("r1", fires=True)
        r2 = simple_rule("r2", fires=True)
        disp = eval_chain(chain_of(r0, r1, r2), make_event("open", "/x", "r"),
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
        assert prog.plan is None
        dispatch(prog, make_event("getpid"), sandbox)
        assert set(prog.plan) == {"getpid"}
        assert dataclasses.replace(prog).plan is None

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
        assert prog.plan["open"][0] == prog.plan["getpid"][0]

    def test_guards_die_with_their_program(self, sandbox, monkeypatch):
        made = []
        generate = engine.compiled_guard

        def recording(block):
            fn, count = generate(block)
            made.append(weakref.ref(fn))
            return fn, count

        monkeypatch.setattr(engine, "compiled_guard", recording)
        prog = RuleProgram(chains={"rc": chain_of(simple_rule("r", True))},
                           bindings=[("getpid", "rc")])
        assert dispatch(prog, make_event("getpid"), sandbox).matched_rules == [0]
        assert made and all(ref() is not None for ref in made)
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
        assert [entry[4] for entry in prog.plan["getpid"]] == [
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
        return int(_CMP[p[1]](sb.store.get(p[0]), p[2]))
    if name == "file_keyword":
        content = sb.vfs.read_file(p[0])
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
        if isinstance(value, bytes):
            value = value.decode("utf-8", errors="replace")
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
        events = [("open", "/etc/motd", "r"), ("open", b"/etc/\xffx", "w"),
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
                assert eval_condition_block(block, ev, sb, disp) == want
                assert disp.conditions_evaluated == counter[0]
                assert sb.diagnostics[mark:] == want_diags

    def test_deep_guards(self, sandbox):
        ev = make_event("getpid", ctx=make_ctx(uid=1000))
        block = ConditionBlock(TRUE_LEAF, TRUE_LEAF, OP_AND)
        for _ in range(4_998):                  # 5,000 leaves, left-deep
            block = ConditionBlock(block, TRUE_LEAF, OP_AND)
        disp = Disposition(ev.seq, ev.syscall)
        assert eval_condition_block(block, ev, sandbox, disp) == 1
        assert disp.conditions_evaluated == 5_000
        flipped = ConditionBlock(block, FALSE_LEAF, OP_AND)
        assert eval_condition_block(flipped, ev, sandbox) == 0

        # alternating operators: no run flattens, 2,001 leaves deep
        alt = FALSE_LEAF
        for i in range(2_000):
            op = OP_OR if i % 2 else OP_AND
            alt = ConditionBlock(TRUE_LEAF if op == OP_AND else FALSE_LEAF,
                                 alt, op)
        disp = Disposition(ev.seq, ev.syscall)
        assert eval_condition_block(alt, ev, sandbox, disp) == 0
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
            assert eval_condition(cond, hit, sandbox) == 1
        assert eval_condition(conds[0], miss, sandbox) == 0
        assert eval_condition(Condition("testforparam", (0, text + "*")),
                              miss, sandbox) == 1
        assert eval_condition(Condition("file_keyword", (text, "x")),
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
            eval_condition_block(block, make_event("getpid"), sandbox)
