import json
import random
import tracemalloc
from dataclasses import replace

import pytest

from apate import apc, engine, replay
from apate.cloak import CLOAK_SOURCE, apply_cloak, cloak_ruleset
from apate.dsl import _arg_src, compile_source
from apate.engine import dispatch
from apate.errors import TraceError
from apate.logsink import VfsSink
from apate.model import (ALWAYS_TRUE, OP_AND, OP_OR, SYSCALLS, Action,
                         ActionChain,
                         Condition, ConditionBlock, Rule, RuleChain,
                         RuleProgram, SyscallEvent, TaskContext)
from apate.replay import (EventSource, iter_trace, parse_trace,
                          parse_trace_line, replay_trace)
from apate.sandbox import ENOENT, SandboxState, normalize_path, split_path

from conftest import MYSQL_EXAMPLE, make_ctx, make_event, scan_for_substring

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
        assert LOG in sb.vfs.files

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
    log_dir, basename = split_path(log_path)
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
# non-negative target moves past the cloak rule.  sh exits at r2, bash
# loops r3 -> r1 -> r2 -> r3 until the jump budget runs out, and cron
# jumps out of range at r4.
JUMPS = '''define r0,r1,r2,r3,r4 as rule
define rc as rulechain
let r0 be {{testforuid(">";500)}->jump(3)}
let r1 be {{testforparam(0;"/var/*")}->store_add("n";1)}
let r2 be {{testforselfpname("sh")}->log()}
let r3 be {{testforselfpname("bash")}->jump(1)}
let r4 be {{testforselfpname("cron")}->jump(-1)}
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
    log_dir = split_path(normalize_path(log_path))[0]
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
    log_dir = split_path(normalize_path(log_path))[0]
    for path in ("/var/log/syslog", "/srv/a", "/var/lib/mysql/x",
                 log_dir.rstrip("/") + "/other"):
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
def test_cloak_matches_frozen_model_built_cloak(user_src, log_path,
                                                monkeypatch):
    # A small budget keeps JUMPS's bash loops cheap; each still runs it out.
    monkeypatch.setattr(engine, "DEFAULT_JUMP_BUDGET", 40)
    user = (RuleProgram() if user_src is None
            else compile_source(user_src, "user.apate")[0])
    reached = {"open": set(), "getdents": set()}
    for seed in (1, 2, 3):
        events = _cloak_trace(random.Random(seed), log_path)
        new = _replay(apply_cloak(user, cloak_ruleset(log_path)), log_path,
                      events)
        old = _replay(apply_cloak(user, _frozen_cloak_ruleset(log_path)),
                      log_path, events)
        assert new == old
        for ev, (_, _, matched, _, _) in zip(events, new[0]):
            reached.get(ev.syscall, set()).update(matched)
    if user_src is JUMPS:   # the cloak rule, then r0..r4: every jump fires
        assert reached == {"open": set(range(6)), "getdents": set(range(6))}


@pytest.mark.parametrize("log_path", CLOAK_PATHS)
def test_cloak_source_compiles_cleanly_and_round_trips(log_path):
    path = normalize_path(log_path)
    log_dir, name = split_path(path)
    source = CLOAK_SOURCE.substitute(log=_arg_src(path), dir=_arg_src(log_dir),
                                     name=_arg_src(name))
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


# Frozen copy of apply_cloak as it was when it merged each cloak chain
# into the user chain bound to the same syscall: a chain `cloak+user`
# whose user rules are copies with each non-negative jump moved past the
# cloak rules, renamed where a name would get two bodies.  The
# reference for the differential test of the merge at bind time.
def _frozen_shift_jumps(rule, offset, taken, copies):
    key = id(rule), offset
    if key not in copies:
        actions = tuple(
            Action("jump", (a.params[0] + offset,))
            if a.builtin_name == "jump" and len(a.params) == 1
            and isinstance(a.params[0], int) and a.params[0] >= 0 else a
            for a in rule.actions.actions)
        if actions != rule.actions.actions:
            taken.add(name := _frozen_free(rule.name, taken))
            rule = replace(rule, name=name, actions=ActionChain(actions))
        copies[key] = rule
    return copies[key]


def _frozen_free(name, taken):
    fresh, n = name, 0
    while fresh in taken:
        n += 1
        fresh = f"{name}#{n}"
    return fresh


def _frozen_apply_cloak(user_prog, cloak_prog):
    chains = dict(user_prog.chains)
    taken = {r.name for chain in chains.values() for r in chain.rules}
    cloak = {name: tuple(replace(r, name=_frozen_free(r.name, taken))
                         for r in chain.rules)
             for name, chain in cloak_prog.chains.items()}
    taken.update(r.name for rules in cloak.values() for r in rules)
    bindings = []
    user_bound = dict(user_prog.bindings)
    added = {}
    copies = {}
    for syscall, cloak_name in cloak_prog.bindings:
        user_name = user_bound.get(syscall)
        if (cloak_name, user_name) not in added:
            rules = cloak[cloak_name]
            name = cloak_name
            if user_name is not None:
                name = f"{cloak_name}+{user_name}"
                rules += tuple(_frozen_shift_jumps(r, len(rules), taken, copies)
                               for r in chains[user_name].rules)
            fresh = _frozen_free(name, chains)
            chains[fresh] = RuleChain(fresh, rules)
            added[cloak_name, user_name] = fresh
        bindings.append((syscall, added[cloak_name, user_name]))
    for syscall, chain_name in user_prog.bindings:
        if not any(sc == syscall for sc, _ in bindings):
            bindings.append((syscall, chain_name))
    return RuleProgram(chains=chains, bindings=bindings)


def _random_user_program(rng) -> RuleProgram:
    """Chains over a pool of six rules, shared between chains, with
    forward, backward, negative and out-of-range jumps, exit flags,
    blocks and logs, each chain bound to its own syscalls."""
    conds = [Condition("testforpname", ("cron",)),
             Condition("testforselfpname", ("sh",)),
             Condition("testforuid", (">", 500)),
             Condition("testforparam", (0, "/var/*")), ALWAYS_TRUE]
    pool = []
    for i in range(6):
        actions = rng.sample([Action("store_add", ("n", 1)), Action("log"),
                              Action("block", (-13,))], rng.randint(1, 2))
        if rng.random() < 0.5:
            actions.append(Action("jump", (rng.randint(-1, 6),)))
        guard = ConditionBlock(rng.choice(conds), rng.choice(conds),
                               rng.choice((OP_AND, OP_OR)))
        pool.append(Rule(f"r{i}", guard, ActionChain(tuple(actions)),
                         span=f"user.apate:{i + 1}"))
    chains, bindings = {}, []
    syscalls = rng.sample(SYSCALLS, rng.randint(1, len(SYSCALLS)))
    for c in range(rng.randint(1, 3)):
        rules = tuple(replace(r, exit_flag=int(rng.random() < 0.3))
                      for r in rng.choices(pool, k=rng.randint(1, 5)))
        chains[f"rc{c}"] = RuleChain(f"rc{c}", rules)
    for i, sc in enumerate(syscalls):
        bindings.append((sc, f"rc{i % len(chains)}"))
    return RuleProgram(chains=chains, bindings=bindings)


def _chain_clash() -> RuleProgram:
    """A user chain called cloak_path, bound where the cloak binds it."""
    rc = _user_rule_named("by_path").chains["rc"]
    return RuleProgram(chains={"cloak_path": replace(rc, name="cloak_path")},
                       bindings=[("open", "cloak_path"),
                                 ("getpid", "cloak_path")])


MERGE_CASES = {
    "empty": RuleProgram,
    "mysql": lambda: compile_source(MYSQL_EXAMPLE, "user.apate")[0],
    "jumps": lambda: compile_source(JUMPS, "user.apate")[0],
    "rule-by_path": lambda: _user_rule_named("by_path"),
    "rule-by_fd": lambda: _user_rule_named("by_fd"),
    "rule-listing": lambda: _user_rule_named("listing"),
    "chain-cloak_path": _chain_clash,
    **{f"random-{seed}": (lambda seed=seed:
                          _random_user_program(random.Random(seed)))
       for seed in range(30)},
}


@pytest.mark.parametrize("case", MERGE_CASES)
def test_cloak_at_bind_matches_frozen_merge(case, monkeypatch):
    # Both sides run on one engine; a small budget keeps loops cheap.
    monkeypatch.setattr(engine, "DEFAULT_JUMP_BUDGET", 64)
    for log_path in CLOAK_PATHS:
        for seed in (1, 2):
            events = _cloak_trace(random.Random(seed), log_path, n=150)
            user = MERGE_CASES[case]()
            cloaked = apply_cloak(user, cloak_ruleset(log_path))
            assert all(cloaked.chains[name] is chain
                       for name, chain in user.chains.items())
            new = _replay(cloaked, log_path, events)
            user = MERGE_CASES[case]()
            old = _replay(_frozen_apply_cloak(user, cloak_ruleset(log_path)),
                          log_path, events)
            assert new == old, (log_path, seed)


def test_cloaked_program_does_not_serialize():
    """.apc binds a syscall once, as the compiler does, so the cloak is
    applied after loading and never written; the user program alone
    still round-trips."""
    user = compile_source(MYSQL_EXAMPLE, "user.apate")[0]
    with pytest.raises(ValueError, match="syscall 'open' bound to more "
                                         "than one rulechain"):
        apc.serialize(apply_cloak(user, cloak_ruleset(LOG)))
    blob = apc.serialize(user)
    assert apc.serialize(apc.deserialize(blob)) == blob


@pytest.mark.parametrize("name", ["by_path", "by_fd", "listing"])
def test_user_rule_named_like_a_cloak_rule_keeps_its_name(name):
    user = _user_rule_named(name)
    merged = apply_cloak(user, cloak_ruleset(LOG))
    assert merged.chains["rc"] is user.chains["rc"]
    (rule,) = merged.chains["rc"].rules
    assert (rule.name, rule.span) == (name, "user.apate:3")
    cloak_rules = {r.name: r.span for c in ("cloak_path", "cloak_fd",
                                            "cloak_dir")
                   for r in merged.chains[c].rules}
    assert cloak_rules[name] != rule.span
    cron = make_ctx(parent_pname="cron")
    sb = cloaked_sandbox()
    got = [(d.matched_rules, d.result, d.blocked) for d in (
        dispatch(merged, ev, sb) for ev in (
            make_event("open", "/x", "r", ctx=cron),
            make_event("open", LOG, "r", ctx=cron),
            make_event("getpid", ctx=cron)))]
    assert got == [([1], -13, True), ([0], ENOENT, True), ([0], -13, True)]
    events = _cloak_trace(random.Random(5), LOG)
    plain = apply_cloak(_user_rule_named("mine"), cloak_ruleset(LOG))
    assert _replay(merged, LOG, events) == _replay(plain, LOG, events)


def test_cloak_chain_takes_the_first_free_name():
    user = _user_rule_named("by_path")
    rc = user.chains["rc"]
    for name in ("cloak_path", "cloak_path#1"):
        user.chains[name] = replace(rc, name=name)
    user.bindings.append(("unlink", "cloak_path"))
    merged = apply_cloak(user, cloak_ruleset(LOG))
    assert list(merged.chains) == ["rc", "cloak_path", "cloak_path#1",
                                   "cloak_path#2", "cloak_fd", "cloak_dir"]
    assert all(merged.chains[n] is user.chains[n] for n in user.chains)
    assert [r.name for r in merged.chains["cloak_path#2"].rules] == [
        "by_path"]
    assert merged.bindings[:2] == [("open", "cloak_path#2"),
                                   ("read", "cloak_fd")]
    cron = make_ctx(parent_pname="cron")
    sb = cloaked_sandbox()
    got = [(d.matched_rules, d.result, d.blocked) for d in (
        dispatch(merged, ev, sb) for ev in (
            make_event("unlink", "/x", ctx=cron),
            make_event("unlink", LOG, ctx=cron),
            make_event("open", LOG, "r", ctx=cron)))]
    assert got == [([1], -13, True), ([0], ENOENT, True), ([0], ENOENT, True)]


def test_shifted_user_rule_gets_its_own_name():
    """A rule bound both behind the cloak (its jump target moves in the
    plan) and on its own (it does not) is one rule under its own name."""
    user = compile_source(
        "define r,s as rule\ndefine rc as rulechain\n"
        'let r be {{testforpname("cron")}->jump(1)}\n'
        "let s be {{always_true()}->store_add(\"s\";1)}\n"
        "let rc be {r,s}\nbind rc to open\nbind rc to getpid\n",
        "user.apate")[0]
    merged = apply_cloak(user, cloak_ruleset(LOG))
    assert merged.chains["rc"] is user.chains["rc"]
    r, s = merged.chains["rc"].rules
    assert (r.name, r.span) == ("r", "user.apate:3")
    assert r.actions.actions == (Action("jump", (1,)),)
    cron = make_ctx(pname="cron")
    events = [make_event("open", "/x", "r", ctx=cron),
              make_event("getpid", ctx=cron),
              make_event("open", LOG, "r", ctx=cron)]
    sb = cloaked_sandbox()
    got = [(d.matched_rules, d.result, d.blocked) for d in
           (dispatch(merged, ev, sb) for ev in events)]
    assert got == [([2], ENOENT, False), ([1], 100, False),
                   ([0], ENOENT, True)]
    assert sb.store.get("s") == 2
    assert [e[2] for e in merged.scans["open"][2]] == [None, 2, None]
    assert [e[2] for e in merged.scans["getpid"][2]] == [1, None]


def test_rule_shifted_alike_in_two_chains_is_one_copy():
    """A rule behind the cloak in two chains stays one rule; each
    syscall's plan moves its jump by the same offset."""
    user = compile_source(
        "define r,s as rule\ndefine rc1,rc2 as rulechain\n"
        'let r be {{testforpname("cron")}->jump(1)}\n'
        "let s be {{always_true()}->store_add(\"s\";1)}\n"
        "let rc1 be {r,s}\nlet rc2 be {r,s}\n"
        "bind rc1 to open\nbind rc2 to unlink\n", "user.apate")[0]
    merged = apply_cloak(user, cloak_ruleset(LOG))
    one, two = (merged.chains[c].rules[0] for c in ("rc1", "rc2"))
    assert one is two and one.actions.actions == (Action("jump", (1,)),)
    cron = make_ctx(parent_pname="cron")
    events = [make_event("open", "/x", "r", ctx=cron),
              make_event("unlink", "/x", ctx=cron),
              make_event("open", LOG, "r", ctx=cron),
              make_event("getpid", ctx=cron)]
    sb = cloaked_sandbox()
    got = [(d.matched_rules, d.result, d.blocked) for d in
           (dispatch(merged, ev, sb) for ev in events)]
    assert got == [([1, 2], ENOENT, False), ([1, 2], ENOENT, False),
                   ([0], ENOENT, True), ([], cron.pid, False)]
    assert sb.store.get("s") == 2
    assert merged.scans["open"][2][1] == merged.scans["unlink"][2][1]
    assert merged.scans["open"][2][1][2] == 2


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
        pytest.param('{"seq":1' + "0" * 5000 + ',"syscall":"getpid","args":[],'
                     '"ctx":{"pid":1,"uid":0,"ssid":0,"pname":"a",'
                     '"parent_pname":"b"}}', id="int past the digit limit"),
    ])
    def test_trace_errors_carry_line_numbers(self, bad):
        good = self.line()
        with pytest.raises(TraceError) as exc:
            parse_trace(good + "\n" + bad + "\n")
        assert "line 2" in str(exc.value)

    @pytest.mark.parametrize("change, message", [
        ({"seq": None}, "missing field 'seq'"),
        ({"syscall": None}, "missing field 'syscall'"),
        ({"args": None}, "missing field 'args'"),
        ({"ctx": None}, "missing field 'ctx'"),
        ({"syscall": "write", "args": [3, {"size": 4}]},
         'args[1]: an object argument must be {"len": n}'),
        ({"syscall": "write", "args": [{}, {"len": 4}]},
         'args[0]: an object argument must be {"len": n}'),
        ({"ctx": {"pid": 1, "uid": 0, "ssid": 0, "pname": "a"}},
         "ctx: missing key 'parent_pname'"),
        ({"ctx": {"uid": 0, "ssid": 0, "pname": "a", "parent_pname": "b"}},
         "ctx: missing key 'pid'"),
        ({"ctx": {"pid": 1, "uid": 0, "ssid": 0, "pname": "a",
                  "parent_pname": "b", "tty": 1}},
         "ctx: unknown key 'tty'"),
        *(({"syscall": "write", "args": args}, f"args[{index}]: an object "
           'argument must be {"len": n}') for args, index in (
            ([3, {"len": 4, "x": 1}], 1), ([3, {"len": "zz"}], 1),
            ([3, {"len": "4096"}], 1), ([3, {"len": True}], 1),
            ([3, {"len": 4.0}], 1), ([3, {"len": None}], 1),
            ([{"len": 3}, {"len": [4]}], 1), ([{"x": 3}, {"x": 3}], 0))),
        ({"syscall": ["open"]}, "syscall must be a string, got ['open']"),
    ])
    def test_trace_errors_name_the_field(self, change, message):
        obj = json.loads(self.line())
        obj.update(change)
        obj = {k: v for k, v in obj.items() if v is not None}
        with pytest.raises(TraceError) as exc:
            parse_trace_line(json.dumps(obj), 5)
        assert str(exc.value) == f"line 5: {message}"


    @pytest.mark.parametrize("ctx_first", [False, True])
    def test_an_unknown_top_level_key_is_ignored(self, ctx_first):
        """A line may carry keys besides seq, syscall, args and ctx; they
        are read past, on the split read (ctx last) and on the whole read
        (ctx first) alike."""
        def line(obj):
            if ctx_first:
                obj = {"ctx": obj.pop("ctx"), **obj}
            return json.dumps(obj)
        plain = json.loads(self.line())
        extra = {k: v for k, v in plain.items() if k != "ctx"}
        extra.update(extra=1, ctx=plain["ctx"])
        assert parse_trace_line(line(extra)) == parse_trace_line(line(plain))

    @pytest.mark.parametrize("number", [
        "NaN", "Infinity", "-Infinity", "1e400", "-1e400", "1E+999"])
    @pytest.mark.parametrize("spaced", [False, True])
    def test_non_finite_numbers_are_refused(self, number, spaced):
        """NaN, the infinities and a float that overflows are not JSON;
        a line holding one, in its args or its ctx, is refused with its
        line number, whether its ctx text was seen before or not."""
        contexts = {}
        ok = self.line(syscall="read", args=[3, 7])
        if not spaced:
            ok = json.dumps(json.loads(ok), separators=(",", ":"))
        parse_trace_line(ok, 1, contexts)
        for bad in (ok.replace("7", number, 1),
                    ok.replace("1000", number, 1)):   # args[1], ctx uid
            assert bad != ok
            for _ in range(2):
                with pytest.raises(TraceError) as exc:
                    parse_trace_line(bad, 4, contexts)
                assert str(exc.value) == (
                    f"line 4: bad JSON: {number} is not a finite number")
        finite = parse_trace_line(ok.replace("7", "1e-400", 1), 5, contexts)
        assert finite.args == [3, 0.0]

    def test_padding_and_crlf(self):
        text = "  " + self.line() + " \t\r\n\t" + self.line(seq=2) + "\r\n"
        assert [e.seq for e in parse_trace(text)] == [1, 2]
        assert parse_trace_line(" " + self.line() + "\r\n").seq == 1

    def test_equal_ctx_shares_one_task_context(self, monkeypatch):
        other = {"pid": 7, "uid": 0, "ssid": 0, "pname": "sh",
                 "parent_pname": "init"}
        lines = [self.line(), self.line(seq=2), self.line(seq=3, ctx=other),
                 self.line(seq=4, ctx=dict(other))]
        a, b, c, d = parse_trace("\n".join(lines) + "\n")
        assert a.ctx is b.ctx and c.ctx is d.ctx
        assert a.ctx is not c.ctx and a.ctx != c.ctx
        # parse_trace_line alone shares nothing
        assert parse_trace_line(self.line()).ctx is not a.ctx
        # a ctx seen again in the next block is equal, not shared
        monkeypatch.setattr(replay, "TRACE_BLOCK", len(lines[0]) + 1)
        a, b = parse_trace(lines[0] + "\n" + lines[1] + "\n")
        assert (a.seq, b.seq) == (1, 2)
        assert a.ctx == b.ctx and a.ctx is not b.ctx

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
        # The trace is one piece, so an unpadded line, whose ctx comes
        # last, shares one TaskContext per distinct ctx text; a padded
        # line is parsed whole and has its own.
        assert len("\n".join(lines).encode()) < replay.TRACE_BLOCK
        read = [line.rstrip("\r") for line in lines if line.strip()]
        unpadded = [line for line in read if line == line.strip()]
        split = {line[line.rfind('"ctx":') + 6:-1] for line in unpadded}
        whole = len(read) - len(unpadded)
        assert len(split) > 6 and whole > 0
        assert len({id(e.ctx) for e in events}) == len(split) + whole


    def test_split_intake_matches_whole_line_parse(self):
        """Differential fuzz of the split read: parse_trace_line, which
        reads a line whose ctx comes last as a decoded head plus a ctx
        text looked up in one shared dict, gives the same event or the
        same TraceError message as decoding the whole line.  Each line is
        parsed twice, so the second read meets whatever the first one
        left in the dict."""
        rng = random.Random(2020)
        ctxs = [{"pid": rng.randrange(1, 40), "uid": rng.choice((0, 1000)),
                 "ssid": rng.randrange(3),
                 "pname": rng.choice(("sh", "é", 'x","ctx":{"pid":1}}')),
                 "parent_pname": rng.choice(("sshd", "a,\"ctx\":5}"))}
                for _ in range(8)]
        ctxs += [{"pid": 7, "uid": 0, "ssid": 0, "pname": "a",
                  "parent_pname": "b"},
                 {"uid": 0, "pid": 7, "ssid": 0, "pname": "a",
                  "parent_pname": "b"}]   # keys in another order
        bad_ctxs = [{"pid": 7, "uid": 0, "ssid": 0, "pname": "a",
                     "parent_pname": "b", **bad} for bad in (
            {"pid": 7.0}, {"uid": True}, {"pid": 0}, {"pname": ""},
            {"ssid": [1]}, {"tty": 1}, {"pname": {"ctx": {}}})]
        not_objects = ["5", "[1]", '"ctx"', "null", "{}", "[]", "1.5"]
        calls = [("open", ["/etc/passwd", "r"]), ("read", [3, 4096]),
                 ("write", [3, {"len": 9}]), ("getpid", []),
                 ("execve", ['/bin/sh', 'sh -c ",\"ctx\":{}}"']),
                 ("write", [3, {"len": 9, "x": 1}]), ("close", "3"),
                 ("unlink", ['x,"ctx":{"pid":1}}'])]
        spacings = [(",", ":"), (", ", ": "), (" , ", " :  "), (",", ": ")]

        def members(seq):
            syscall, args = rng.choice(calls)
            ctx = json.dumps(rng.choice(
                bad_ctxs if rng.random() < 0.15 else ctxs))
            return [("seq", str(seq)), ("syscall", json.dumps(syscall)),
                    ("args", json.dumps(args)),
                    ("ctx", rng.choice(not_objects)
                     if rng.random() < 0.05 else ctx)]

        def render(pairs, sep=(",", ":")):
            return "{" + sep[0].join(f'"{k}"{sep[1]}{v}' for k, v in pairs) + "}"

        def valid(seq):
            pairs = members(seq)
            kind = rng.random()
            if kind < 0.2:
                rng.shuffle(pairs)
            elif kind < 0.3:   # a second ctx before the last one wins
                pairs.insert(rng.randrange(4), ("ctx", rng.choice(
                    not_objects + [json.dumps(rng.choice(ctxs + bad_ctxs))])))
            elif kind < 0.35:  # an object member after ctx
                pairs.append(("z", rng.choice(('{"ctx":5}', '{"a":{}}'))))
            sep = rng.choice(spacings)
            line = render(pairs, sep)
            if rng.random() < 0.2:
                line = json.dumps(json.loads(line),
                                  ensure_ascii=rng.random() < 0.5)
            return line

        deep = 100_000
        lines = [
            '{,"ctx":{"pid":1,"uid":0,"ssid":0,"pname":"a","parent_pname":"b"}}',
            '{ ,"ctx":{"pid":1,"uid":0,"ssid":0,"pname":"a","parent_pname":"b"}}',
            '{"ctx":{"pid":1,"uid":0,"ssid":0,"pname":"a","parent_pname":"b"}}',
            '{"seq":1,"syscall":"getpid","args":[] ,,"ctx":{"pid":1,"uid":0,'
            '"ssid":0,"pname":"a","parent_pname":"b"}}',
            '{"seq":1,"syscall":"getpid","args":[]}, "ctx":{"pid":1,"uid":0,'
            '"ssid":0,"pname":"a","parent_pname":"b"}}',
            '{"syscall":"getpid","args":[],"seq":12 "ctx":{"pid":1,"uid":0,'
            '"ssid":0,"pname":"a","parent_pname":"b"}}',
            '{"seq":1,"syscall":"getpid","args":' + "[" * deep + "]" * deep
            + ',"ctx":{"pid":1,"uid":0,"ssid":0,"pname":"a","parent_pname":"b"}}',
            '{"seq":1,"syscall":"getpid","args":[],"ctx":{"pid":1,"uid":0,'
            '"ssid":0,"pname":"a","parent_pname":' + '{"a":' * deep + "1"
            + "}" * deep + "}}",
        ]
        for seq in range(1, 3001):
            line = valid(seq)
            lines.append(line)
            for _ in range(rng.choice((0, 1, 1, 2))):
                at = rng.randrange(len(line) + 1)
                if rng.random() < 0.3:   # near where the line is split
                    at = max(0, line.rfind('"ctx"') + rng.randrange(-3, 7))
                if rng.random() < 0.5 and at < len(line):
                    line = line[:at] + line[at + 1:]
                else:
                    line = line[:at] + rng.choice('{}[],:" \\0.e-5ctx') \
                        + line[at:]
                lines.append(line)

        shared = {}

        def outcome(parse, line, *contexts):
            try:
                return repr(parse(line, 9, *contexts))
            except TraceError as exc:
                return str(exc)

        events = 0
        for line in lines:
            want = outcome(replay._parse_whole, line)
            for _ in range(2):
                assert outcome(parse_trace_line, line, shared) == want, line
            events += want.startswith("SyscallEvent")
        assert 0.3 * len(lines) < events < 0.8 * len(lines)
        # the split read ran: contexts holds ctx texts, compact and spaced
        texts = {k for k in shared if type(k) is str}
        assert len(texts) >= 20
        assert any(t.startswith(" ") for t in texts)

    def test_split_intake_shares_and_checks_contexts(self):
        contexts = {}
        ctx = {"pid": 1, "uid": 0, "ssid": 0, "pname": "a",
               "parent_pname": "b"}
        spellings = [
            json.dumps({"seq": 1, "syscall": "getpid", "args": [],
                        "ctx": ctx}, separators=(",", ":")),
            json.dumps({"seq": 2, "syscall": "getpid", "args": [],
                        "ctx": ctx}),
            '{"seq":3,"syscall":"getpid","args":[],"ctx":{"pid":1,"uid":0,'
            '"ssid":0,"pname":"\\u0061","parent_pname":"b"}}',
            '{"seq":4,"syscall":"getpid","args":[],  "ctx":  { "pid":1, '
            '"uid":0,"ssid":0,"pname":"a","parent_pname":"b" }}',
            '{"ctx":{"pid":1,"uid":0,"ssid":0,"pname":"a","parent_pname":'
            '"b"},"seq":5,"syscall":"getpid","args":[]}',
        ]
        events = [parse_trace_line(line, n, contexts)
                  for n, line in enumerate(spellings, 1)]
        assert all(ev.ctx == events[0].ctx for ev in events)
        assert sum(type(k) is str for k in contexts) == 4
        for _ in range(2):   # 1.0 == 1, but it is not an integer
            with pytest.raises(TraceError) as exc:
                parse_trace_line(spellings[0].replace('"pid":1', '"pid":1.0'),
                                 6, contexts)
            assert str(exc.value) == ("line 6: pid, uid and ssid must be "
                                      "integers, got 1.0, 0, 0")
        assert sum(type(k) is str for k in contexts) == 4

    def test_intake_memory_is_bounded_by_the_block(self, tmp_path):
        """Every line's ctx is new, so what intake holds is bounded by one
        block, not by the trace: ten times the lines peak at less than
        twice the memory."""
        def peak(n):
            path = tmp_path / f"{n}.jsonl"
            with path.open("w") as fh:
                for seq in range(1, n + 1):
                    fh.write(f'{{"seq":{seq},"syscall":"getpid","args":[],'
                             f'"ctx":{{"pid":{seq},"uid":0,"ssid":0,'
                             '"pname":"sh","parent_pname":"sshd"}}\n')
            with path.open("rb") as fh:
                tracemalloc.start()
                try:
                    assert sum(1 for _ in iter_trace(fh)) == n
                    return tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()

        small, large = peak(10_000), peak(100_000)
        assert large < 2 * small, (small, large)


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
