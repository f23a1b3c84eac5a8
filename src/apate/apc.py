"""Canonical serialized form of a compiled rule program (.apc files).

Text format, one record per line (see LineError.lines), tab-separated fields:

    APATE-RP 1
    COND   <cid>  <builtin>  <params-json>
    ACTION <aid>  <builtin>  <params-json>
    RULE   <name> <guard>    <aid,aid,...>  <span>
    CHAIN  <name> <[:]rule,[:]rule,...>
    BIND   <syscall> <chain>

Guards are s-expressions over condition ids: ``c0`` or ``(& c0 (| c1 c2))``.
A ':' prefix on a chain member marks the exit flag.  Serialization is
canonical: identical programs produce identical bytes and
``serialize(deserialize(x)) == x``.
"""

from __future__ import annotations

import json

from .builtins import checked
from .errors import ApateError, BadMagic, CorruptRecord, UnsupportedVersion
from .logsink import args_json
from .model import (Action, ActionChain, Condition, ConditionBlock, Rule,
                    RuleChain, RuleProgram, OP_AND, OP_OR, hooked_syscall)

MAGIC = "APATE-RP"
VERSION = 1


# json.loads' own decoding, less its blank skipping and whole-text check
_scan_value = json.JSONDecoder().scan_once


def _params_load(text):
    """The params a record's JSON list gives.  A text the scan does not
    read whole goes to json.loads, so its value or error is json's."""
    try:
        params, end = _scan_value(text, 0)
    except (StopIteration, ValueError, RecursionError):
        end = -1
    if end != len(text):
        params = json.loads(text)
    if not isinstance(params, list):
        raise ValueError(f"params must be a JSON list, got {text!r}")
    return tuple(params)


def _field(what: str, text: str, banned: str = "\t\n\r") -> str:
    """text as one field of a record; ValueError, naming what, if it holds
    a character of banned, which would end the field or its line."""
    for c in banned:
        if c in text:
            raise ValueError(f"{what} {text!r} holds {c!r}")
    return text


def serialize(prog: RuleProgram) -> bytes:
    """The program's .apc bytes.  Like the compiler, the format binds a
    syscall at most once: a program built in code that binds one twice
    (a cloaked program) raises ValueError, as does a name or span that
    would not load back as itself, or a chain with no rules."""
    bind_lines = {}
    for sc, cn in prog.bindings:
        if sc in bind_lines:
            raise ValueError(f"syscall {sc!r} bound to more than one rulechain")
        bind_lines[sc] = f"BIND\tsys_{sc}\t{cn}"
    records = {"COND": {}, "ACTION": {}}   # tag -> {(builtin, params): id}
    rule_lines = []
    rule_seen = {}

    def record_id(tag: str, item) -> str:
        """The id of item's COND (c<n>) or ACTION (a<n>) record, numbered
        in first-use order."""
        table = records[tag]
        key = (item.builtin_name, item.params)
        if key not in table:
            table[key] = f"{tag[0].lower()}{len(table)}"
        return table[key]

    def guard_expr(node) -> str:
        # Iterative, so any depth serializes; leaves get ids left to right.
        parts, stack = [], [node]
        emit, push = parts.append, stack.append
        while stack:
            node = stack.pop()
            while isinstance(node, ConditionBlock):  # down the left spine
                emit("(& " if node.op_code == OP_AND else "(| ")
                push(")")
                push(node.right)
                push(" ")
                node = node.left
            emit(node if type(node) is str else record_id("COND", node))
        return "".join(parts)

    def emit_rule(rule: Rule) -> None:
        body = (guard_expr(rule.guard),
                ",".join(record_id("ACTION", a) for a in rule.actions.actions),
                rule.span)
        if rule.name in rule_seen:
            if rule_seen[rule.name] != body:
                raise ValueError(f"rule name {rule.name!r} used with different bodies")
            return
        _field("rule name", rule.name, "\t\n\r,")   # ',' ends a member
        if rule.name.startswith(":"):                  # an exit mark
            raise ValueError(f"rule name {rule.name!r} starts with ':'")
        rule_seen[rule.name] = body
        rule_lines.append(f"RULE\t{rule.name}\t{body[0]}\t{body[1]}\t"
                          f"{_field('span', rule.span)}")

    chain_lines = []
    for name, chain in prog.chains.items():
        if not chain.rules:   # "CHAIN\tc\t" would load as rule ''
            raise ValueError(f"chain {name!r} has no rules")
        for rule in chain.rules:
            emit_rule(rule)
        members = ",".join((":" if r.exit_flag else "") + r.name for r in chain.rules)
        chain_lines.append(f"CHAIN\t{_field('chain name', name)}\t{members}")

    lines = [f"{MAGIC} {VERSION}"]
    lines += [f"{tag}\t{rid}\t{builtin}\t{args_json(params)}"
              for tag, table in records.items()
              for (builtin, params), rid in table.items()]
    lines += rule_lines + chain_lines
    lines += bind_lines.values()
    return ("\n".join(lines) + "\n").encode("utf-8")


def _parse_guard(expr: str, conds: dict, line_no: int):
    tokens = expr.replace("(", " ( ").replace(")", " ) ").split()
    n = len(tokens)
    pos = 0
    frames = []  # one per open "(": [op] or [op, left operand]
    while True:
        if pos >= n:
            raise CorruptRecord(line_no, "truncated guard expression")
        tok = tokens[pos]
        pos += 1
        if tok == "(":
            if pos >= n or tokens[pos] not in ("&", "|"):
                raise CorruptRecord(line_no, "expected & or | in guard")
            frames.append([OP_AND if tokens[pos] == "&" else OP_OR])
            pos += 1
            continue
        if tok not in conds:
            raise CorruptRecord(line_no, f"unknown condition id {tok!r}")
        node = conds[tok]
        while frames and len(frames[-1]) == 2:  # node is a right operand
            op, left = frames.pop()
            if pos >= n or tokens[pos] != ")":
                raise CorruptRecord(line_no, "missing ')' in guard")
            pos += 1
            node = ConditionBlock(left, node, op)
        if not frames:
            break
        frames[-1].append(node)
    if pos != n:
        raise CorruptRecord(line_no, "trailing tokens in guard expression")
    if isinstance(node, Condition):
        raise CorruptRecord(line_no, "guard must be a condition block")
    return node


def _define(table: dict, name: str, value, what: str, line_no: int) -> None:
    """``table[name] = value``; as in the DSL, a name is defined once."""
    if name in table:
        raise CorruptRecord(line_no, f"{what} {name!r} already defined")
    table[name] = value


def deserialize(data: bytes) -> RuleProgram:
    if not data:
        raise BadMagic("empty file")
    lines, _ = CorruptRecord.lines(data)
    line_no, head = next(lines, (0, ""))
    if line_no != 1:    # line 1 is blank: ASCII whitespace
        head = data.splitlines()[0].decode()
    header = head.split(" ")
    if len(header) != 2 or header[0] != MAGIC:
        raise BadMagic(f"bad header {head!r}")
    if header[1] != str(VERSION):
        raise UnsupportedVersion(f"unsupported format version {header[1]}")

    conds = {}
    acts = {}
    rules = {}      # name -> (guard, aids, span)
    chains = {}
    bindings = []

    for line_no, line in lines:
        fields = line.split("\t")
        tag = fields[0]
        try:
            if tag in ("COND", "ACTION"):
                _, rid, builtin, params = fields
                make, kind, table = ((Condition, "condition", conds) if tag == "COND"
                                     else (Action, "action", acts))
                try:
                    checked(builtin, kind, params := _params_load(params))
                except ApateError as exc:
                    raise CorruptRecord(line_no, str(exc)) from None
                _define(table, rid, make(builtin, params), f"{kind} id", line_no)
            elif tag == "RULE":
                _, name, guard_s, aids, span = fields
                guard = _parse_guard(guard_s, conds, line_no)
                try:
                    actions = tuple(acts[a] for a in aids.split(","))
                except KeyError as exc:
                    raise CorruptRecord(line_no, f"unknown action id {exc}") from None
                _define(rules, name, (guard, ActionChain(actions), span), "rule",
                        line_no)
            elif tag == "CHAIN":
                _, name, members = fields
                built = []
                for member in members.split(","):
                    exit_flag = 1 if member.startswith(":") else 0
                    rname = member.lstrip(":")
                    if rname not in rules:
                        raise CorruptRecord(line_no, f"unknown rule {rname!r}")
                    guard, actions, span = rules[rname]
                    built.append(Rule(rname, guard, actions, exit_flag, span))
                _define(chains, name, RuleChain(name, tuple(built)), "chain",
                        line_no)
            elif tag == "BIND":
                _, name, chain_name = fields
                syscall = hooked_syscall(name)
                if syscall is None:
                    raise CorruptRecord(line_no, "unknown syscall "
                                        f"{name.removeprefix('sys_')!r}")
                if chain_name not in chains:
                    raise CorruptRecord(line_no, f"unknown chain {chain_name!r}")
                if any(sc == syscall for sc, _ in bindings):
                    raise CorruptRecord(line_no, f"syscall {syscall!r} "
                                        "already has a bound rulechain")
                bindings.append((syscall, chain_name))
            else:
                raise CorruptRecord(line_no, f"unknown record type {tag!r}")
        except (ValueError, RecursionError) as exc:   # deep params nesting
            raise CorruptRecord(line_no, str(exc)) from None

    return RuleProgram(chains=chains, bindings=bindings)
