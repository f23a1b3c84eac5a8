"""The three line formats `apate run` reads -- the .apc, the VFS manifest
and the JSONL trace -- share one reader, ``LineError.lines``: a line ends
at ``\\n``, ``\\r\\n`` or ``\\r`` and nowhere else, blank means ASCII
whitespace only, and each line is decoded as UTF-8 on its own.

The fuzz tests mutate valid .apc, manifest and trace bytes with the
characters those rules turn on.  Every input loads or raises an
ApateError; an error at a line names the first line that fails; a loaded
program reloads from its own bytes to an equal program with the same
bytes and binds; a loaded VFS keeps its invariants; a trace replays the
same way twice, keeping the VFS invariants after every event.
"""

import io
import random
import re
from pathlib import Path

import pytest

from apate import apc
from apate.cloak import apply_cloak, cloak_ruleset
from apate.dsl import compile_source
from apate.engine import validate_program
from apate.errors import (ApateError, BadMagic, CorruptRecord, LineError,
                          MalformedManifestLine, TraceError)
from apate.logsink import VfsSink
from apate.replay import iter_trace, replay_trace
from apate.sandbox import SandboxState, split_path, vfs_from_manifest

from conftest import MYSQL_EXAMPLE, check_invariants
from test_acceptance import random_program_source

LS, PS, NEL = "\N{LINE SEPARATOR}", "\N{PARAGRAPH SEPARATOR}", "\x85"
IDEOGRAPHIC_SPACE = "\N{IDEOGRAPHIC SPACE}"

# What a mutation inserts or writes over: the line ends of bytes.splitlines,
# the further ones of str.splitlines, a tab, a byte that is not UTF-8, and
# JSON's quote, escape and list opener.
MARKS = (b"\n", b"\r", b"\r\n", b"\t", b"\x0b", b"\x0c", b"\x1c",
         NEL.encode(), LS.encode(), PS.encode(), b"\xff", b'"', b"\\", b"[")


class TestReader:
    def test_line_ends_blank_lines_and_numbers(self):
        data = (b"a\r\n\r \t\x0b\x0c\nb\x0bc\x1c\rd" + NEL.encode() + b"e"
                + LS.encode() + PS.encode() + b"\n\n"
                + IDEOGRAPHIC_SPACE.encode())
        assert list(LineError.lines(data.splitlines(), first=3)) == [
            (3, "a"), (6, "b\x0bc\x1c"), (7, f"d{NEL}e{LS}{PS}"),
            (9, IDEOGRAPHIC_SPACE)]

    @pytest.mark.parametrize("cls", [CorruptRecord, MalformedManifestLine,
                                     TraceError])
    def test_a_line_that_is_not_utf8_raises_the_callers_class(self, cls):
        lines = cls.lines([b"ok", b" ", b"ab\xffc"], first=5)
        assert next(lines) == (5, "ok")
        with pytest.raises(cls) as exc:
            next(lines)
        assert str(exc.value) == ("line 7: not UTF-8: invalid start byte "
                                  "at byte 3")


class TestThreeFormats:
    @pytest.mark.parametrize("end", [b"\n", b"\r\n", b"\r"])
    def test_every_format_numbers_lines_by_the_one_rule(self, end):
        with pytest.raises(CorruptRecord,
                           match="^line 3: unknown record type 'WHAT'$"):
            apc.deserialize(end.join([b"APATE-RP 1", b"", b"WHAT\tx", b""]))
        with pytest.raises(CorruptRecord, match="^line 3: not UTF-8: "
                           "invalid start byte at byte 2$"):
            apc.deserialize(end.join([b"APATE-RP 1", b" ", b"W\xff"]))
        with pytest.raises(MalformedManifestLine, match="^line 2: not UTF-8: "
                           "invalid start byte at byte 4$"):
            vfs_from_manifest(end.join([b"D /a", b"D /\xff", b""]))
        with pytest.raises(TraceError, match="^line 3: "):
            list(iter_trace(io.BytesIO(end.join([b"", b" ", b"{bad"]))))

    @pytest.mark.parametrize("data, message", [
        (b"", "empty file"),
        (b"\n", "bad header ''"),
        (b" \t\nAPATE-RP 1\n", "bad header ' \\t'"),
        (b"APATE-RP\n", "bad header 'APATE-RP'"),
        (f"APATE-RP{LS} 1\n".encode(), f"bad header {f'APATE-RP{LS} 1'!r}"),
    ])
    def test_the_apc_header_is_line_1(self, data, message):
        with pytest.raises(BadMagic) as exc:
            apc.deserialize(data)
        assert str(exc.value) == message

    @pytest.mark.parametrize("text", ["x\x0cy", f"a{LS}{NEL}\x1c\tb"])
    def test_manifest_inline_text_keeps_what_is_not_a_line_end(self, text):
        data = f"F /c {len(text.encode())} @{text}\n".encode()
        assert vfs_from_manifest(data).read_file("/c") == text.encode()


# --- seeded fuzz ------------------------------------------------------------

def _mutate(rng, data: bytes) -> bytes:
    """data with one to three inserts, deletes, replacements or repeats of
    the line around a byte (a name defined twice)."""
    out = bytearray(data)
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(out) + 1)
        op = rng.randrange(4)
        if op == 0:
            out[i:i] = rng.choice(MARKS)
        elif op == 1:
            del out[i:i + rng.randint(1, 4)]
        elif op == 2:
            out[i:i + rng.randint(1, 4)] = rng.choice(MARKS)
        else:
            start = out.rfind(b"\n", 0, i) + 1
            end = out.find(b"\n", i) + 1 or len(out)
            out[start:start] = out[start:end].rstrip(b"\n") + b"\n"
    return bytes(out)


def _assert_at_its_line(load, data: bytes, exc: ApateError) -> None:
    """A LineError names the first line of data that fails: the lines
    before it load, and with it they fail there."""
    if not isinstance(exc, LineError):
        return
    raws = data.splitlines()
    n = exc.line_no
    assert 1 <= n <= len(raws) and raws[n - 1].strip(), exc
    if n > 1:
        load(b"\n".join(raws[:n - 1]))
    with pytest.raises(type(exc)) as again:
        load(b"\n".join(raws[:n]))
    assert again.value.line_no == n


def _load_apc(data: bytes):
    """The program data holds, checked to reload from its own bytes to an
    equal program with the same bytes (also when ``data`` numbers its
    records otherwise, say a first condition ``c5``) and to bind; or None
    after an ApateError at its line."""
    try:
        prog = apc.deserialize(data)
    except ApateError as exc:
        _assert_at_its_line(apc.deserialize, data, exc)
        return None
    blob = apc.serialize(prog)
    again = apc.deserialize(blob)
    assert again == prog
    assert apc.serialize(again) == blob
    validate_program(again)
    return prog


def _load_manifest(data: bytes):
    try:
        vfs = vfs_from_manifest(data)
    except ApateError as exc:
        _assert_at_its_line(vfs_from_manifest, data, exc)
        return None
    check_invariants(vfs)
    return vfs


def _apc_inputs():
    """Valid .apc bytes: the mysql example and seeded random programs,
    every other one with line separators, a form feed and a tab at the
    start of its strings and in its file name."""
    rng = random.Random(25)
    blobs = [apc.serialize(compile_source(MYSQL_EXAMPLE, "mysql.apate")[0])]
    for i in range(10):
        source, name = random_program_source(rng), f"p{i}.apate"
        if i % 2:   # not in an operator: those start with a symbol
            source = re.sub(r'"(?=[/a-z])', f'"{LS}{NEL}{PS}\x0c\t', source)
            name = f"p\t{LS}{i}.apate"
        blobs.append(apc.serialize(compile_source(source, name)[0]))
    return blobs


def _manifest_input(rng) -> bytes:
    """A valid manifest: directories, filled and inline files and blank
    lines, ending lines at \\n, \\r\\n or \\r."""
    lines = []
    for i in range(rng.randint(4, 10)):
        kind = rng.randrange(4)
        if kind == 0:
            lines.append(f"D /d{i}/e")
        elif kind == 1:
            lines.append(f"F /d{i}/f{i} {rng.randrange(9)} {rng.randrange(256):x}")
        elif kind == 2:
            text = f"é{LS}\x0c{NEL}\t{PS}\x1c{i}"
            lines.append(f"F /t{i} {len(text.encode())} @{text}")
        else:
            lines.append(rng.choice(["", " \t", "\x0b"]))
    out = b""
    for line in lines:
        out += line.encode() + rng.choice((b"\n", b"\r\n", b"\r"))
    return out


def test_apc_with_other_ids_reloads_to_an_equal_program():
    blob = APC_INPUTS[0]
    for old, new in [(b"c0", b"c9"), (b"c1", b"c5"), (b"a0", b"a7")]:
        blob = blob.replace(b"\t" + old, b"\t" + new).replace(
            old + b" ", new + b" ").replace(b" " + old, b" " + new)
    assert blob.startswith(b"APATE-RP 1\nCOND\tc9\t")
    prog = _load_apc(blob)
    assert prog == apc.deserialize(APC_INPUTS[0])
    assert apc.serialize(prog) == APC_INPUTS[0]


@pytest.mark.parametrize("seed", range(4))
def test_apc_fuzz(seed):
    rng = random.Random(seed)
    for blob in APC_INPUTS:
        assert _load_apc(blob) is not None
        for _ in range(40):
            _load_apc(_mutate(rng, blob))


@pytest.mark.parametrize("seed", range(4))
def test_manifest_fuzz(seed):
    rng = random.Random(100 + seed)
    for _ in range(10):
        data = _manifest_input(rng)
        assert _load_manifest(data) is not None
        for _ in range(40):
            _load_manifest(_mutate(rng, data))


APC_INPUTS = _apc_inputs()


@pytest.fixture(scope="module")
def honeypot_mix(tmp_path_factory):
    """The mysql program's source and its cloaked program, the log path,
    and a honeypot-mix input from perfbench/gen.py: its manifest lines
    by directory, and its trace lines."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
        import gen
    inputs = gen.generate("honeypot-mix", 26, str(tmp_path_factory.mktemp("hm")))
    source = Path(inputs.source).read_bytes()
    prog = apply_cloak(compile_source(source.decode())[0],
                       cloak_ruleset(gen.LOG_PATH))
    validate_program(prog)
    by_dir = {}
    for line in Path(inputs.manifest).read_bytes().splitlines():
        parent = split_path(line.split()[1].decode())[0].encode()
        by_dir[parent] = by_dir.get(parent, b"") + line + b"\n"
    return (source, prog, gen.LOG_PATH, by_dir,
            Path(inputs.trace).read_bytes().splitlines())


def _replay(prog, log_path, world: bytes, data: bytes):
    """Replay the trace data into a fresh world under a fixed clock,
    checking the VFS after every event: the dispositions, the VFS digest,
    and the TraceError that ended the replay, if one did."""
    sb = SandboxState(vfs=vfs_from_manifest(world),
                      clock=lambda: "2024-05-01T12:00:00.000000+00:00")
    sb.sinks = [VfsSink(sb.vfs, log_path)]
    disps = []

    def emit(disp):
        check_invariants(sb.vfs)
        disps.append(disp)

    try:
        replay_trace(prog, iter_trace(io.BytesIO(data)), sb, emit)
    except TraceError as exc:
        return disps, sb.vfs.digest(), exc
    return disps, sb.vfs.digest(), None


@pytest.mark.parametrize("seed", range(4))
def test_trace_fuzz(seed, honeypot_mix):
    source, prog, log_path, by_dir, trace = honeypot_mix
    rng = random.Random(200 + seed)
    for _ in range(75):
        at = rng.randrange(len(trace) - 12)
        window = b"\n".join(trace[at:at + 12]) + b"\n"
        # The world holds what the window can reach: the entries of each
        # directory it or the program names (a path names its directory).
        world = b"".join(lines for parent, lines in by_dir.items()
                         if parent in window or parent in source)
        data = _mutate(rng, window)
        disps, digest, exc = _replay(prog, log_path, world, data)
        again = _replay(prog, log_path, world, data)
        assert again[:2] == (disps, digest) and str(again[2]) == str(exc)
        if exc is not None:   # at the first line that fails to parse
            lines = data.splitlines()
            assert lines[exc.line_no - 1] not in window.splitlines()
            assert len(disps) == sum(1 for line in lines[:exc.line_no - 1]
                                     if line.strip())
