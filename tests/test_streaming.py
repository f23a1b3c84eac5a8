"""`apate run` streams: trace blocks in, one dispatch per parsed line,
report batches out, with the bytes of the whole-report `json.dumps`."""

import io
import json
import random
import sys
import tracemalloc

import pytest

from apate import cli, replay
from apate.cli import main
from apate.errors import TraceError
from apate.model import SYSCALLS, Disposition
from apate.replay import Report, iter_trace, parse_trace, replay_trace

from conftest import MYSQL_EXAMPLE, to_dict

CTX = {"pid": 42, "uid": 1000, "ssid": 1, "pname": "bash",
       "parent_pname": "mysql"}
FS = "D /var/lib/mysql\nF /honey/mysql/ibdata1 5 @honey\nF /etc/hosts 3 @abc\n"
LOG_EVERYTHING = ('define r as rule\ndefine rc as rulechain\n'
                  'let r be {{always_true()}->log(),call_orig()}\n'
                  'let rc be {r}\n'
                  'bind rc to sys_open\nbind rc to sys_read\n'
                  'bind rc to sys_close\nbind rc to sys_getpid\n')


def line(seq, syscall, args, ensure_ascii=True):
    return json.dumps({"seq": seq, "syscall": syscall, "args": args,
                       "ctx": CTX}, ensure_ascii=ensure_ascii)


def open_read_close(n):
    """``n`` trace lines cycling open/read/close (no execve, so no notes).
    The sandbox never reuses a descriptor: the k-th open returns 3 + k."""
    def event(i):
        fd = 3 + (i - 1) // 3
        return [("open", ["/var/lib/mysql/ibdata1", "r"]), ("read", [fd, 4]),
                ("close", [fd])][(i - 1) % 3]
    return "".join(line(i, *event(i)) + "\n" for i in range(1, n + 1))


def compile_to(tmp_path, source, name="prog"):
    src = tmp_path / f"{name}.apate"
    src.write_text(source)
    out = tmp_path / f"{name}.apc"
    assert main(["compile", str(src), "-o", str(out)]) == 0
    return out


@pytest.fixture
def mysql(tmp_path):
    return compile_to(tmp_path, MYSQL_EXAMPLE)


@pytest.fixture
def world(tmp_path):
    fs = tmp_path / "fs.manifest"
    fs.write_text(FS)
    return fs


def in_memory_report(prog_path, fs, trace_text) -> bytes:
    """The report as one json.dumps of the whole dict, built in memory."""
    prog, sandbox = cli.open_world(prog_path, fs=fs)
    dispositions = []
    report = replay_trace(prog, parse_trace(trace_text), sandbox,
                          dispositions.append)
    full = {"events": [to_dict(d) for d in dispositions], **report.to_dict()}
    return (json.dumps(full) + "\n").encode()


class TestReportBytes:
    @pytest.mark.parametrize("n", [0, 1, 1023, 1024, 1025, 2500])
    def test_report_file_matches_one_dumps_of_the_whole_dict(
            self, mysql, world, tmp_path, n):
        text = open_read_close(n)
        trace = tmp_path / "trace.jsonl"
        trace.write_text(text)
        out = tmp_path / "report.json"
        assert main(["run", "--program", str(mysql), "--trace", str(trace),
                     "--fs", str(world), "--report", str(out)]) == 0
        got = out.read_bytes()
        assert got == in_memory_report(mysql, world, text)
        assert len(json.loads(got)["events"]) == n
        assert [p.name for p in tmp_path.iterdir()
                if p.name.endswith(".tmp")] == []

    def test_stdin_gives_the_same_bytes_as_the_file(self, mysql, world,
                                                    tmp_path, monkeypatch):
        text = open_read_close(1500)
        trace = tmp_path / "trace.jsonl"
        trace.write_text(text)
        argv = ["run", "--program", str(mysql), "--fs", str(world)]
        from_file = tmp_path / "file.json"
        from_stdin = tmp_path / "stdin.json"
        assert main(argv + ["--trace", str(trace),
                            "--report", str(from_file)]) == 0
        monkeypatch.setattr(sys, "stdin",
                            io.TextIOWrapper(io.BytesIO(text.encode())))
        assert main(argv + ["--trace", "-", "--report", str(from_stdin)]) == 0
        assert from_stdin.read_bytes() == from_file.read_bytes()

    def test_the_report_needs_only_json_dumps_at_run_time(
            self, mysql, world, tmp_path, monkeypatch):
        # a traced perfbench run puts a namespace with only ``dumps`` in
        # place of cli.json
        monkeypatch.setattr(cli, "json", type("J", (), {
            "dumps": staticmethod(json.dumps)}))
        text = open_read_close(1500)
        trace = tmp_path / "trace.jsonl"
        trace.write_text(text)
        out = tmp_path / "report.json"
        assert main(["run", "--program", str(mysql), "--trace", str(trace),
                     "--fs", str(world), "--report", str(out)]) == 0
        assert out.read_bytes() == in_memory_report(mysql, world, text)


# Text a trace's JSON can hold: non-ASCII, lone surrogates, control
# characters, the two characters JSON escapes, and astral code points.
_CHARS = ["a", "/", " ", "é", "\u2028", "\U0001f600", "\ud800", "\udc80",
          "\x00", "\x1f", "\x7f", "\n", "\t", '"', "\\", "\u00ff"]
_FLOATS = [0.0, -0.0, 1.5, -2.25, 1e16, 1e-7, 1.7976931348623157e308,
           5e-324, 0.1, float("inf"), float("-inf"), float("nan")]


def _value(rng, depth=0):
    kind = rng.randrange(6 if depth < 3 else 4)
    if kind == 0:
        return "".join(rng.choice(_CHARS) for _ in range(rng.randrange(6)))
    if kind == 1:
        return rng.choice([0, -1, 2 ** 63, -(10 ** 40), True, False, None,
                           rng.randrange(-5, 1 << 16)])
    if kind == 2:
        return {"len": rng.randrange(1 << 20)}
    if kind == 3:
        return rng.choice(_FLOATS)
    if kind == 4:
        return [_value(rng, depth + 1) for _ in range(rng.randrange(4))]
    return {"k" + rng.choice(_CHARS): _value(rng, depth + 1)
            for _ in range(rng.randrange(3))}


def random_dispositions(seed, n):
    rng = random.Random(seed)
    return [Disposition(
        seq=rng.choice([i, rng.randrange(1 << 62)]),
        syscall=rng.choice(SYSCALLS),
        matched_rules=rng.sample(range(60), rng.choice([0, 0, 1, 2, 5])),
        result=rng.choice([0, 3, -2, -13, rng.randrange(-(1 << 40), 1 << 40)]),
        blocked=rng.random() < 0.5,
        manipulated_args=rng.choice([(), [_value(rng)],
                                     [_value(rng) for _ in range(3)]]),
        conditions_evaluated=rng.randrange(3000))
        for i in range(1, n + 1)]


class TestReportEntries:
    """Each ``events[]`` entry is written without a dict or json.dumps;
    the reference is json.dumps of the entry's dict."""

    EDGES = [
        Disposition(1, "open", [], -13, True,
                    ['"\\/\x00\x1f\x7f\ud800\udfff\U0001f600é\u2028', -0.0,
                     1e16, 10 ** 30, -(2 ** 64), True, False, None,
                     [[], [1.5, [None, "x"]]], {"len": 9}], 0),
        Disposition(2 ** 70, "getpid", [0, 3, 17], 0, False, (), 5),
        Disposition(3, "write", [4], -(10 ** 20), False, [5, 1.0])]

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_entries_are_the_bytes_of_json_dumps(self, seed):
        ds = self.EDGES + random_dispositions(seed, 400)
        for d in ds:
            assert cli._entry(d) == json.dumps(to_dict(d))
        assert ", ".join(map(cli._entry, ds)) == json.dumps(
            [to_dict(d) for d in ds])[1:-1]

    @pytest.mark.parametrize("n", [0, 1, 1023, 1024, 1025, 2049])
    def test_a_stream_is_one_dumps_of_the_whole_report(self, n):
        ds = random_dispositions(n, n)
        report = Report(total_conditions=n, log_records=2, vfs_digest="ab",
                        diagnostics={"dropped": 0, "notes": ["\ud800 é"]})
        out = io.StringIO()
        stream = cli._ReportStream(out)
        for d in ds:
            stream.emit(d)
        stream.finish(report)
        assert out.getvalue() == json.dumps(
            {"events": [to_dict(d) for d in ds], **report.to_dict()}) + "\n"

    def test_the_stream_holds_at_most_one_batch(self):
        writes, held = [], []
        out = type("Out", (), {"write": lambda _, text: writes.append(text)})
        stream = cli._ReportStream(out())
        for d in random_dispositions(5, 2500):
            stream.emit(d)
            held.append(len(stream.batch))
        stream.finish(Report())
        assert max(held) == cli.REPORT_BATCH - 1
        # the head, one write per batch, and the tail
        assert [w.count('{"seq": ') for w in writes] == [0, 1024, 1024, 452, 0]


class TestFlatMemory:
    def peak(self, prog, world, tmp_path, n):
        trace = tmp_path / f"trace-{n}.jsonl"
        trace.write_text(open_read_close(n))
        out = tmp_path / f"report-{n}.json"
        argv = ["run", "--program", str(prog), "--trace", str(trace),
                "--fs", str(world), "--report", str(out)]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_does_not_grow_with_trace_length(self, mysql, world,
                                                  tmp_path):
        small = self.peak(mysql, world, tmp_path, 10_000)
        large = self.peak(mysql, world, tmp_path, 100_000)
        assert large < 2 * small, (small, large)


class TestBadLine:
    def test_stops_at_the_bad_line_and_keeps_the_old_report(
            self, tmp_path, capsys):
        prog = compile_to(tmp_path, LOG_EVERYTHING)
        trace = tmp_path / "trace.jsonl"
        good = [line(i, "getpid", []) for i in range(1, 6)]
        trace.write_text("\n".join(good + ["{not json"]
                                   + [line(7, "getpid", [])]) + "\n")
        log = tmp_path / "records.log"
        report = tmp_path / "report.json"
        report.write_text("the report of an earlier run\n")
        assert main(["run", "--program", str(prog), "--trace", str(trace),
                     "--log-file", str(log), "--report", str(report)]) == 1
        assert "apate: bad trace: line 6:" in capsys.readouterr().err
        seqs = [int(r.split("|")[3]) for r in log.read_text().splitlines()]
        assert seqs == [1, 2, 3, 4, 5]
        assert report.read_text() == "the report of an earlier run\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "prog.apate", "prog.apc", "records.log", "report.json",
            "trace.jsonl"]

    def test_no_report_file_is_left(self, mysql, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        trace.write_text(line(1, "getpid", []) + "\n[1]\n")
        report = tmp_path / "report.json"
        assert main(["run", "--program", str(mysql), "--trace", str(trace),
                     "--report", str(report)]) == 1
        assert "line 2" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "prog.apate", "prog.apc", "trace.jsonl"]

    def test_non_utf8_line_is_a_trace_error(self, mysql, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        bad = line(2, "open", ["/a-b", "r"]).encode().replace(b"-", b"\xff")
        trace.write_bytes(line(1, "getpid", []).encode() + b"\n" + bad + b"\n")
        assert main(["run", "--program", str(mysql), "--trace", str(trace),
                     "--report", str(tmp_path / "report.json")]) == 1
        assert "apate: bad trace: line 2: not UTF-8" in capsys.readouterr().err
        with pytest.raises(TraceError, match="line 2: not UTF-8"):
            list(iter_trace(io.BytesIO(b"\n" + bad)))


class TestLineRules:
    @pytest.mark.parametrize("sep", ["\u2028", "\u0085", "\u2029"])
    def test_unicode_line_separators_stay_inside_a_line(self, sep):
        raw = line(2, "open", [f"/a{sep}b", "r"], ensure_ascii=False)
        assert sep in raw
        text = line(1, "getpid", []) + "\n" + raw + "\n"
        events = parse_trace(text)
        assert [e.seq for e in events] == [1, 2]
        assert events[1].args == [f"/a{sep}b", "r"]

    @pytest.mark.parametrize("sep", ["\u2028", "\u0085"])
    def test_unicode_line_separators_through_apate_run(self, mysql, tmp_path,
                                                       sep):
        trace = tmp_path / "trace.jsonl"
        trace.write_text(line(1, "open", [f"/a{sep}b", "r"],
                              ensure_ascii=False) + "\n", encoding="utf-8")
        out = tmp_path / "report.json"
        assert main(["run", "--program", str(mysql), "--trace", str(trace),
                     "--report", str(out)]) == 0
        (event,) = json.loads(out.read_text())["events"]
        assert event["args"] == [f"/a{sep}b", "r"] and event["result"] == -2

    def test_line_ends(self):
        text = (line(1, "getpid", []) + "\r\n" + line(2, "getpid", []) + "\r"
                + line(3, "getpid", []) + "\n\x0b\n" + line(5, "getpid", []))
        assert [e.seq for e in parse_trace(text)] == [1, 2, 3, 5]

    @pytest.mark.parametrize("block", [1, 2, 7, 64, 1 << 20])
    def test_any_block_size_gives_the_same_events_and_line_numbers(
            self, monkeypatch, block):
        lines = [line(i, "open", [f"/f{'x' * i}", "r"], ensure_ascii=False)
                 for i in range(1, 9)]
        text = ("\r\n".join(lines[:3]) + "\r\n\n" + "\r".join(lines[3:6])
                + "\n \n" + "\n".join(lines[6:]) + "\n{bad\n")
        monkeypatch.setattr(replay, "TRACE_BLOCK", block)
        events = []
        with pytest.raises(TraceError) as exc:
            for ev in iter_trace(io.BytesIO(text.encode())):
                events.append(ev)
        assert [e.seq for e in events] == list(range(1, 9))
        assert exc.value.line_no == 11


    def test_a_cr_only_trace_is_cut_into_blocks_too(self, monkeypatch):
        monkeypatch.setattr(replay, "TRACE_BLOCK", 64)
        lines = [line(i, "getpid", []).encode() for i in range(1, 200)]
        text = b"\r".join(lines) + b"\r\n"
        pieces = list(replay._whole_lines(io.BytesIO(text)))
        assert b"".join(pieces) == text
        assert max(map(len, pieces)) <= 2 * (64 + max(map(len, lines)))
        assert [e.seq for e in iter_trace(io.BytesIO(text))] == list(
            range(1, 200))


class TestStreamedReplay:
    def test_each_event_is_dispatched_before_the_next_line_is_parsed(
            self, mysql, world, tmp_path, monkeypatch):
        calls = []
        parse, dispatch = replay.parse_trace_line, replay.dispatch
        monkeypatch.setattr(replay, "parse_trace_line", lambda *a: (
            calls.append("parse"), parse(*a))[1])
        monkeypatch.setattr(replay, "dispatch", lambda *a, **k: (
            calls.append("dispatch"), dispatch(*a, **k))[1])
        trace = tmp_path / "trace.jsonl"
        trace.write_text(open_read_close(4))
        assert main(["run", "--program", str(mysql), "--trace", str(trace),
                     "--fs", str(world),
                     "--report", str(tmp_path / "r.json")]) == 0
        assert calls == ["parse", "dispatch"] * 4
