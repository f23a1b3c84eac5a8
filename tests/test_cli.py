import json
import os
import socket
import subprocess
import sys
from pathlib import Path

import pytest

from apate import apc, cli, engine
from apate.cli import main, open_world
from apate.cloak import apply_cloak, cloak_ruleset
from apate.dsl import compile_source
from apate.engine import dispatch
from apate.errors import ApateError
from apate.logsink import FileSink, VfsSink
from apate.replay import parse_trace, replay_trace
from apate.sandbox import SandboxState

from conftest import (MYSQL_EXAMPLE, make_ctx, make_event, parse_record,
                      to_dict)

TRACE_CTX = {"pid": 42, "uid": 1000, "ssid": 1, "pname": "bash",
             "parent_pname": "mysql"}


def trace_line(seq, syscall, args, **ctx_over):
    ctx = dict(TRACE_CTX, **ctx_over)
    return json.dumps({"seq": seq, "syscall": syscall, "args": args,
                       "ctx": ctx})


@pytest.fixture
def compiled(tmp_path):
    src = tmp_path / "prog.apate"
    src.write_text(MYSQL_EXAMPLE)
    out = tmp_path / "prog.apc"
    assert main(["compile", str(src), "-o", str(out)]) == 0
    return out


class TestCompile:
    def test_ok(self, compiled):
        assert compiled.read_bytes().startswith(b"APATE-RP 1\n")

    def test_diagnostic_exit_code_and_format(self, tmp_path, capsys):
        src = tmp_path / "bad.apate"
        src.write_text("define c as condition\nlet c be nosuchbuiltin\n")
        assert main(["compile", str(src), "-o", str(tmp_path / "x.apc")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"{src}:2:")

    def test_nul_in_a_rewrite_is_refused_at_its_line(self, tmp_path, capsys):
        src = tmp_path / "bad.apate"
        src.write_text('define r as rule\ndefine rc as rulechain\n'
                       'let r be {{always_true()}->'
                       'manipulateparam(0;"/x*";"/y\\u0000")}\n'
                       'let rc be {r}\nbind rc to open\n')
        out = tmp_path / "x.apc"
        assert main(["compile", str(src), "-o", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"{src}:3:1: manipulateparam: NUL character in '/y\\x00'\n")
        assert not out.exists()

    def test_syntax_error_location(self, tmp_path, capsys):
        src = tmp_path / "bad.apate"
        src.write_text("let x be\n")
        assert main(["compile", str(src), "-o", str(tmp_path / "x.apc")]) == 1
        assert capsys.readouterr().err.startswith(f"{src}:")

    @pytest.mark.parametrize("text, where", [
        ('let x be f(5\u00b2)', "1:13"),      # '5' then a superscript two
        ('define c as condition\nlet c be f(\u0663)', "2:12"),  # Arabic-Indic 3
        ('define r as rule\ndefine rc as rulechain\n'   # a lone surrogate
         'let r be {{testforpname("\\ud800")}->log()}\n'
         'let rc be {r}\nbind rc to sys_open\n', "3:26"),
        ('let x be f("ok", "\\u0x41")', "1:19"),
    ])
    def test_lexical_error_exits_1_with_location(self, tmp_path, capsys,
                                                 text, where):
        src = tmp_path / "bad.apate"
        src.write_text(text, encoding="utf-8")
        assert main(["compile", str(src), "-o", str(tmp_path / "x.apc")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"{src}:{where}: ")
        assert "Traceback" not in err

    def test_integer_past_the_digit_limit_exits_1(self, tmp_path, capsys):
        src = tmp_path / "big.apate"
        src.write_text("define c1 as condition\n"
                       f'let c1 be testforuid("==";{"9" * 5000})\n')
        out = tmp_path / "x.apc"
        assert main(["compile", str(src), "-o", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"{src}:2:27: integer literal of 5000 characters is too long\n")
        assert not out.exists()

    @pytest.mark.parametrize("data, where, reason", [
        (b"define c as condition\n\xff\n", "2:1", "invalid start byte"),
        (b'define c as condition\nlet c be f("\xc3\xa9\xc3")', "2:14",
         "invalid continuation byte"),
        (b"define c as condition\r\n  \xe9", "2:3", "unexpected end of data"),
        (b"define c as condition\r\rx\xe9x", "3:2",
         "invalid continuation byte"),
    ])
    def test_source_that_is_not_utf8_exits_1_with_location(
            self, tmp_path, capsys, data, where, reason):
        src = tmp_path / "bad.apate"
        src.write_bytes(data)
        out = tmp_path / "x.apc"
        assert main(["compile", str(src), "-o", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"{src}:{where}: not UTF-8: {reason}\n")
        assert not out.exists()

    @pytest.mark.parametrize("newline", ["\r\n", "\r"])
    def test_crlf_and_cr_sources_compile_as_lf(self, tmp_path, monkeypatch,
                                               newline):
        blobs = []
        for name, text in (("lf", MYSQL_EXAMPLE),
                           ("other", MYSQL_EXAMPLE.replace("\n", newline))):
            (tmp_path / name).mkdir()
            monkeypatch.chdir(tmp_path / name)
            Path("p.apate").write_bytes(text.encode())
            assert main(["compile", "p.apate", "-o", "p.apc"]) == 0
            blobs.append(Path("p.apc").read_bytes())
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize("name, shown", [
        ("a\tb.apate", "a\\tb.apate"),
        ("a\nb.apate", "a\\nb.apate"),
        ("a\rb.apate", "a\\rb.apate"),
        (os.fsdecode(b"a\xffb.apate"), "a\\udcffb.apate"),
        ("a b\N{LINE SEPARATOR}\x0b.apate", "a b\N{LINE SEPARATOR}\x0b.apate"),
    ])
    def test_any_source_path_gives_an_apc_that_loads_and_round_trips(
            self, tmp_path, monkeypatch, name, shown):
        monkeypatch.chdir(tmp_path)
        Path(name).write_text(MYSQL_EXAMPLE)
        assert main(["compile", name, "-o", "p.apc"]) == 0
        blob = Path("p.apc").read_bytes()
        prog = apc.deserialize(blob)
        assert apc.serialize(prog) == blob
        assert [r.span for r in prog.chains["rc1"].rules] == [
            f"{shown}:20", f"{shown}:18"]

    def test_missing_input_is_io_error(self, tmp_path, capsys):
        assert main(["compile", str(tmp_path / "none.apate"),
                     "-o", str(tmp_path / "x.apc")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_output_in_missing_directory_is_io_error(self, tmp_path, capsys):
        src = tmp_path / "p.apate"
        src.write_text(MYSQL_EXAMPLE)
        out = tmp_path / "no" / "x.apc"
        assert main(["compile", str(src), "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"apate: cannot write {out}: ")
        assert not out.parent.exists()

    def test_warnings_printed_but_exit_zero(self, tmp_path, capsys):
        src = tmp_path / "warn.apate"
        src.write_text("define r,unused as rule\ndefine rc as rulechain\n"
                       "let r be {{always_true()}->log()}\n"
                       "let rc be {r}\nbind rc to sys_open\n")
        assert main(["compile", str(src), "-o", str(tmp_path / "x.apc")]) == 0
        assert "warning:" in capsys.readouterr().err


def test_python_m_apate_help():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (os.path.join(os.path.dirname(__file__), "..", "src"),
                    os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-m", "apate", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: apate ")
    assert "compile" in done.stdout


class TestRun:
    def test_replay_with_manifest_and_report(self, compiled, tmp_path, capsys):
        fs = tmp_path / "fs.manifest"
        fs.write_text("D /var/lib/mysql\n"
                      "F /honey/mysql/ibdata1 5 @honey\n")
        trace = tmp_path / "trace.jsonl"
        trace.write_text(trace_line(1, "open", ["/var/lib/mysql/ibdata1", "r"])
                         + "\n")
        report_path = tmp_path / "report.json"
        assert main(["run", "--program", str(compiled), "--trace", str(trace),
                     "--fs", str(fs), "--report", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert report["log_records"] == 1
        (event,) = report["events"]
        assert event["result"] >= 3  # redirected open succeeded

    def test_report_to_stdout(self, compiled, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        trace.write_text(trace_line(1, "getpid", []) + "\n")
        assert main(["run", "--program", str(compiled),
                     "--trace", str(trace)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["events"][0]["result"] == 42

    def test_log_file_sink(self, compiled, tmp_path):
        trace = tmp_path / "trace.jsonl"
        trace.write_text(trace_line(1, "open", ["/etc/hosts", "r"]) + "\n")
        log = tmp_path / "records.log"
        assert main(["run", "--program", str(compiled), "--trace", str(trace),
                     "--log-file", str(log)]) == 0
        (line,) = log.read_text().splitlines()
        assert line.startswith("apate|1|")
        assert "|open|" in line

    def test_corrupt_program_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.apc"
        bad.write_bytes(b"APATE-RP 1\nWHAT\tx\n")
        trace = tmp_path / "trace.jsonl"
        trace.write_text(trace_line(1, "getpid", []) + "\n")
        assert main(["run", "--program", str(bad),
                     "--trace", str(trace)]) == 1
        assert "cannot load program" in capsys.readouterr().err

    def test_bad_manifest_exit_one(self, compiled, tmp_path, capsys):
        fs = tmp_path / "fs.manifest"
        fs.write_bytes(b"F /a 1 00\nD /a/b\n")
        trace = tmp_path / "trace.jsonl"
        trace.write_text(trace_line(1, "getpid", []) + "\n")
        assert main(["run", "--program", str(compiled), "--trace", str(trace),
                     "--fs", str(fs)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("apate: bad manifest: line 2: /a exists as a file")

    @pytest.mark.parametrize("length", ["9999999999999",
                                        "99999999999999999999"])
    def test_huge_manifest_length_exit_one(self, compiled, tmp_path, capsys,
                                           length):
        fs = tmp_path / "fs.manifest"
        fs.write_text(f"D /d\nF /a {length} 00\n")
        trace = tmp_path / "trace.jsonl"
        trace.write_text(trace_line(1, "getpid", []) + "\n")
        assert main(["run", "--program", str(compiled), "--trace", str(trace),
                     "--fs", str(fs)]) == 1
        assert capsys.readouterr().err == (
            f"apate: bad manifest: line 2: length {length} is over the "
            "1073741824-byte limit\n")

    def test_huge_write_is_efbig(self, compiled, tmp_path):
        trace = tmp_path / "trace.jsonl"
        trace.write_text("\n".join([
            trace_line(1, "open", ["/f", "w"]),
            trace_line(2, "write", [3, {"len": 99999999999999999999}]),
            trace_line(3, "write", [3, {"len": 4}]),
        ]) + "\n")
        report_path = tmp_path / "report.json"
        assert main(["run", "--program", str(compiled), "--trace", str(trace),
                     "--report", str(report_path)]) == 0
        events = json.loads(report_path.read_text())["events"]
        assert [e["result"] for e in events] == [3, -27, 4]

    def test_bad_trace_exit_one(self, compiled, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        trace.write_text("not json\n")
        assert main(["run", "--program", str(compiled),
                     "--trace", str(trace)]) == 1
        assert "bad trace" in capsys.readouterr().err

    def test_missing_trace_exit_one(self, compiled, tmp_path, capsys):
        missing = tmp_path / "none.jsonl"
        assert main(["run", "--program", str(compiled),
                     "--trace", str(missing)]) == 1
        assert capsys.readouterr().err == (
            f"apate: bad trace: [Errno 2] No such file or directory: "
            f"'{missing}'\n")

    def test_report_in_missing_directory_exit_one(self, compiled, tmp_path,
                                                  capsys):
        trace = tmp_path / "trace.jsonl"
        trace.write_text(trace_line(1, "getpid", []) + "\n")
        report = tmp_path / "no" / "report.json"
        assert main(["run", "--program", str(compiled), "--trace", str(trace),
                     "--report", str(report)]) == 1
        assert capsys.readouterr().err == (
            f"apate: [Errno 2] No such file or directory: '{report}'\n")
        assert not report.parent.exists()

    def test_sinks_close_before_the_report_is_kept(self, compiled, tmp_path,
                                                   monkeypatch, capsys):
        """A sink that fails to close fails the run: the report is not
        moved onto its path, as the sinks close before its tail."""
        class Failing(FileSink):
            def close(self):
                super().close()
                raise OSError("disk full")

        monkeypatch.setattr(cli, "FileSink", Failing)
        trace = tmp_path / "trace.jsonl"
        trace.write_text(trace_line(1, "getpid", []) + "\n")
        report = tmp_path / "report.json"
        assert main(["run", "--program", str(compiled), "--trace", str(trace),
                     "--log-file", str(tmp_path / "records.log"),
                     "--report", str(report)]) == 1
        assert capsys.readouterr().err == "apate: disk full\n"
        assert list(tmp_path.glob("report.json*")) == []

    def test_deeply_nested_apc_params_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "deep.apc"
        bad.write_bytes(b"APATE-RP 1\nCOND\tc0\ttestforuid\t"
                        + b"[" * 200_000 + b"\n")
        trace = tmp_path / "trace.jsonl"
        trace.write_text(trace_line(1, "getpid", []) + "\n")
        assert main(["run", "--program", str(bad),
                     "--trace", str(trace)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("apate: cannot load program: line 2: ")
        assert "recursion" in err and "Traceback" not in err

    @pytest.mark.parametrize("sep", ["\N{LINE SEPARATOR}", "\x85",
                                     "\N{PARAGRAPH SEPARATOR}"])
    def test_a_line_separator_in_a_param_compiles_loads_and_runs(
            self, tmp_path, sep):
        src = tmp_path / "sep.apate"
        src.write_text('define r as rule\ndefine rc as rulechain\n'
                       f'let r be {{{{testforpname("a{sep}b")}}->block(-1)}}\n'
                       'let rc be {r}\nbind rc to sys_open\n', encoding="utf-8")
        prog = tmp_path / "sep.apc"
        assert main(["compile", str(src), "-o", str(prog)]) == 0
        blob = prog.read_bytes()
        assert sep.encode() in blob
        assert apc.serialize(apc.deserialize(blob)) == blob
        trace = tmp_path / "trace.jsonl"
        trace.write_text(trace_line(1, "open", ["/f", "r"],
                                    parent_pname=f"a{sep}b") + "\n")
        report = tmp_path / "report.json"
        assert main(["run", "--program", str(prog), "--trace", str(trace),
                     "--report", str(report)]) == 0
        (event,) = json.loads(report.read_text())["events"]
        assert event["result"] == -1

    def test_cloak_hides_log_from_trace(self, compiled, tmp_path):
        trace = tmp_path / "trace.jsonl"
        # The first open is logged, which writes the log file into the VFS.
        trace.write_text("\n".join([
            trace_line(1, "open", ["/etc/hosts", "r"]),
            trace_line(2, "open", ["/var/log/apate.log", "r"]),
            trace_line(3, "getdents", ["/var/log"]),
        ]) + "\n")
        report_path = tmp_path / "report.json"
        assert main(["run", "--program", str(compiled), "--trace", str(trace),
                     "--cloak", "/var/log/apate.log",
                     "--report", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        results = [e["result"] for e in report["events"]]
        assert results[1] == -2   # log invisible
        assert results[2] == 0    # directory listing shows nothing

    def test_lone_surrogate_in_a_logged_path_is_a_sink_failure(self, tmp_path):
        src = tmp_path / "log.apate"
        src.write_text('define r as rule\ndefine rc as rulechain\n'
                       'let r be {{always_true()}->log(),call_orig()}\n'
                       'let rc be {r}\nbind rc to sys_open\n')
        prog = tmp_path / "log.apc"
        assert main(["compile", str(src), "-o", str(prog)]) == 0
        trace = tmp_path / "trace.jsonl"
        trace.write_text(trace_line(1, "open", ["/a\ud800", "r"]) + "\n")
        report_path = tmp_path / "report.json"
        assert main(["run", "--program", str(prog), "--trace", str(trace),
                     "--log-file", str(tmp_path / "records.log"),
                     "--report", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert report["log_records"] == 1
        assert [n["kind"] for n in report["diagnostics"]["notes"]] == ["SinkFailure"]
        assert report["diagnostics"]["dropped"] == 1

    def test_lone_surrogate_is_dropped_by_the_udp_sink(self, tmp_path):
        src = tmp_path / "log.apate"
        src.write_text('define r as rule\ndefine rc as rulechain\n'
                       'let r be {{always_true()}->log(),call_orig()}\n'
                       'let rc be {r}\nbind rc to sys_open\n')
        prog = tmp_path / "log.apc"
        assert main(["compile", str(src), "-o", str(prog)]) == 0
        trace = tmp_path / "trace.jsonl"
        trace.write_text(trace_line(1, "open", ["/a\ud800", "r"]) + "\n"
                         + trace_line(2, "open", ["/b", "r"]) + "\n")
        recv = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        recv.bind(("127.0.0.1", 0))
        recv.settimeout(5)
        report_path = tmp_path / "report.json"
        try:
            assert main(["run", "--program", str(prog), "--trace", str(trace),
                         "--log-udp", f"127.0.0.1:{recv.getsockname()[1]}",
                         "--report", str(report_path)]) == 0
            data, _ = recv.recvfrom(65536)
        finally:
            recv.close()
        assert parse_record(data.decode()).args == ["/b", "r"]
        report = json.loads(report_path.read_text())
        assert report["diagnostics"]["dropped"] == 1
        assert report["diagnostics"]["notes"] == []

    def run_read(self, tmp_path, source, count):
        src = tmp_path / "read.apate"
        src.write_text(source)
        prog = tmp_path / "read.apc"
        assert main(["compile", str(src), "-o", str(prog)]) == 0
        fs = tmp_path / "fs.manifest"
        fs.write_text("F /f 10 @0123456789\n")
        trace = tmp_path / "trace.jsonl"
        trace.write_text("\n".join([
            trace_line(1, "open", ["/f", "r"]),
            trace_line(2, "read", [3, count]),
            trace_line(3, "read", [3, 4]),
        ]) + "\n")
        report_path = tmp_path / "report.json"
        assert main(["run", "--program", str(prog), "--trace", str(trace),
                     "--fs", str(fs), "--report", str(report_path)]) == 0
        return [e["result"] for e in json.loads(report_path.read_text())["events"]]

    def test_read_count_rewritten_to_text_is_einval(self, tmp_path):
        source = ('define r as rule\ndefine rc as rulechain\n'
                  'let r be {{testforparam(1;"4096")}->'
                  'manipulateparam(1;"*";"lots"),call_orig()}\n'
                  'let rc be {r}\nbind rc to sys_read\n')
        assert self.run_read(tmp_path, source, 4096) == [3, -22, 4]

    def test_read_count_that_is_not_a_number_is_einval(self, tmp_path):
        source = ('define r as rule\ndefine rc as rulechain\n'
                  'let r be {{always_true()}->call_orig()}\n'
                  'let rc be {r}\nbind rc to sys_read\n')
        assert self.run_read(tmp_path, source, "x") == [3, -22, 4]
        assert self.run_read(tmp_path, source, 4.7) == [3, -22, 4]
        assert self.run_read(tmp_path, source, True) == [3, -22, 4]
        assert self.run_read(tmp_path, source, "4096") == [3, -22, 4]

    def test_read_count_that_is_not_ascii_digits_is_einval(self, tmp_path):
        # int() would read the Arabic-Indic digit three as 3.
        source = ('define r as rule\ndefine rc as rulechain\n'
                  'let r be {{always_true()}->call_orig()}\n'
                  'let rc be {r}\nbind rc to sys_read\n')
        assert self.run_read(tmp_path, source, "\u0663") == [3, -22, 4]

    def test_unhashable_fd_is_ebadf(self, tmp_path):
        src = tmp_path / "fd.apate"
        src.write_text('define r as rule\ndefine rc as rulechain\n'
                       'let r be {{testforfdpath(0;"*")}->block(-7)}\n'
                       'let rc be {r}\nbind rc to sys_read\n')
        prog = tmp_path / "fd.apc"
        assert main(["compile", str(src), "-o", str(prog)]) == 0
        fs = tmp_path / "fs.manifest"
        fs.write_text("F /f 10 @0123456789\n")
        trace = tmp_path / "trace.jsonl"
        trace.write_text("\n".join([
            trace_line(1, "open", ["/f", "r"]),
            trace_line(2, "read", [[3], 4]),    # no path: the rule misses
            trace_line(3, "write", [[3], 4]),
            trace_line(4, "close", [[3]]),
            trace_line(5, "read", [3, 4]),      # a path: the rule fires
        ]) + "\n")
        report_path = tmp_path / "report.json"
        assert main(["run", "--program", str(prog), "--trace", str(trace),
                     "--fs", str(fs), "--report", str(report_path)]) == 0
        events = json.loads(report_path.read_text())["events"]
        assert [e["result"] for e in events] == [3, -9, -9, -9, -7]

    def test_float_fd_is_ebadf(self, tmp_path):
        src = tmp_path / "fd.apate"
        src.write_text('define r as rule\ndefine rc as rulechain\n'
                       'let r be {{testforfdpath(0;"*")}->block(-7)}\n'
                       'let rc be {r}\nbind rc to sys_read\n')
        prog = tmp_path / "fd.apc"
        assert main(["compile", str(src), "-o", str(prog)]) == 0
        fs = tmp_path / "fs.manifest"
        fs.write_text("F /f 10 @0123456789\n")
        trace = tmp_path / "trace.jsonl"
        trace.write_text("\n".join([
            trace_line(1, "open", ["/f", "r"]),
            trace_line(2, "read", [3.0, 4]),    # no path: the rule misses
            trace_line(3, "write", [3.0, 4]),
            trace_line(4, "close", [3.0]),      # fd 3 stays open
            trace_line(5, "read", [3, 4]),      # a path: the rule fires
        ]) + "\n")
        report_path = tmp_path / "report.json"
        assert main(["run", "--program", str(prog), "--trace", str(trace),
                     "--fs", str(fs), "--report", str(report_path)]) == 0
        events = json.loads(report_path.read_text())["events"]
        assert [e["result"] for e in events] == [3, -9, -9, -9, -7]

    def test_store_cmp_ordering_on_a_string_cell(self, tmp_path):
        src = tmp_path / "store.apate"
        src.write_text(
            'define set,gt,eq,ne as rule\ndefine rc as rulechain\n'
            'let set be {{always_true()}->store_set("k";"abc")}\n'
            'let gt be {{store_cmp("k";">";3) || store_cmp("k";"<=";3)}'
            '->block(-1)}\n'
            'let eq be {{store_cmp("k";"==";3)}->block(-2)}\n'
            'let ne be {{store_cmp("k";"!=";3)}->block(-3)}\n'
            'let rc be {set,gt,eq,ne}\nbind rc to sys_getpid\n')
        prog = tmp_path / "store.apc"
        assert main(["compile", str(src), "-o", str(prog)]) == 0
        trace = tmp_path / "trace.jsonl"
        trace.write_text(trace_line(1, "getpid", []) + "\n")
        report_path = tmp_path / "report.json"
        assert main(["run", "--program", str(prog), "--trace", str(trace),
                     "--report", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        # neither ordering holds; == and != compare as before
        assert [e["result"] for e in report["events"]] == [-3]
        assert report["diagnostics"]["notes"] == [
            {"kind": "StoreTypeMismatch",
             "detail": "store_cmp: 'k' > 3 on a non-int cell"},
            {"kind": "StoreTypeMismatch",
             "detail": "store_cmp: 'k' <= 3 on a non-int cell"}]

    @pytest.mark.parametrize("port", ["70000", "-5"])
    @pytest.mark.parametrize("via", ["flag", "env"])
    def test_udp_port_out_of_range_is_a_bad_sink(self, compiled, tmp_path,
                                                 monkeypatch, capsys, port, via):
        trace = tmp_path / "trace.jsonl"
        trace.write_text(trace_line(1, "getpid", []) + "\n")
        argv = ["run", "--program", str(compiled), "--trace", str(trace)]
        if via == "env":
            monkeypatch.setenv("APATE_LOG_UDP", f"127.0.0.1:{port}")
        else:
            argv += ["--log-udp", f"127.0.0.1:{port}"]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("apate: bad sink:")

    def test_udp_host_with_no_ipv4_address_is_a_bad_sink(self, compiled,
                                                         tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        trace.write_text(trace_line(1, "getpid", []) + "\n")
        assert main(["run", "--program", str(compiled), "--trace", str(trace),
                     "--log-udp", "::1:9"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("apate: bad sink:")
        assert captured.out == ""

    @pytest.mark.parametrize("syscall,args", [("mkdir", ["/x\ud800"]),
                                              ("open", ["/y\udc80", "w"])])
    def test_a_path_with_a_lone_surrogate_is_in_the_digest(
            self, compiled, tmp_path, syscall, args):
        trace = tmp_path / "trace.jsonl"
        report_path = tmp_path / "report.json"
        digests = []
        for text in [trace_line(1, syscall, args) + "\n"] * 2 + [""]:
            trace.write_text(text)
            assert main(["run", "--program", str(compiled), "--trace",
                         str(trace), "--report", str(report_path)]) == 0
            report = json.loads(report_path.read_text())
            assert [e["result"] >= 0 for e in report["events"]] == [True] * (
                text != "")
            digests.append(report["vfs_digest"])
        assert digests[0] == digests[1] != digests[2]

    def test_cloaked_run_generates_each_guard_once(self, compiled, tmp_path,
                                                   monkeypatch):
        blocks = []
        generate = engine.compiled_guard

        def counting(block):
            blocks.append(block)
            return generate(block)

        monkeypatch.setattr(engine, "compiled_guard", counting)
        trace = tmp_path / "trace.jsonl"
        trace.write_text("\n".join([
            trace_line(1, "open", ["/var/lib/mysql/ibdata1", "r"]),
            trace_line(2, "open", ["/etc/hosts", "r"]),
            trace_line(3, "open", ["/var/log/apate.log", "r"]),
            trace_line(4, "read", [3, 10]),
            trace_line(5, "getdents", ["/var/log"]),
        ]) + "\n")
        assert main(["run", "--program", str(compiled), "--trace", str(trace),
                     "--cloak", "/var/log/apate.log",
                     "--report", str(tmp_path / "report.json")]) == 0
        prog = apply_cloak(apc.deserialize(compiled.read_bytes()),
                           cloak_ruleset("/var/log/apate.log"))
        distinct = {id(rule.guard) for chain in prog.chains.values()
                    for rule in chain.rules}
        assert len(distinct) == 5   # 2 mysql rules, 3 cloak rules
        assert len(blocks) == len({id(b) for b in blocks}) == len(distinct)

    def test_cloaked_run_crosses_every_benchmark_span(self, compiled,
                                                       tmp_path, monkeypatch):
        """perfbench/spans.py times layers by patching the boundaries one
        layer calls in another; a cloaked run must cross each of them, and
        so must an uncloaked run of a plan scanned in runs (more than
        SCAN_RUN rules of long guards) that logs to a file."""
        monkeypatch.syspath_prepend(str(Path(__file__).parents[1]
                                        / "perfbench"))
        import spans
        trace = tmp_path / "trace.jsonl"
        trace.write_text("\n".join([
            trace_line(1, "open", ["/var/lib/mysql/ibdata1", "r"]),
            trace_line(2, "open", ["/etc/hosts", "r"], parent_pname="sshd"),
            trace_line(3, "open", ["/var/log/apate.log", "r"]),
        ]) + "\n")
        with spans.Tracer().installed() as tracer:
            assert main(["run", "--program", str(compiled), "--trace",
                         str(trace), "--cloak", "/var/log/apate.log",
                         "--report", str(tmp_path / "report.json")]) == 0
        assert {"engine.validate", "engine.dispatch", "engine.guard",
                "engine.actions", "logsink.format", "logsink.emit.vfs",
                "sandbox.exec.open"} <= set(tracer.aggregate())

        rules = engine.SCAN_RUN + 4
        leaves = " && ".join(f'testforuid(">=";{-k})' for k in range(40))
        source = tmp_path / "runs.apate"
        source.write_text(
            f"define {','.join(f'r{i}' for i in range(rules))} as rule\n"
            "define rc as rulechain\n"
            + "".join(f"let r{i} be {{{{{leaves}}}->log()}}\n"
                      for i in range(rules))
            + f"let rc be {{{','.join(f'r{i}' for i in range(rules))}}}\n"
            "bind rc to sys_getpid\n")
        program, log = tmp_path / "runs.apc", tmp_path / "runs.log"
        assert main(["compile", str(source), "-o", str(program)]) == 0
        trace.write_text(trace_line(1, "getpid", []) + "\n")
        with spans.Tracer().installed() as tracer:
            assert main(["run", "--program", str(program), "--trace",
                         str(trace), "--log-file", str(log),
                         "--report", str(tmp_path / "report.json")]) == 0
        assert {"engine.guard", "engine.actions", "logsink.format",
                "logsink.emit.file"} <= set(tracer.aggregate())
        assert tracer.leaves == rules * 40
        assert len(log.read_text().splitlines()) == rules

    @pytest.mark.parametrize("name", [
        "cloak_path", "cloak_fd", "cloak_dir",
        "cloak_path+rc1", "cloak_fd+rc1", "cloak_dir+rc1"])
    def test_cloak_never_replaces_a_user_chain(self, tmp_path, name):
        # The chain called `name` blocks getpid; with a `+` in `name`,
        # rc1 is also bound where the cloak binds (open, read, getdents).
        assert name.split("+")[0] in cloak_ruleset("/var/log/apate.log").chains
        prog = tmp_path / "prog.apc"
        prog.write_text(
            'APATE-RP 1\nCOND\tc0\ttestforuid\t[">=",0]\n'
            "COND\tc1\talways_true\t[]\nACTION\ta0\tblock\t[-1]\n"
            "ACTION\ta1\tstore_add\t[\"n\",1]\n"
            "RULE\tr0\t(& c0 c1)\ta0\tp:1\nRULE\tr1\t(& c1 c1)\ta1\tp:2\n"
            f"CHAIN\t{name}\tr0\nCHAIN\trc1\tr1\nBIND\tsys_getpid\t{name}\n"
            + "".join(f"BIND\tsys_{sc}\trc1\n" * ("+" in name)
                      for sc in ("open", "read", "getdents")))
        trace = tmp_path / "trace.jsonl"
        trace.write_text("\n".join([
            trace_line(1, "getpid", []),
            trace_line(2, "open", ["/var/log/apate.log", "r"]),
            trace_line(3, "unlink", ["/var/log/apate.log"])]) + "\n")
        reports = []
        for flags in ([], ["--cloak", "/var/log/apate.log"]):
            out = tmp_path / "report.json"
            assert main(["run", "--program", str(prog), "--trace", str(trace),
                         "--report", str(out), *flags]) == 0
            reports.append(json.loads(out.read_text())["events"])
        plain, cloaked = reports
        assert plain[0]["result"] == cloaked[0]["result"] == -1
        assert plain[0]["blocked"] and cloaked[0]["blocked"]
        assert [e["result"] for e in cloaked[1:]] == [-2, -2]

    @pytest.mark.parametrize("log_path", ["/var/log/apa*", "/var/log/a*b"])
    def test_cloak_path_with_a_star_is_rejected(self, compiled, tmp_path,
                                                capsys, log_path):
        # '/var/log/apa*' would hide /var/log/apache2.conf too, and
        # '/var/log/a*b' made the cloak's own source fail to compile
        trace = tmp_path / "trace.jsonl"
        trace.write_text(trace_line(1, "open", ["/var/log/apache2.conf", "r"])
                         + "\n")
        report = tmp_path / "report.json"
        assert main(["run", "--program", str(compiled), "--trace", str(trace),
                     "--cloak", log_path, "--report", str(report)]) == 1
        assert capsys.readouterr().err == (
            f"apate: cannot load program: cloak log path {log_path!r} "
            "contains '*', which the cloak's patterns would read as a "
            "wildcard\n")
        assert not report.exists()

    def test_unhashable_ctx_value_is_named(self, compiled, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        trace.write_text(trace_line(1, "getpid", [], pid=[1]) + "\n")
        assert main(["run", "--program", str(compiled),
                     "--trace", str(trace)]) == 1
        assert capsys.readouterr().err == (
            "apate: bad trace: line 1: pid, uid and ssid must be integers, "
            "got [1], 1000, 1\n")

    @pytest.mark.parametrize("line, message", [
        pytest.param('{"syscall":"getpid","args":[],"ctx":{}}',
                     "missing field 'seq'", id="seq"),
        pytest.param(trace_line(2, "write", [3, {"n": 4}]),
                     'args[1]: an object argument must be {"len": n}',
                     id="len"),
        pytest.param(trace_line(2, "write", [3, {"len": "4096"}]),
                     'args[1]: an object argument must be {"len": n}',
                     id="len-string"),
        pytest.param(trace_line(2, "getpid", [], tty=1),
                     "ctx: unknown key 'tty'", id="ctx"),
        pytest.param(trace_line(2, "read", [3, float("nan")]),
                     "bad JSON: NaN is not a finite number", id="nan"),
        pytest.param(trace_line(2, "open", ["/x", "r"]).replace('"/x"', "1e400"),
                     "bad JSON: 1e400 is not a finite number", id="overflow"),
        pytest.param(trace_line(2, "getpid", [], uid=float("-inf")),
                     "bad JSON: -Infinity is not a finite number",
                     id="ctx-infinity"),
        pytest.param(trace_line(2, ["open"], ["/x", "r"]),
                     "syscall must be a string, got ['open']", id="syscall"),
        pytest.param(trace_line(2, "mkdir", [["x"]]),
                     "mkdir args[0] (path) must be a string, got ['x']",
                     id="path-list"),
        pytest.param(trace_line(2, "open", [5, "r"]),
                     "open args[0] (path) must be a string, got 5",
                     id="path-int"),
        pytest.param(trace_line(2, "open", ["/var/log/syslog", 7]),
                     "open args[1] (mode) must be a string, got 7",
                     id="mode-int"),
        pytest.param(trace_line(2, "getdents", [True]),
                     "getdents args[0] (path) must be a string, got True",
                     id="path-bool"),
        pytest.param(trace_line(2, "execve", [{"len": 3}, "x"]),
                     "execve args[0] (path) must be a string, got 3",
                     id="path-len"),
        pytest.param(trace_line(2, "open", ["/x\u0000y", "w"]),
                     "open args[0] (path) holds a NUL character, "
                     "got '/x\\x00y'", id="path-nul"),
        pytest.param(json.dumps({"ctx": TRACE_CTX, "seq": 2,
                                 "syscall": "unlink", "args": ["/x\u0000"]}),
                     "unlink args[0] (path) holds a NUL character, "
                     "got '/x\\x00'", id="path-nul-ctx-first"),
    ])
    def test_bad_trace_field_is_named(self, compiled, tmp_path, capsys,
                                      line, message):
        trace = tmp_path / "trace.jsonl"
        trace.write_text(trace_line(1, "getpid", []) + "\n" + line + "\n")
        report = tmp_path / "report.json"
        assert main(["run", "--program", str(compiled), "--trace", str(trace),
                     "--report", str(report)]) == 1
        assert capsys.readouterr().err == f"apate: bad trace: line 2: {message}\n"


class TestReport:
    FS = "D /var/lib/mysql\nF /honey/mysql/ibdata1 5 @honey\nF /etc/hosts 3 @abc\n"
    EVENTS = [("open", ["/var/lib/mysql/ibdata1", "r"]), ("read", [3, 4]),
              ("open", ["/etc/hosts", "r"]), ("getdents", ["/honey/mysql"]),
              ("mkdir", ["/tmp"]), ("open", ["/tmp/x", "w"]),
              ("write", [5, {"len": 9}]), ("unlink", ["/nope"]),
              ("execve", ["/bin/sh", "sh"]), ("getuid", []), ("close", [4])]

    def inputs(self, tmp_path):
        fs = tmp_path / "fs.manifest"
        fs.write_text(self.FS)
        trace = tmp_path / "trace.jsonl"
        trace.write_text("\n".join(trace_line(i, sc, args) for i, (sc, args)
                                   in enumerate(self.EVENTS, start=1)) + "\n")
        return fs, trace

    def expected(self, compiled, fs, trace):
        prog, sandbox = open_world(compiled, fs=fs)
        dispositions = []
        report = replay_trace(prog, parse_trace(trace.read_text()), sandbox,
                              dispositions.append)
        return {"events": [to_dict(d) for d in dispositions],
                **report.to_dict()}

    def test_file_and_stdout_match_replay(self, compiled, tmp_path, capsys):
        fs, trace = self.inputs(tmp_path)
        want = self.expected(compiled, fs, trace)
        assert want["log_records"] > 0 and want["diagnostics"]["notes"]
        out = tmp_path / "report.json"
        argv = ["run", "--program", str(compiled), "--trace", str(trace),
                "--fs", str(fs)]
        assert main(argv + ["--report", str(out)]) == 0
        text = out.read_text()
        assert json.loads(text) == want
        assert text.endswith("\n") and text.count("\n") == 1
        capsys.readouterr()
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out) == want

    def test_to_dict_is_not_changed_by_a_later_args_rewrite(self):
        prog, _ = compile_source(MYSQL_EXAMPLE)
        sandbox = SandboxState()
        ev = make_event("open", "/var/lib/mysql/ibdata1", "r",
                        ctx=make_ctx(parent_pname="mysql"))
        d = to_dict(dispatch(prog, ev, sandbox))
        assert d["args"] == ["/honey/mysql/ibdata1", "r"]
        assert d["matched_rules"] == [0, 1]
        ev.args[0] = "/elsewhere"
        ev.args.append("extra")
        assert d["args"] == ["/honey/mysql/ibdata1", "r"]


class TestOpenWorld:
    """``cli.open_world`` builds ``apate run``'s world: program, cloak,
    binding, manifest, then sinks, each step's failure named for it."""

    LOG = "/var/log/apate.log"

    @pytest.fixture
    def fs(self, tmp_path):
        fs = tmp_path / "fs.manifest"
        fs.write_text(TestReport.FS)
        return fs

    @pytest.fixture
    def opened(self, monkeypatch):
        """Every FileSink open_world opens."""
        sinks = []

        class Recorded(FileSink):
            def __init__(self, path):
                super().__init__(path)
                sinks.append(self)

        monkeypatch.setattr(cli, "FileSink", Recorded)
        return sinks

    def test_a_cloaked_world_is_bound_and_logs_into_its_vfs(
            self, compiled, fs, tmp_path, opened):
        prog, sandbox = open_world(compiled, fs=fs, cloak=self.LOG,
                                   log_file=tmp_path / "records.log")
        try:
            assert prog.scans is not None
            assert set(prog.scans) == {sc for sc, _ in prog.bindings}
            assert prog.bindings[0] == ("open", "cloak_path")   # cloaked
            file_sink, vfs_sink = sandbox.sinks
            assert opened == [file_sink] and type(vfs_sink) is VfsSink
            assert vfs_sink.vfs is sandbox.vfs and vfs_sink.path == self.LOG
            assert sandbox.vfs.read_file("/etc/hosts") == b"abc"
        finally:
            for sink in sandbox.sinks:
                sink.close()

    def test_a_plain_world_is_bound_and_opens_no_sink(self, compiled):
        prog, sandbox = open_world(compiled)
        assert prog.scans is not None and sandbox.sinks == []
        assert sandbox.vfs.digest() == SandboxState().vfs.digest()

    @pytest.mark.parametrize("kw, message", [
        ({"program": "missing.apc"}, "cannot load program: [Errno 2] "
         "No such file or directory: 'missing.apc'"),
        ({"cloak": "/var/log/a*"}, "cannot load program: cloak log path "
         "'/var/log/a*' contains '*', which the cloak's patterns would "
         "read as a wildcard"),
        ({"fs": "bad"}, "bad manifest: line 2: /a exists as a file"),
        ({"fs": "missing"}, "bad manifest: [Errno 2] No such file or "
         "directory: 'missing'"),
        ({"log_udp": "127.0.0.1:70000"}, "bad sink: expected host:port, "
         "port 0-65535, got '127.0.0.1:70000'"),
        ({"log_file": "no/such/dir/x.log"}, "bad sink: [Errno 2] No such "
         "file or directory: 'no/such/dir/x.log'"),
    ])
    def test_each_step_names_its_failure(self, compiled, tmp_path,
                                         monkeypatch, kw, message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad").write_text("F /a 1 00\nD /a/b\n")
        kw = {"program": compiled, **kw}
        with pytest.raises(ApateError) as exc:
            open_world(**kw)
        assert str(exc.value) == message

    def test_the_first_failing_step_is_the_one_named(self, tmp_path):
        bad_program = tmp_path / "bad.apc"
        bad_program.write_bytes(b"APATE-RP 1\nWHAT\tx\n")
        with pytest.raises(ApateError, match="^cannot load program: "):
            open_world(bad_program, fs=tmp_path / "none",
                       log_udp="127.0.0.1:70000")

    def test_a_bad_sink_closes_the_sinks_opened_before_it(
            self, compiled, tmp_path, opened):
        with pytest.raises(ApateError, match="^bad sink: "):
            open_world(compiled, log_file=tmp_path / "records.log",
                       log_udp="127.0.0.1:70000")
        (sink,) = opened
        assert sink._fh.closed


class TestBench:
    def test_tiny_bench_run(self, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        summary = tmp_path / "summary.csv"
        assert main(["bench", "--setting", "m1", "--max-size", "100",
                     "--reps", "2", "--sizes", "3", "--out", str(out),
                     "--summary", str(summary)]) == 0
        assert out.exists() and summary.exists()
        assert "wrote" in capsys.readouterr().out

    # Parsed only, never run: a --max-size past 1e9 would be allocated.
    @pytest.mark.parametrize("flag,value,why", [
        ("--reps", "1", "must be at least 2"),
        ("--max-size", "0", "must be in 1..1,000,000,000"),
        ("--max-size", "1000000001", "must be in 1..1,000,000,000"),
        ("--sizes", "0", "must be at least 1"),
        ("--buffer", "0", "must be at least 1"),
        ("--buffer", "-1", "must be at least 1"),
        ("--reps", "x", "invalid int value: 'x'"),
    ])
    def test_bad_bench_argument_is_a_usage_error(self, capsys, flag, value,
                                                 why):
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(["bench", "--out", "rows.csv",
                                           flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: apate bench")
        assert err.endswith(f"apate bench: error: argument {flag}: {why}\n")
