import enum
import json
import math
import random
import socket
import string
import time

import pytest

from apate.logsink import (LINE_MAX, FileSink, TRUNCATION_MARK, UdpSink,
                           VfsSink, args_json, format_record, parse_udp_addr)
from apate.sandbox import SandboxState, VirtualFS, exec_syscall

from conftest import (LogRecord, MemorySink, bytes_read, check_invariants,
                      make_event, parse_record, read_file)


def rec(**kw):
    base = dict(ts="2024-05-01T12:00:00+00:00", seq=7, pid=100, uid=1000,
                syscall="open", args=["/etc/passwd", "r"], result=3)
    base.update(kw)
    return LogRecord(**base)


def fmt(r):
    return format_record(r.ts, r.seq, r.pid, r.uid, r.syscall, r.args, r.result)


# Frozen copy of the formatter as it was when every record went through a
# LogRecord and json.dumps: the reference for the differential tests.
def ref_args_json(args) -> str:
    return json.dumps(list(args), separators=(",", ":"), ensure_ascii=False)


def ref_format_record(rec: LogRecord) -> str:
    args_json = ref_args_json(rec.args)
    line = (f"apate|1|{rec.ts}|{rec.seq}|{rec.pid}|{rec.uid}|"
            f"{rec.syscall}|{args_json}|{rec.result}")
    if len(line.encode("utf-8")) <= LINE_MAX:
        return line
    fixed = (f"apate|1|{rec.ts}|{rec.seq}|{rec.pid}|{rec.uid}|"
             f"{rec.syscall}||{rec.result}")
    budget = LINE_MAX - len(fixed.encode("utf-8")) - len(TRUNCATION_MARK.encode("utf-8"))
    cut = args_json.encode("utf-8")[:max(budget, 0)].decode("utf-8", errors="ignore")
    return (f"apate|1|{rec.ts}|{rec.seq}|{rec.pid}|{rec.uid}|"
            f"{rec.syscall}|{cut}{TRUNCATION_MARK}|{rec.result}")


class Mode(enum.IntEnum):
    RDONLY = 0


class Path(str):
    pass


# Characters that JSON escapes, that take 2, 3 and 4 UTF-8 bytes, and the
# line and paragraph separators json.dumps leaves raw with ensure_ascii off.
WIDE = ('"\\|\x00\x1f\x7f\u00e9\u00ff\u0394\u20ac'
        "\u2028\u2029\ufeff\uffff\U0001f600\U0001d11e\U0010ffff")
ALPHABET = string.printable + WIDE


def random_text(rng, n, alphabet=ALPHABET):
    return "".join(rng.choices(alphabet, k=n))


def random_value(rng, depth=0):
    kind = rng.randrange(12 if depth < 2 else 10)
    if kind == 0:
        return rng.randint(-100, 10**6)
    if kind == 1:
        return rng.choice([0, -1, 2**63, -(2**64) - 1, 10**40])
    if kind == 2:
        return random_text(rng, rng.randint(0, 40))
    if kind == 3:
        return random_text(rng, rng.randint(5_000, 30_000),
                           rng.choice([ALPHABET, WIDE]))
    if kind == 4:
        return rng.choice([True, False, None])
    if kind == 5:
        return rng.choice([0.0, -0.0, 1.5, 1e300, -2.5e-8, math.nan,
                           math.inf, -math.inf, rng.random()])
    if kind == 6:
        return {"len": rng.randint(-5, 10**7)}
    if kind == 7:
        return rng.choice([Mode.RDONLY, Path("/p\u00e9|q")])
    if kind == 8:
        return rng.choice(["", "r", "w", "creat", "/etc/passwd"])
    if kind == 9:
        return rng.randint(3, 40)
    if kind == 10:
        return [random_value(rng, depth + 1) for _ in range(rng.randint(0, 3))]
    return {random_text(rng, 3): random_value(rng, depth + 1)}

class TestFormat:
    def test_format_shape(self):
        line = fmt(rec())
        assert line == ('apate|1|2024-05-01T12:00:00+00:00|7|100|1000|open|'
                        '["/etc/passwd","r"]|3')

    def test_round_trip(self):
        r = rec(result=-13)
        assert parse_record(fmt(r)) == r

    def test_round_trip_randomized(self):
        rng = random.Random(5)
        for _ in range(200):
            r = rec(seq=rng.randint(0, 10**9),
                    pid=rng.randint(1, 99999),
                    uid=rng.randint(0, 99999),
                    args=["".join(rng.choices(string.printable, k=rng.randint(0, 30))),
                          rng.randint(-100, 100)],
                    result=rng.randint(-40, 10**6))
            assert parse_record(fmt(r)) == r

    def test_pipe_in_args_survives(self):
        r = rec(args=["/weird|path", "r"])
        assert parse_record(fmt(r)) == r

    def test_truncation_cap(self):
        r = rec(args=["x" * 100_000])
        line = fmt(r)
        assert len(line.encode("utf-8")) <= LINE_MAX
        assert TRUNCATION_MARK in line
        parsed = parse_record(line)
        assert parsed.seq == r.seq and parsed.result == r.result

    def test_differential_against_frozen_formatter(self):
        rng = random.Random(2024)
        truncated = 0
        for _ in range(3_000):
            r = rec(seq=rng.randint(0, 10**9), pid=rng.randint(1, 99999),
                    uid=rng.randint(0, 99999),
                    syscall=rng.choice(["open", "read", "write", "execve"]),
                    args=[random_value(rng) for _ in range(rng.randint(0, 4))],
                    result=rng.randint(-40, 10**6))
            line = fmt(r)
            assert line == ref_format_record(r), r
            assert len(line.encode("utf-8")) <= LINE_MAX
            truncated += line.endswith(TRUNCATION_MARK + f"|{r.result}")
        assert truncated > 50

    def test_lines_around_the_cap_match_frozen_formatter(self):
        # Lines from 9 bytes under to 9 over the cap; in the all-emoji texts
        # the cut falls at each byte offset inside a 4-byte code point.
        base = len(fmt(rec(args=[""])).encode("utf-8"))
        for tail in ("", "\u00e9", "\u20ac", "\U0001f600", "\U0001f600" * 3):
            for slack in range(-9, 10):
                pad = LINE_MAX - base - len(tail.encode("utf-8")) + slack
                for text in ("x" * pad + tail, "\U0001f600" * (pad // 4)
                             + "x" * (pad % 4) + tail):
                    r = rec(args=[text])
                    line = fmt(r)
                    assert line == ref_format_record(r)
                    assert len(line.encode("utf-8")) <= LINE_MAX
                    whole = base + len(text.encode("utf-8"))
                    assert line.endswith(f"{TRUNCATION_MARK}|3") == (whole > LINE_MAX)

    def test_parse_round_trip_of_new_formatter(self):
        rng = random.Random(7)
        for _ in range(500):
            args = [rng.choice([rng.randint(-10, 10**9),
                                random_text(rng, rng.randint(0, 30)),
                                {"len": rng.randint(0, 10**6)}, None, True])
                    for _ in range(rng.randint(0, 3))]
            ts = f"2024-05-01T12:00:{rng.randint(0, 59):02d}.{rng.randrange(10**6):06d}"
            r = rec(seq=rng.randint(0, 10**9), args=args, ts=ts + "+00:00")
            assert parse_record(fmt(r)) == r
        r = rec(args=[{"len": 5}, "\U0001f600"])
        assert parse_record(fmt(r)).args == [{"len": 5}, "\U0001f600"]

    def test_lone_surrogate_is_formatted_not_raised(self):
        # A trace may carry "\ud800"; the line keeps it (the sinks report
        # what they cannot encode) and a cut line drops it.
        line = fmt(rec(args=["/a\ud800", "r"]))
        assert line.endswith('["/a\ud800","r"]|3')
        line = fmt(rec(args=["\ud800" * 30_000]))
        assert line.endswith(f"{TRUNCATION_MARK}|3")
        assert len(line.encode("utf-8")) <= LINE_MAX

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_record("not a record")
        with pytest.raises(ValueError):
            parse_record("apate|2|t|1|1|1|open|[]|0")


def compact(v) -> str:
    return json.dumps(v, separators=(",", ":"), ensure_ascii=False)


def random_json(rng, depth=0):
    """A value of a shape json.loads of a trace line can give."""
    kind = rng.randrange(9 if depth < 3 else 7)
    if kind == 0:  # any code point, lone surrogates and controls among them
        return "".join(chr(rng.choice([rng.randrange(0x20), rng.randrange(0x80),
                                       rng.randrange(0xD800, 0xE000),
                                       rng.randrange(0x110000), 0x22, 0x5C]))
                       for _ in range(rng.randint(0, 12)))
    if kind == 1:
        return rng.choice([0, -1, 7, 2**63, 2**64, -(2**64) - 1, 10**40,
                           rng.randint(-(2**80), 2**80)])
    if kind == 2:
        return rng.choice([0.0, -0.0, 1e16, 1.5, -2.5e-8, 1e308, 5e-324,
                           rng.uniform(-1e6, 1e6)])
    if kind == 3:
        return rng.choice([True, False, None])
    if kind in (4, 5, 6):
        return rng.choice(["", "r", "w", "/etc/passwd", rng.randint(3, 40)])
    if kind == 7:
        return [random_json(rng, depth + 1) for _ in range(rng.randint(0, 3))]
    return {random_json(rng, 3) if rng.random() < 0.5 else "k":
            random_json(rng, depth + 1) for _ in range(rng.randint(0, 3))}


class TestArgsJson:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_compact_json_dumps(self, seed):
        rng = random.Random(seed)
        for _ in range(1_000):
            args = [random_json(rng) for _ in range(rng.randint(0, 4))]
            # What a trace line holds is what json.loads gives back.
            args = json.loads(json.dumps(args))
            assert args_json(args) == compact(args), args

    def test_a_tuple_is_a_list(self):
        assert args_json(("/a", 1, ("b",))) == '["/a",1,["b"]]'

    @pytest.mark.parametrize("value", [b"", b"abc", bytearray(5), [b"x"],
                                       {"k": bytearray(2)}, [[bytearray()]]])
    def test_bytes_like_is_refused(self, value):
        """No trace argument is bytes; one built in code fails the log
        record as it fails the report."""
        with pytest.raises(TypeError):
            args_json([1, value])
        with pytest.raises(TypeError):
            fmt(rec(args=[value]))

    def test_subclasses_and_non_finite_floats(self):
        args = [Path("/p\u00e9|q"), Mode.RDONLY, math.nan, math.inf, -math.inf]
        assert args_json(args) == compact(args)
        assert args_json(args) == '["/p\u00e9|q",0,NaN,Infinity,-Infinity]'

    def test_a_list_holding_itself_is_refused(self):
        args = [1]
        args.append(args)
        with pytest.raises(RecursionError):
            args_json(args)


class TestSinks:
    def test_memory_sink(self):
        sink = MemorySink()
        sink.emit("a")
        sink.emit("b")
        assert sink.lines == ["a", "b"]

    def test_file_sink_byte_exact(self, tmp_path):
        path = tmp_path / "log"
        sink = FileSink(str(path))
        lines = [fmt(rec(seq=i)) for i in range(3)]
        for line in lines:
            sink.emit(line)
        sink.close()
        assert path.read_text().splitlines() == lines

    def test_vfs_sink(self):
        vfs = VirtualFS()
        sink = VfsSink(vfs, "/var/log/apate.log")
        sink.emit("one")
        sink.emit("two")
        assert read_file(vfs, "/var/log/apate.log") == b"one\ntwo\n"
        check_invariants(vfs)

    def test_vfs_sink_drops_a_lone_surrogate(self):
        vfs = VirtualFS()
        sink = VfsSink(vfs, "/var/log/apate.log")
        sink.emit(fmt(rec(args=["/a\ud800", "r"])))
        sink.emit("two")
        assert sink.dropped == 1
        assert read_file(vfs, "/var/log/apate.log") == b"two\n"

    def test_vfs_sink_append_leaves_earlier_reads_alone(self):
        sb = SandboxState()
        sink = VfsSink(sb.vfs, "/var//log/./apate.log")
        sink.emit("one")
        before = read_file(sb.vfs, "/var/log/apate.log")
        fd = exec_syscall(sb, make_event("open", "/var/log/apate.log", "r"))
        assert exec_syscall(sb, make_event("read", fd, 100)) == 4
        sink.emit("two")
        assert before == b"one\n" and bytes_read(sb, fd, 4) == b"one\n"
        assert read_file(sb.vfs, "/var/log/apate.log") == b"one\ntwo\n"

    def test_vfs_sink_counts_blocked_appends_as_dropped(self):
        vfs = VirtualFS()
        vfs.mkdirs("/var/log/apate.log")  # a directory where the log goes
        sink = VfsSink(vfs, "/var/log/apate.log")
        sink.emit("one")
        assert sink.dropped == 1
        assert "/var/log/apate.log" in vfs.children
        check_invariants(vfs)

    @staticmethod
    def emit_seconds(records, repeats=5):
        line = fmt(rec())
        best = float("inf")
        for _ in range(repeats):
            sink = VfsSink(VirtualFS(), "/var/log/apate.log")
            t0 = time.perf_counter()
            for _ in range(records):
                sink.emit(line)
            best = min(best, time.perf_counter() - t0)
        size = len(read_file(sink.vfs, "/var/log/apate.log"))
        assert size == records * (len(line) + 1)
        return best

    def test_vfs_sink_cost_is_linear(self):
        # ROADMAP item 4: 4x the records must cost well under 8x the time.
        small = self.emit_seconds(2_000)
        large = self.emit_seconds(8_000)
        assert large < 8 * small, (small, large)

    def test_udp_sink_delivers(self):
        recv = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        recv.bind(("127.0.0.1", 0))
        recv.settimeout(5)
        port = recv.getsockname()[1]
        sink = UdpSink("127.0.0.1", port)
        line = fmt(rec())
        sink.emit(line)
        data, _ = recv.recvfrom(LINE_MAX + 10)
        assert data.decode() == line
        sink.close()
        recv.close()

    def test_udp_sink_drops_a_lone_surrogate_and_keeps_sending(self):
        recv = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        recv.bind(("127.0.0.1", 0))
        recv.settimeout(5)
        sink = UdpSink("127.0.0.1", recv.getsockname()[1])
        line = fmt(rec())
        sink.emit(fmt(rec(args=["/a\ud800", "r"])))
        sink.emit(line)
        data, _ = recv.recvfrom(LINE_MAX + 10)
        assert data.decode() == line
        sink.close()
        assert sink.dropped == 1
        recv.close()

    def test_udp_sink_drops_instead_of_blocking(self):
        sink = UdpSink("127.0.0.1", 9)
        assert sink._sock.gettimeout() == 0.0     # non-blocking

        class FullSocket:
            def sendto(self, data, addr):
                raise BlockingIOError("send buffer full")

            def close(self):
                pass

        sink._sock.close()
        sink._sock = FullSocket()
        began = time.perf_counter()
        for _ in range(3):
            sink.emit("a")
        assert time.perf_counter() - began < 1
        assert sink.dropped == 3
        sink.close()

    def test_udp_sink_keeps_every_record_of_a_burst(self):
        # the receiver reads nothing: what it cannot hold is lost on the
        # wire, but the local socket takes every datagram
        recv = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        recv.bind(("127.0.0.1", 0))
        sink = UdpSink("127.0.0.1", recv.getsockname()[1])
        line = fmt(rec())
        for _ in range(20_000):
            sink.emit(line)
        sink.close()
        recv.close()
        assert sink.dropped == 0

    def test_parse_udp_addr(self):
        assert parse_udp_addr("localhost:9999") == ("localhost", 9999)
        with pytest.raises(ValueError):
            parse_udp_addr("9999")
        assert parse_udp_addr("h:0") == ("h", 0)
        assert parse_udp_addr("h:65535") == ("h", 65535)
        for spec in ("127.0.0.1:70000", "127.0.0.1:-5", "h:65536", "h:",
                     "h:\u0669", "h: 9", "h:1_0", "h:+9"):
            with pytest.raises(ValueError, match="port 0-65535"):
                parse_udp_addr(spec)

    def test_udp_sink_counts_a_failed_send_as_a_drop(self):
        sink = UdpSink("127.0.0.1", 9)

        class FailingSocket:
            def sendto(self, data, addr):
                raise OSError("network is unreachable")

            def close(self):
                pass

        sink._sock.close()
        sink._sock = FailingSocket()
        sink.emit("a")
        sink.emit("b")
        sink.close()
        assert sink.dropped == 2
