import random
import socket
import string
import threading
import time

import pytest

from apate.logsink import (LINE_MAX, FileSink, LogRecord, MemorySink,
                           TRUNCATION_MARK, UdpSink, VfsSink, format_record,
                           parse_record, parse_udp_addr)
from apate.sandbox import SandboxState, VirtualFS, exec_syscall

from conftest import make_event


def rec(**kw):
    base = dict(ts="2024-05-01T12:00:00+00:00", seq=7, pid=100, uid=1000,
                syscall="open", args=["/etc/passwd", "r"], result=3)
    base.update(kw)
    return LogRecord(**base)


class TestFormat:
    def test_format_shape(self):
        line = format_record(rec())
        assert line == ('apate|1|2024-05-01T12:00:00+00:00|7|100|1000|open|'
                        '["/etc/passwd","r"]|3')

    def test_round_trip(self):
        r = rec(result=-13)
        assert parse_record(format_record(r)) == r

    def test_round_trip_randomized(self):
        rng = random.Random(5)
        for _ in range(200):
            r = rec(seq=rng.randint(0, 10**9),
                    pid=rng.randint(1, 99999),
                    uid=rng.randint(0, 99999),
                    args=["".join(rng.choices(string.printable, k=rng.randint(0, 30))),
                          rng.randint(-100, 100)],
                    result=rng.randint(-40, 10**6))
            assert parse_record(format_record(r)) == r

    def test_pipe_in_args_survives(self):
        r = rec(args=["/weird|path", "r"])
        assert parse_record(format_record(r)) == r

    def test_bytes_args_logged_as_length(self):
        line = format_record(rec(args=[b"\x00" * 12, 3]))
        assert parse_record(line).args == [{"len": 12}, 3]

    def test_truncation_cap(self):
        r = rec(args=["x" * 100_000])
        line = format_record(r)
        assert len(line.encode("utf-8")) <= LINE_MAX
        assert TRUNCATION_MARK in line
        parsed = parse_record(line)
        assert parsed.seq == r.seq and parsed.result == r.result

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_record("not a record")
        with pytest.raises(ValueError):
            parse_record("apate|2|t|1|1|1|open|[]|0")


class TestSinks:
    def test_memory_sink(self):
        sink = MemorySink()
        sink.emit("a")
        sink.emit("b")
        assert sink.lines == ["a", "b"]

    def test_file_sink_byte_exact(self, tmp_path):
        path = tmp_path / "log"
        sink = FileSink(str(path))
        lines = [format_record(rec(seq=i)) for i in range(3)]
        for line in lines:
            sink.emit(line)
        sink.close()
        assert path.read_text().splitlines() == lines

    def test_vfs_sink(self):
        vfs = VirtualFS()
        sink = VfsSink(vfs, "/var/log/apate.log")
        sink.emit("one")
        sink.emit("two")
        assert vfs.read_file("/var/log/apate.log") == b"one\ntwo\n"
        vfs.check_invariants()

    def test_vfs_sink_append_leaves_earlier_reads_alone(self):
        sb = SandboxState()
        sink = VfsSink(sb.vfs, "/var//log/./apate.log")
        sink.emit("one")
        before = sb.vfs.read_file("/var/log/apate.log")
        fd = exec_syscall(sb, make_event("open", "/var/log/apate.log", "r"))
        assert exec_syscall(sb, make_event("read", fd, 100)) == 4
        sink.emit("two")
        assert before == b"one\n" and sb.last_read == b"one\n"
        assert sb.vfs.read_file("/var/log/apate.log") == b"one\ntwo\n"

    def test_vfs_sink_counts_blocked_appends_as_dropped(self):
        vfs = VirtualFS()
        vfs.mkdirs("/var/log/apate.log")  # a directory where the log goes
        sink = VfsSink(vfs, "/var/log/apate.log")
        sink.emit("one")
        assert sink.dropped == 1
        assert vfs.is_dir("/var/log/apate.log")
        vfs.check_invariants()

    @staticmethod
    def emit_seconds(records, repeats=5):
        line = format_record(rec())
        best = float("inf")
        for _ in range(repeats):
            sink = VfsSink(VirtualFS(), "/var/log/apate.log")
            t0 = time.perf_counter()
            for _ in range(records):
                sink.emit(line)
            best = min(best, time.perf_counter() - t0)
        size = len(sink.vfs.read_file("/var/log/apate.log"))
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
        line = format_record(rec())
        sink.emit(line)
        data, _ = recv.recvfrom(LINE_MAX + 10)
        assert data.decode() == line
        sink.close()
        recv.close()

    def test_udp_sink_drops_instead_of_blocking(self):
        sink = UdpSink("127.0.0.1", 9, maxlen=2)
        gate = threading.Event()
        sending = threading.Event()

        class StuckSocket:
            def sendto(self, data, addr):
                sending.set()
                gate.wait(timeout=10)

            def close(self):
                pass

        sink._sock.close()
        sink._sock = StuckSocket()
        sink.emit("a")                   # drain picks this up and stalls
        assert sending.wait(timeout=5)
        sink.emit("b")                   # fills the queue
        sink.emit("c")
        sink.emit("overflow")            # must drop, not block
        assert sink.dropped == 1
        gate.set()
        sink.close()

    def test_parse_udp_addr(self):
        assert parse_udp_addr("localhost:9999") == ("localhost", 9999)
        with pytest.raises(ValueError):
            parse_udp_addr("9999")
