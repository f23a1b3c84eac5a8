"""Log record format and transport sinks (file, UDP, VFS, memory).

A record renders as one pipe-delimited line:

    apate|1|<ts>|<seq>|<pid>|<uid>|<syscall>|<args-json>|<result>

Lines are capped at 60,000 bytes so a record always fits a UDP
datagram; oversized args are truncated with a trailing ellipsis marker.
"""

from __future__ import annotations

import json
import queue
import socket
import threading
from dataclasses import dataclass

LINE_MAX = 60_000
TRUNCATION_MARK = "…"


@dataclass
class LogRecord:
    ts: str
    seq: int
    pid: int
    uid: int
    syscall: str
    args: list
    result: int


def _args_json(args) -> str:
    def enc(v):
        if isinstance(v, (bytes, bytearray)):
            return {"len": len(v)}
        return v
    return json.dumps([enc(a) for a in args], separators=(",", ":"), ensure_ascii=False)


def format_record(rec: LogRecord) -> str:
    args_json = _args_json(rec.args)
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


def parse_record(line: str) -> LogRecord:
    """Inverse of format_record (modulo the truncation marker)."""
    head = line.split("|", 7)
    if len(head) != 8 or head[0] != "apate" or head[1] != "1":
        raise ValueError(f"not a log record: {line!r}")
    tail, result = head[7].rsplit("|", 1)
    if tail.endswith(TRUNCATION_MARK):
        args = [tail]  # truncated payload kept verbatim
    else:
        args = json.loads(tail)
    return LogRecord(ts=head[2], seq=int(head[3]), pid=int(head[4]),
                     uid=int(head[5]), syscall=head[6], args=args,
                     result=int(result))


class MemorySink:
    """Collects formatted lines in a list; handy in tests and reports."""

    def __init__(self):
        self.lines = []
        self.dropped = 0

    def emit(self, line: str) -> None:
        self.lines.append(line)

    def close(self) -> None:
        pass


class DiscardSink:
    """Counts records without keeping them (benchmark default)."""

    def __init__(self):
        self.count = 0
        self.dropped = 0

    def emit(self, line: str) -> None:
        self.count += 1

    def close(self) -> None:
        pass


class FileSink:
    """Appends one line per record to a real file."""

    def __init__(self, path):
        self.path = path
        self.dropped = 0
        self._fh = open(path, "a", encoding="utf-8")

    def emit(self, line: str) -> None:
        self._fh.write(line + "\n")

    def close(self) -> None:
        self._fh.flush()
        self._fh.close()


class UdpSink:
    """One datagram per record via a bounded queue and a flush thread.

    When the queue is full the record is dropped and counted; logging
    must never stall syscall processing.
    """

    def __init__(self, host: str, port: int, maxlen: int = 4096):
        self.addr = (host, port)
        self.dropped = 0
        self._queue = queue.Queue(maxsize=maxlen)
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self._closed = False
        self._thread = threading.Thread(target=self._drain, daemon=True)
        self._thread.start()

    def emit(self, line: str) -> None:
        try:
            self._queue.put_nowait(line)
        except queue.Full:
            self.dropped += 1

    def _drain(self) -> None:
        while True:
            line = self._queue.get()
            if line is None:
                return
            try:
                self._sock.sendto(line.encode("utf-8"), self.addr)
            except OSError:
                self.dropped += 1

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._queue.put(None)
            self._thread.join(timeout=5)
            self._sock.close()


class VfsSink:
    """Appends records to a file inside a sandbox VFS.

    This is the sink the cloaking rules are meant to hide: the log lives
    in the same world the traced events can inspect.
    """

    def __init__(self, vfs, path: str):
        from .sandbox import append_to_vfs_file, normalize_path
        self._append = append_to_vfs_file
        self.vfs = vfs
        self.path = normalize_path(path)
        self.dropped = 0

    def emit(self, line: str) -> None:
        try:
            self._append(self.vfs, self.path, line.encode("utf-8") + b"\n")
        except ValueError:  # a traced event put a directory or file in the way
            self.dropped += 1

    def close(self) -> None:
        pass


def parse_udp_addr(spec: str):
    host, _, port = spec.rpartition(":")
    if not host:
        raise ValueError(f"expected host:port, got {spec!r}")
    return host, int(port)
