"""Log record format and transport sinks (file, UDP, VFS, memory).

A record renders as one pipe-delimited line:

    apate|1|<ts>|<seq>|<pid>|<uid>|<syscall>|<args-json>|<result>

``<ts>`` is the sandbox's ``timestamp()``: UTC ISO-8601 with
microseconds and a ``+00:00`` offset (``2024-05-01T12:00:00.000000+00:00``),
unless ``SandboxState.clock`` supplies another string.  ``<args-json>``
is the argument list as compact JSON with non-ASCII text kept as is;
bytes-like arguments appear as ``{"len": n}``.

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
    """A record as parse_record reads it back."""

    ts: str
    seq: int
    pid: int
    uid: int
    syscall: str
    args: list
    result: int


def _bytes_json(v) -> str:
    return f'{{"len":{len(v)}}}'


_dumps = json.JSONEncoder(separators=(",", ":"), ensure_ascii=False).encode


def _other_json(v) -> str:
    if isinstance(v, (bytes, bytearray)):
        return _bytes_json(v)
    return _dumps(v)


# Exact types only: subclasses (bool among them) take _other_json, which
# renders them as json.dumps does.
_ENCODERS = {int: int.__repr__, str: json.encoder.encode_basestring,
             bytes: _bytes_json, bytearray: _bytes_json}


def args_json(args) -> str:
    """``json.dumps(list(args), separators=(",", ":"), ensure_ascii=False)``
    with each bytes-like item replaced by ``{"len": n}``: the compact JSON
    list of log records and of .apc params."""
    get = _ENCODERS.get
    return "[" + ",".join([get(type(a), _other_json)(a) for a in args]) + "]"


def format_record(ts, seq, pid, uid, syscall, args, result) -> str:
    payload = args_json(args)
    line = f"apate|1|{ts}|{seq}|{pid}|{uid}|{syscall}|{payload}|{result}"
    # A code point is at most 4 UTF-8 bytes, so short lines skip the encode.
    # A lone surrogate (from a trace's JSON) is measured, not an error; the
    # sinks cannot encode it: FileSink.emit raises (a SinkFailure note),
    # and every sink counts the record as dropped.
    if (len(line) * 4 <= LINE_MAX
            or len(line.encode("utf-8", "surrogatepass")) <= LINE_MAX):
        return line
    fixed = f"apate|1|{ts}|{seq}|{pid}|{uid}|{syscall}||{result}"
    budget = LINE_MAX - len(fixed.encode("utf-8")) - len(TRUNCATION_MARK.encode("utf-8"))
    cut = payload.encode("utf-8", "surrogatepass")[:max(budget, 0)].decode(
        "utf-8", errors="ignore")
    return f"apate|1|{ts}|{seq}|{pid}|{uid}|{syscall}|{cut}{TRUNCATION_MARK}|{result}"


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
            self._queue.put_nowait(line.encode("utf-8"))
        except (queue.Full, UnicodeEncodeError):  # or a lone surrogate
            self.dropped += 1

    def _drain(self) -> None:
        while True:
            data = self._queue.get()
            if data is None:
                return
            try:
                self._sock.sendto(data, self.addr)
            except OSError:
                self.dropped += 1

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            try:
                self._queue.put(None, timeout=5)
            except queue.Full:  # the flush thread is stuck; let join time out
                pass
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
        except ValueError:  # a directory or file in the way, or a lone surrogate
            self.dropped += 1

    def close(self) -> None:
        pass


def parse_udp_addr(spec: str):
    host, _, port = spec.rpartition(":")
    if not host:
        raise ValueError(f"expected host:port, got {spec!r}")
    return host, int(port)
