"""Log record format and transport sinks (file, UDP, VFS, discard).

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
import socket

from .sandbox import append_to_vfs_file, normalize_path

LINE_MAX = 60_000
TRUNCATION_MARK = "…"


# json.dumps's own C encoder for one value, with compact separators,
# non-ASCII kept, and no cycle check (an args list from a trace has none).
_encode = json.encoder.c_make_encoder(
    None, json.JSONEncoder().default, json.encoder.encode_basestring,
    None, ":", ",", False, False, True)


def args_json(args) -> str:
    """``json.dumps(list(args), separators=(",", ":"), ensure_ascii=False)``
    with each top-level bytes-like item replaced by ``{"len": n}``: the
    compact JSON list of log records and of .apc params."""
    try:
        return "".join(_encode(args, 0))
    except TypeError:  # a bytes-like item; one nested in a value raises again
        return "".join(_encode([{"len": len(a)} if isinstance(a, (bytes, bytearray))
                                else a for a in args], 0))


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
    """One datagram per record, sent at once on a non-blocking socket.

    The address is resolved once, here; a host with no IPv4 address
    raises OSError.  A record the local socket refuses (a full buffer)
    or cannot encode (a lone surrogate) is dropped and counted; logging
    must never stall syscall processing.
    """

    def __init__(self, host: str, port: int):
        family, kind, proto, _, self.addr = socket.getaddrinfo(
            host, port, socket.AF_INET, socket.SOCK_DGRAM)[0]
        self.dropped = 0
        self._sock = socket.socket(family, kind, proto)
        self._sock.setblocking(False)

    def emit(self, line: str) -> None:
        try:
            self._sock.sendto(line.encode("utf-8"), self.addr)
        except (OSError, UnicodeEncodeError):
            self.dropped += 1

    def close(self) -> None:
        self._sock.close()


class VfsSink:
    """Appends records to a file inside a sandbox VFS.

    This is the sink the cloaking rules are meant to hide: the log lives
    in the same world the traced events can inspect.
    """

    def __init__(self, vfs, path: str):
        self.vfs = vfs
        self.path = normalize_path(path)
        self.dropped = 0

    def emit(self, line: str) -> None:
        try:
            append_to_vfs_file(self.vfs, self.path, line.encode("utf-8") + b"\n")
        except ValueError:  # a directory or file in the way, or a lone surrogate
            self.dropped += 1

    def close(self) -> None:
        pass


def parse_udp_addr(spec: str):
    host, _, port = spec.rpartition(":")
    if not host or not (port.isascii() and port.isdigit()) or int(port) > 65535:
        raise ValueError(f"expected host:port, port 0-65535, got {spec!r}")
    return host, int(port)
