"""The world syscalls act upon: virtual filesystem, fd table, scratch store.

All eleven hooked syscalls are implemented against an in-memory tree.
Errors are encoded as negative return values, never exceptions, matching
the convention that a blocked or failing syscall returns a
syscall-dependent errno.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from datetime import datetime, timezone
from time import time_ns

from .errors import MalformedManifestLine
from .model import (EACCES, EBADF, EEXIST, EFBIG, EINVAL, ENOENT,
                    ENOTEMPTY, SYSCALL_TABLE, SyscallEvent)

# The largest file a manifest line or a write may make: above the paper's
# largest copy (1e9 bytes), and a bound on what one input line allocates.
MAX_FILE_BYTES = 1 << 30

# The syscalls whose first argument is a path; exec_syscall normalizes it.
_PATH_FIRST = frozenset(name for name, (slots, _) in SYSCALL_TABLE.items()
                        if slots[:1] == ("path",))


def errno_default(ev: SyscallEvent) -> int:
    """The result of a refused call: its table errno, or for getpid and
    getuid (which cannot fail) the caller's pid or uid."""
    errno = SYSCALL_TABLE[ev.syscall][1]
    if errno is None:
        return ev.ctx.pid if ev.syscall == "getpid" else ev.ctx.uid
    return errno


def normalize_path(path: str) -> str:
    """Collapse duplicate separators and resolve '.'/'..'; absolute only."""
    if (path.startswith("/") and "//" not in path and "/." not in path
            and (path == "/" or not path.endswith("/"))):
        return path  # no empty, "." or ".." part: already normal
    if not path.startswith("/"):
        path = "/" + path
    parts = []
    for part in path.split("/"):
        if part in ("", "."):
            continue
        if part == "..":
            if parts:
                parts.pop()
            continue
        parts.append(part)
    return "/" + "/".join(parts)


def split_path(path: str) -> "tuple[str, str]":
    """A canonical path's parent and last name; "/" gives ("/", "")."""
    parent, _, name = path.rpartition("/")
    return parent or "/", name


class VirtualFS:
    """In-memory tree of directories and regular files, keyed by
    canonical paths: each method takes normalize_path's output, made once
    where the path's text comes in, and does not normalize again.

    Invariants: "/" always exists and is a directory; no path is both a
    file and a directory; every entry's parent directory exists; and
    ``children`` maps each directory to the names of exactly the entries
    directly inside it.  Paths are added and removed only through the
    methods below, which keep that index current.
    """

    def __init__(self):
        self.children = {"/": set()}  # dir path -> names of its entries
        self.files = {}  # path -> bytearray, shared with open descriptors

    def _unlink(self, path: str) -> None:
        parent, name = split_path(path)
        self.children[parent].remove(name)

    def mkdirs(self, path: str) -> None:
        """Create a directory and any missing parents.

        Raises ValueError if the path or any ancestor is a file.
        """
        missing = []
        while path not in self.children:
            if path in self.files:
                raise ValueError(f"{path} exists as a file")
            missing.append(path)
            path = split_path(path)[0]
        for d in reversed(missing):
            parent, name = split_path(d)
            self.children[parent].add(name)
            self.children[d] = set()

    def put_file(self, path: str, content: bytes) -> None:
        """Create a file, creating missing parents, or overwrite one in
        place, so descriptors open on it see the new content.

        A new file takes a bytearray ``content`` over as its storage
        instead of copying it.
        """
        if path in self.children:
            raise ValueError(f"{path} exists as a directory")
        if path in self.files:
            self.files[path][:] = content
        else:
            parent, name = split_path(path)
            if parent not in self.children:
                self.mkdirs(parent)   # a parent that is a file raises
            self.children[parent].add(name)
            self.files[path] = (content if type(content) is bytearray
                                else bytearray(content))

    def remove_file(self, path: str) -> None:
        del self.files[path]
        self._unlink(path)

    def remove_dir(self, path: str) -> None:
        """Remove an empty directory other than "/"."""
        if path == "/" or self.children[path]:
            raise ValueError(f"{path} is the root or not empty")
        del self.children[path]
        self._unlink(path)

    def read_file(self, path: str) -> "bytes | None":
        content = self.files.get(path)
        return None if content is None else bytes(content)

    def listdir(self, path: str) -> list:
        """Immediate children of a directory, sorted for determinism."""
        return sorted(self.children.get(path, ()))

    def digest(self) -> str:
        """Stable hash over the whole tree (paths, kinds, contents).

        Paths are UTF-8, with a lone surrogate (a trace's JSON may hold
        one) written as its three bytes: one-to-one, and any other path's
        bytes are unchanged."""
        h = hashlib.sha256()
        for d in sorted(self.children):
            h.update(b"D\x00" + d.encode("utf-8", "surrogatepass") + b"\x00")
        for f in sorted(self.files):
            h.update(b"F\x00" + f.encode("utf-8", "surrogatepass") + b"\x00")
            h.update(self.files[f])
            h.update(b"\x00")
        return h.hexdigest()


def vfs_from_manifest(manifest: bytes) -> VirtualFS:
    """Build a VFS from a line-based manifest.

    ``manifest`` is UTF-8 bytes.  Lines are ``D <path>`` or
    ``F <path> <byte-length> <fill-hex|@text>``, the length ASCII
    decimal digits, at most MAX_FILE_BYTES, and a fill byte one or two
    ASCII hex digits.  Paths are canonicalized, missing parents created.
    """
    vfs = VirtualFS()
    for n, raw in MalformedManifestLine.lines(manifest.splitlines()):
        fields = raw.strip().split(maxsplit=3) or [raw]   # U+3000 only, say
        if fields[0] == "D":
            if len(fields) != 2:
                raise MalformedManifestLine(n, f"bad directory line: {raw!r}")
            try:
                vfs.mkdirs(normalize_path(fields[1]))
            except ValueError as exc:
                raise MalformedManifestLine(n, str(exc)) from None
        elif fields[0] == "F":
            if len(fields) != 4:
                raise MalformedManifestLine(n, f"bad file line: {raw!r}")
            _, path, length_s, spec = fields
            digits = length_s.removeprefix("-")
            try:
                if not (digits.isascii() and digits.isdigit()):
                    raise ValueError
                length = int(length_s)
            except ValueError:
                raise MalformedManifestLine(n, f"bad length {length_s!r}") from None
            if length < 0:
                raise MalformedManifestLine(n, f"negative length {length}")
            if length > MAX_FILE_BYTES:
                raise MalformedManifestLine(n, f"length {length} is over "
                                            f"the {MAX_FILE_BYTES}-byte limit")
            if spec.startswith("@"):
                content = spec[1:].encode("utf-8")
                if len(content) != length:
                    raise MalformedManifestLine(
                        n, f"inline content is {len(content)} bytes, declared {length}")
            else:
                try:   # no sign, "0x" or "_", and no non-ASCII digit
                    if len(spec) > 2 or not (spec.isascii() and spec.isalnum()):
                        raise ValueError
                    fill = bytearray([int(spec, 16)])
                except ValueError:
                    raise MalformedManifestLine(n, f"bad fill byte {spec!r}") from None
                content = fill * length  # a bytearray: put_file keeps it
            try:
                vfs.put_file(normalize_path(path), content)
            except ValueError as exc:
                raise MalformedManifestLine(n, str(exc)) from None
        else:
            raise MalformedManifestLine(n, f"unknown record type {fields[0]!r}")
    return vfs


class FdTable:
    """Open-descriptor table; fds allocated from 3 upward, never reused.

    Each entry holds the open file's bytearray, so a descriptor keeps
    acting on the file it opened after that file is unlinked or another
    file is created at its path.
    """

    def __init__(self):
        self.entries = {}  # fd -> [path, offset, mode, file bytearray]
        self.next_fd = 3

    def alloc(self, path: str, mode: str, content: bytearray) -> int:
        fd = self.next_fd
        self.next_fd += 1
        self.entries[fd] = [path, 0, mode, content]
        return fd

    def get(self, fd):
        """fd's entry, or None; only an exact int names a descriptor (a
        float, a bool or a JSON array in a trace names none)."""
        return self.entries.get(fd) if type(fd) is int else None

    def close(self, fd) -> bool:
        if self.get(fd) is None:
            return False
        del self.entries[fd]
        return True

    def path_of(self, fd) -> "str | None":
        # get()'s test inline: generated guards call this once per guard
        e = self.entries.get(fd) if type(fd) is int else None
        return e[0] if e else None


class ScratchStore:
    """Unbounded key/value cells backing counters and registers.

    Reading an unset key yields integer 0.
    """

    def __init__(self):
        self.cells = {}

    def get(self, key: str):
        return self.cells.get(key, 0)

    def set(self, key: str, value) -> None:
        self.cells[key] = value


_second = (None, "")  # (epoch second, its "YYYY-MM-DDTHH:MM:SS")


def utc_timestamp() -> str:
    """Wall clock now as ``datetime.isoformat(timespec="microseconds")``
    gives it in UTC, microseconds truncated, from one clock read; the
    date and time of day are rebuilt only when the second changes."""
    global _second
    sec, ns = divmod(time_ns(), 1_000_000_000)
    cached, prefix = _second
    if sec != cached:
        prefix = datetime.fromtimestamp(sec, timezone.utc).isoformat()[:19]
        _second = (sec, prefix)
    return f"{prefix}.{ns // 1000:06d}+00:00"


@dataclass
class SandboxState:
    """One evaluation stream's world: VFS, fds, store, sinks, diagnostics."""

    vfs: VirtualFS = field(default_factory=VirtualFS)
    fds: FdTable = field(default_factory=FdTable)
    store: ScratchStore = field(default_factory=ScratchStore)
    sinks: list = field(default_factory=list)
    diagnostics: list = field(default_factory=list)
    log_count: int = 0
    last_getdents: list = field(default_factory=list)
    clock: "object" = None  # callable -> ISO-8601 str; defaults to UTC now

    def timestamp(self) -> str:
        if self.clock is not None:
            return self.clock()
        return utc_timestamp()

    def diag(self, kind: str, detail: str) -> None:
        self.diagnostics.append({"kind": kind, "detail": detail})


def exec_syscall(sandbox: SandboxState, ev: SyscallEvent) -> int:
    """Execute the original (unhooked) syscall against the sandbox.

    Returns a non-negative result or a negative errno; never raises for
    runtime conditions.  getdents leaves the entry list in
    ``sandbox.last_getdents``, the side channel the replay harness
    observes.
    """
    vfs, fds = sandbox.vfs, sandbox.fds
    name, args = ev.syscall, ev.args

    if name in _PATH_FIRST:
        path = normalize_path(args[0])

        if name == "open":
            mode = args[1]
            if mode == "r":
                if path not in vfs.files:
                    return ENOENT
                return fds.alloc(path, "r", vfs.files[path])
            if mode in ("w", "creat"):
                if (path in vfs.children
                        or split_path(path)[0] not in vfs.children):
                    return ENOENT
                vfs.put_file(path, b"")  # creates, or truncates in place
                return fds.alloc(path, "w", vfs.files[path])
            return ENOENT

        if name == "unlink":
            if path in vfs.files:
                vfs.remove_file(path)
                return 0
            return ENOENT

        if name == "mkdir":
            if path in vfs.children or path in vfs.files:
                return EEXIST
            if split_path(path)[0] not in vfs.children:
                return ENOENT
            vfs.mkdirs(path)
            return 0

        if name == "rmdir":
            if path not in vfs.children or path == "/":
                return ENOENT
            if vfs.children[path]:
                return ENOTEMPTY
            vfs.remove_dir(path)
            return 0

        if name == "getdents":
            if path not in vfs.children:
                return ENOENT
            entries = vfs.listdir(path)
            sandbox.last_getdents = entries
            return len(entries)

        if name == "execve":
            sandbox.diag("execve", f"{path} argv={args[1]!r}")
            return 0 if path in vfs.files else ENOENT

    if name == "close":
        return 0 if fds.close(args[0]) else EBADF

    if name == "read" or name == "write":
        entry = fds.get(args[0])
        if entry is None or entry[2] != name[0]:  # open for "r" or "w"
            return EBADF
        count = args[1]
        if type(count) is not int or count < 0:  # exact, as an fd is
            return EINVAL
        _, offset, _, content = entry
        if name == "read":
            n = max(0, min(count, len(content) - offset))
            entry[1] = offset + n
            return n
        if offset + count > MAX_FILE_BYTES:
            return EFBIG
        entry[1] = offset + count
        if offset >= len(content):
            content.extend(b"\x00" * (offset - len(content) + count))
        else:
            content[offset:offset + count] = b"\x00" * count
        return count

    if name == "getpid":
        return ev.ctx.pid

    if name == "getuid":
        return ev.ctx.uid

    raise AssertionError(f"unreachable syscall {name}")
