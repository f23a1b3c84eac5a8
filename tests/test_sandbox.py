import random
import time

import pytest

from apate.errors import MalformedManifestLine
from apate.sandbox import (EACCES, EBADF, EEXIST, ENOENT, ENOTEMPTY,
                           SandboxState, VirtualFS, append_to_vfs_file,
                           errno_default, exec_syscall, normalize_path,
                           vfs_from_manifest)

from conftest import make_ctx, make_event


class TestPaths:
    def test_normalize(self):
        assert normalize_path("/a//b/./c") == "/a/b/c"
        assert normalize_path("/a/b/../c") == "/a/c"
        assert normalize_path("relative") == "/relative"
        assert normalize_path("/..") == "/"
        assert normalize_path("/") == "/"
        assert normalize_path("/a/.hidden/b/") == "/a/.hidden/b"

    def test_normalize_matches_segment_walk(self):
        def walk(path):
            parts = []
            for part in path.split("/"):
                if part == "..":
                    if parts:
                        parts.pop()
                elif part not in ("", "."):
                    parts.append(part)
            return "/" + "/".join(parts)

        rng = random.Random(3)
        for _ in range(5000):
            path = "".join(rng.choice("/.ab") for _ in range(rng.randrange(10)))
            assert normalize_path(path) == walk(path), path


class TestVirtualFS:
    def test_mkdirs_creates_parents(self):
        vfs = VirtualFS()
        vfs.mkdirs("/a/b/c")
        assert vfs.is_dir("/a") and vfs.is_dir("/a/b") and vfs.is_dir("/a/b/c")
        vfs.check_invariants()

    def test_file_dir_conflicts(self):
        vfs = VirtualFS()
        vfs.put_file("/a/f", b"x")
        with pytest.raises(ValueError):
            vfs.mkdirs("/a/f")
        with pytest.raises(ValueError):
            vfs.put_file("/a", b"x")

    def test_file_ancestor_conflicts(self):
        vfs = VirtualFS()
        vfs.put_file("/a", b"x")
        with pytest.raises(ValueError, match="/a exists as a file"):
            vfs.mkdirs("/a/b/c")
        with pytest.raises(ValueError, match="/a exists as a file"):
            vfs.put_file("/a/b", b"y")
        assert not vfs.is_dir("/a/b") and vfs.listdir("/") == ["a"]
        vfs.check_invariants()

    def test_check_invariants_catches_stale_index(self):
        vfs = VirtualFS()
        vfs.put_file("/d/f", b"")
        vfs.files["/d/g"] = b""  # bypasses the index
        with pytest.raises(AssertionError, match="child index"):
            vfs.check_invariants()

    def test_put_file_keeps_a_new_bytearray_and_overwrites_in_place(self):
        vfs = VirtualFS()
        data = bytearray(b"abc")
        vfs.put_file("/f", data)
        assert vfs.files["/f"] is data
        vfs.put_file("/f", b"xy")
        assert vfs.files["/f"] is data and data == b"xy"
        vfs.put_file("/g", b"bytes")
        assert type(vfs.files["/g"]) is bytearray

    def test_listdir_immediate_children_sorted(self):
        vfs = VirtualFS()
        vfs.put_file("/d/b", b"")
        vfs.put_file("/d/a", b"")
        vfs.mkdirs("/d/sub/deep")
        assert vfs.listdir("/d") == ["a", "b", "sub"]
        assert vfs.listdir("/") == ["d"]

    def test_digest_deterministic_and_content_sensitive(self):
        def build(content):
            vfs = VirtualFS()
            vfs.mkdirs("/x")
            vfs.put_file("/x/f", content)
            return vfs.digest()

        assert build(b"one") == build(b"one")
        assert build(b"one") != build(b"two")


class TestManifest:
    def test_basic_manifest(self):
        vfs = vfs_from_manifest(b"D /var/lib\n"
                                b"F /var/lib/data 5 00\n"
                                b"F /etc/hostname 4 @mini\n")
        assert vfs.is_dir("/var/lib")
        assert vfs.read_file("/var/lib/data") == b"\x00" * 5
        assert vfs.read_file("/etc/hostname") == b"mini"
        assert vfs.is_dir("/etc")  # parent auto-created
        vfs.check_invariants()

    def test_blank_lines_skipped(self):
        vfs = vfs_from_manifest(b"\nD /a\n\n")
        assert vfs.is_dir("/a")

    @pytest.mark.parametrize("line,fragment", [
        (b"X /a", "unknown record"),
        (b"D", "bad directory"),
        (b"F /f 3 @toolong", "declared 3"),
        (b"F /f zz 00", "bad length"),
        (b"F /f 3 not-hex", "bad fill"),
        (b"F /f -3 00", "negative length"),
        (b"D /\xff", "not UTF-8"),
        (b"D /a\nF /a/f 2 @\xc3\xa9\nD /\xc3", "not UTF-8"),
        (b"F / 1 00", "/ exists as a directory"),
        (b"D /a/b\nF /a 1 00", "/a exists as a directory"),
        (b"F /a 1 00\nD /a/b", "/a exists as a file"),
        (b"F /a 1 00\nF /a/b/c 1 00", "/a exists as a file"),
    ])
    def test_malformed_lines(self, line, fragment):
        with pytest.raises(MalformedManifestLine) as exc:
            vfs_from_manifest(line)
        assert fragment in str(exc.value)
        assert exc.value.line_no == line.count(b"\n") + 1  # the last line


class TestSyscalls:
    def test_open_read_missing(self, sandbox):
        assert exec_syscall(sandbox, make_event("open", "/no", "r")) == ENOENT

    def test_open_write_needs_parent(self, sandbox):
        assert exec_syscall(sandbox, make_event("open", "/no/dir/f", "w")) == ENOENT
        sandbox.vfs.mkdirs("/no/dir")
        fd = exec_syscall(sandbox, make_event("open", "/no/dir/f", "w"))
        assert fd >= 3

    def test_open_write_truncates(self, sandbox):
        sandbox.vfs.put_file("/f", b"old content")
        exec_syscall(sandbox, make_event("open", "/f", "w"))
        assert sandbox.vfs.read_file("/f") == b""

    def test_fds_increase_and_never_recycle(self, sandbox):
        sandbox.vfs.put_file("/f", b"x")
        fd1 = exec_syscall(sandbox, make_event("open", "/f", "r"))
        assert exec_syscall(sandbox, make_event("close", fd1)) == 0
        fd2 = exec_syscall(sandbox, make_event("open", "/f", "r"))
        assert fd2 > fd1
        assert exec_syscall(sandbox, make_event("close", fd1)) == EBADF

    def test_read_offset_arithmetic(self, sandbox):
        # A 100,000-byte file read in 65,536-byte chunks: 65,536 then
        # 34,464 then 0 at end-of-file.
        sandbox.vfs.put_file("/big", b"\x55" * 100_000)
        fd = exec_syscall(sandbox, make_event("open", "/big", "r"))
        assert exec_syscall(sandbox, make_event("read", fd, 65_536)) == 65_536
        assert exec_syscall(sandbox, make_event("read", fd, 65_536)) == 34_464
        assert exec_syscall(sandbox, make_event("read", fd, 65_536)) == 0

    def test_read_wrong_mode(self, sandbox):
        sandbox.vfs.mkdirs("/d")
        fd = exec_syscall(sandbox, make_event("open", "/d/f", "w"))
        assert exec_syscall(sandbox, make_event("read", fd, 10)) == EBADF
        assert exec_syscall(sandbox, make_event("read", 999, 10)) == EBADF

    def test_write_grows_file(self, sandbox):
        sandbox.vfs.mkdirs("/d")
        fd = exec_syscall(sandbox, make_event("open", "/d/f", "w"))
        assert exec_syscall(sandbox, make_event("write", fd, 10)) == 10
        assert exec_syscall(sandbox, make_event("write", fd, 5)) == 5
        assert len(sandbox.vfs.read_file("/d/f")) == 15

    def test_write_wrong_mode(self, sandbox):
        sandbox.vfs.put_file("/f", b"x")
        fd = exec_syscall(sandbox, make_event("open", "/f", "r"))
        assert exec_syscall(sandbox, make_event("write", fd, 3)) == EBADF

    def test_unlink(self, sandbox):
        sandbox.vfs.put_file("/f", b"x")
        assert exec_syscall(sandbox, make_event("unlink", "/f")) == 0
        assert exec_syscall(sandbox, make_event("unlink", "/f")) == ENOENT

    def test_write_after_unlink_does_not_recreate(self, sandbox):
        sandbox.vfs.mkdirs("/d")
        fd = exec_syscall(sandbox, make_event("open", "/d/f", "w"))
        assert exec_syscall(sandbox, make_event("unlink", "/d/f")) == 0
        assert exec_syscall(sandbox, make_event("rmdir", "/d")) == 0
        assert exec_syscall(sandbox, make_event("write", fd, 7)) == 7
        assert not sandbox.vfs.exists("/d/f") and not sandbox.vfs.exists("/d")
        sandbox.vfs.check_invariants()

    def test_descriptor_keeps_its_file_when_path_is_recreated(self, sandbox):
        old = exec_syscall(sandbox, make_event("open", "/f", "w"))
        assert exec_syscall(sandbox, make_event("unlink", "/f")) == 0
        new = exec_syscall(sandbox, make_event("open", "/f", "w"))
        assert (old, new) == (3, 4)
        assert exec_syscall(sandbox, make_event("write", old, 10)) == 10
        assert sandbox.vfs.read_file("/f") == b""
        assert exec_syscall(sandbox, make_event("write", new, 4)) == 4
        assert sandbox.vfs.read_file("/f") == b"\x00" * 4
        sandbox.vfs.check_invariants()

    def test_read_after_unlink_returns_the_open_file(self, sandbox):
        sandbox.vfs.put_file("/g", b"secret")
        fd = exec_syscall(sandbox, make_event("open", "/g", "r"))
        assert exec_syscall(sandbox, make_event("unlink", "/g")) == 0
        sandbox.vfs.put_file("/g", b"other file")
        assert exec_syscall(sandbox, make_event("read", fd, 100)) == 6
        assert sandbox.last_read == b"secret"

    def test_truncation_is_seen_by_open_descriptors(self, sandbox):
        sandbox.vfs.put_file("/h", b"abcdef")
        rfd = exec_syscall(sandbox, make_event("open", "/h", "r"))
        assert exec_syscall(sandbox, make_event("read", rfd, 2)) == 2
        wfd = exec_syscall(sandbox, make_event("open", "/h", "w"))
        assert exec_syscall(sandbox, make_event("read", rfd, 10)) == 0
        assert exec_syscall(sandbox, make_event("write", wfd, 3)) == 3
        assert exec_syscall(sandbox, make_event("read", rfd, 10)) == 1
        assert sandbox.last_read == b"\x00"

    def test_mkdir_rmdir(self, sandbox):
        assert exec_syscall(sandbox, make_event("mkdir", "/d")) == 0
        assert exec_syscall(sandbox, make_event("mkdir", "/d")) == EEXIST
        assert exec_syscall(sandbox, make_event("mkdir", "/no/deep")) == ENOENT
        sandbox.vfs.put_file("/d/f", b"")
        assert exec_syscall(sandbox, make_event("rmdir", "/d")) == ENOTEMPTY
        exec_syscall(sandbox, make_event("unlink", "/d/f"))
        assert exec_syscall(sandbox, make_event("rmdir", "/d")) == 0
        assert exec_syscall(sandbox, make_event("rmdir", "/")) == ENOENT

    def test_getdents(self, sandbox):
        sandbox.vfs.put_file("/d/a", b"")
        sandbox.vfs.put_file("/d/b", b"")
        assert exec_syscall(sandbox, make_event("getdents", "/d")) == 2
        assert sandbox.last_getdents == ["a", "b"]
        assert exec_syscall(sandbox, make_event("getdents", "/none")) == ENOENT

    def test_execve(self, sandbox):
        sandbox.vfs.put_file("/bin/sh", b"\x7fELF")
        assert exec_syscall(sandbox, make_event("execve", "/bin/sh", ["sh"])) == 0
        assert exec_syscall(sandbox, make_event("execve", "/bin/no", [])) == ENOENT

    def test_identity_syscalls(self, sandbox):
        ctx = make_ctx(pid=321, uid=77)
        assert exec_syscall(sandbox, make_event("getpid", ctx=ctx)) == 321
        assert exec_syscall(sandbox, make_event("getuid", ctx=ctx)) == 77


class TestErrnoTable:
    def test_table_values(self):
        assert errno_default(make_event("open", "/x", "r")) == EACCES
        assert errno_default(make_event("execve", "/x", [])) == EACCES
        for name in ("mkdir", "rmdir", "unlink"):
            assert errno_default(make_event(name, "/x")) == EACCES
        assert errno_default(make_event("close", 3)) == EBADF
        assert errno_default(make_event("read", 3, 0)) == EBADF
        assert errno_default(make_event("write", 3, 0)) == EBADF
        assert errno_default(make_event("getdents", "/")) == EBADF
        ctx = make_ctx(pid=9, uid=8)
        assert errno_default(make_event("getpid", ctx=ctx)) == 9
        assert errno_default(make_event("getuid", ctx=ctx)) == 8


class TestSandboxState:
    def test_clock_override(self):
        sb = SandboxState(clock=lambda: "2024-01-01T00:00:00")
        assert sb.timestamp() == "2024-01-01T00:00:00"

    def test_default_timestamp_iso(self, sandbox):
        assert "T" in sandbox.timestamp()


def scan_listdir(vfs, path):
    """Children of ``path`` found by scanning every path in the tree."""
    prefix = path if path.endswith("/") else path + "/"
    names = set()
    for p in list(vfs.dirs) + list(vfs.files):
        if p != path and p.startswith(prefix):
            names.add(p[len(prefix):].split("/", 1)[0])
    return sorted(names)


class TestChildIndex:
    NAMES = ("a", "b", "c", ".", "x.log")

    def random_path(self, rng, vfs):
        if rng.random() < 0.5:  # an existing path, so removals succeed
            return rng.choice(sorted(set(vfs.dirs) | set(vfs.files)))
        parts = [rng.choice(self.NAMES) for _ in range(rng.randrange(1, 5))]
        return "/" + "/".join(parts)

    def step(self, rng, sb, fds, model):
        """One random operation; checks each syscall result against a scan.

        ``model`` maps each file path to its content, one bytearray per
        file, and ``fds`` maps each descriptor to [model file, offset,
        mode, path]: a descriptor keeps its file when that file is unlinked or
        another file is created at its path.  Returns True for a read or
        write through a descriptor whose file no longer has its path.
        """
        vfs = sb.vfs
        if fds and rng.random() < 0.3:  # an open file's path
            path = fds[rng.choice(sorted(fds))][3]
        else:
            path = self.random_path(rng, vfs)
        norm = normalize_path(path)
        op = rng.randrange(11)
        if op == 0:
            try:
                vfs.mkdirs(path)
            except ValueError:
                pass
        elif op == 1:
            content = bytes([rng.randrange(256) for _ in range(rng.randrange(4))])
            try:
                vfs.put_file(path, content)
            except ValueError:
                return False
            if norm in model:
                model[norm][:] = content  # in place: open descriptors see it
            else:
                model[norm] = bytearray(content)
        elif op in (2, 9):
            mode = "r" if op == 9 else rng.choice(("w", "creat"))
            fd = exec_syscall(sb, make_event("open", path, mode))
            if fd < 0:
                return False
            if mode != "r":
                if norm in model:
                    model[norm].clear()  # truncated in place
                else:
                    model[norm] = bytearray()
            fds[fd] = [model[norm], 0, "r" if mode == "r" else "w", norm]
        elif op in (3, 10) and fds:
            fd = rng.choice(sorted(fds))
            entry = fds[fd]
            f, offset, mode, _ = entry
            count = rng.randrange(1, 9)
            if op == 3:
                result = exec_syscall(sb, make_event("write", fd, count))
                if mode != "w":
                    assert result == EBADF
                    return False
                assert result == count
                f.extend(bytes(max(0, offset - len(f))))
                f[offset:offset + count] = bytes(count)
                entry[1] = offset + count
            else:
                result = exec_syscall(sb, make_event("read", fd, count))
                if mode != "r":
                    assert result == EBADF
                    return False
                data = f[offset:offset + count]
                assert result == len(data) and sb.last_read == data
                entry[1] = offset + len(data)
            return not any(model.get(p) is f for p in model)
        elif op == 4:
            expect = 0 if norm in vfs.files else ENOENT
            assert exec_syscall(sb, make_event("unlink", path)) == expect
            model.pop(norm, None)
        elif op == 5:
            exec_syscall(sb, make_event("mkdir", path))
        elif op == 6:
            if norm not in vfs.dirs or norm == "/":
                expect = ENOENT
            else:
                expect = ENOTEMPTY if scan_listdir(vfs, norm) else 0
            assert exec_syscall(sb, make_event("rmdir", path)) == expect
        elif op == 7:
            result = exec_syscall(sb, make_event("getdents", path))
            if norm in vfs.dirs:
                assert sb.last_getdents == scan_listdir(vfs, norm)
                assert result == len(sb.last_getdents)
            else:
                assert result == ENOENT
        elif op == 8:
            try:
                append_to_vfs_file(vfs, norm, b"rec\n")
            except ValueError:
                return False
            model.setdefault(norm, bytearray()).extend(b"rec\n")
        return False

    def test_differential_against_tree_scan(self):
        rng = random.Random(11)
        orphan_io = 0
        for _ in range(300):
            sb = SandboxState()
            fds, model = {}, {}
            for _ in range(rng.randrange(10, 40)):
                orphan_io += self.step(rng, sb, fds, model)
                sb.vfs.check_invariants()
                for d in list(sb.vfs.dirs) + list(sb.vfs.files) + ["/none"]:
                    assert sb.vfs.listdir(d) == scan_listdir(sb.vfs, d)
                assert sb.vfs.files == model
        assert orphan_io >= 20, orphan_io  # the sequences reach that case

    @staticmethod
    def getdents_seconds(n_files, per_dir=50, calls=500, repeats=7):
        sb = SandboxState()
        for i in range(n_files):
            sb.vfs.put_file(f"/d{i // per_dir}/f{i}", b"")
        ev = make_event("getdents", "/d0")
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            for _ in range(calls):
                exec_syscall(sb, ev)
            best = min(best, time.perf_counter() - t0)
        assert sb.last_getdents == sorted(f"f{i}" for i in range(per_dir))
        return best

    def test_getdents_cost_does_not_grow_with_tree(self):
        # ROADMAP item 4: 4x the files, same entries per directory.
        small = self.getdents_seconds(5_000)
        large = self.getdents_seconds(20_000)
        assert large < 2 * small, (small, large)
