import enum
import hashlib
import random
import re
import time
from datetime import datetime, timezone

import pytest

from apate import builtins as builtins_mod
from apate import sandbox as sandbox_mod
from apate.errors import MalformedManifestLine
from apate.logsink import VfsSink
from apate.model import SYSCALL_TABLE, SYSCALLS, Condition
from apate.sandbox import (EACCES, EBADF, EEXIST, EFBIG, EINVAL, ENOENT,
                           ENOTEMPTY, MAX_FILE_BYTES, SandboxState, VirtualFS,
                           errno_default, exec_syscall, normalize_path,
                           vfs_from_manifest)

from conftest import (bytes_read, check_invariants, holds, make_ctx,
                      make_event, read_file)


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


class TestCanonicalPaths:
    """Path text is canonicalized once, where it comes in; the VFS holds
    and is handed canonical paths only."""

    @staticmethod
    def count_normalizations(monkeypatch):
        calls = []
        real = sandbox_mod.normalize_path

        def counting(path):
            calls.append(path)
            return real(path)

        monkeypatch.setattr(sandbox_mod, "normalize_path", counting)
        monkeypatch.setattr(builtins_mod, "normalize_path", counting)
        return calls

    @pytest.mark.parametrize("syscall,args", [
        ("open", ("/d//f", "r")), ("open", ("/d/./g", "w")),
        ("unlink", ("/d/f/",)), ("mkdir", ("//d/n",)), ("rmdir", ("/d/e/",)),
        ("getdents", ("/d/.",)), ("execve", ("d/f", "sh"))])
    def test_one_normalization_per_event(self, monkeypatch, syscall, args):
        sb = SandboxState(vfs=vfs_from_manifest(b"D /d/e\nF /d/f 1 00\n"))
        calls = self.count_normalizations(monkeypatch)
        assert exec_syscall(sb, make_event(syscall, *args)) >= 0
        assert calls == [args[0]]

    def test_file_keyword_normalizes_once_at_bind(self, monkeypatch, sandbox):
        sandbox.vfs.put_file("/ctl/mode", b"trap")
        calls = self.count_normalizations(monkeypatch)
        found = Condition("file_keyword", ("/ctl//./mode", "trap"))
        missing = Condition("file_keyword", ("/ctl/../other/", "trap"))
        assert holds(found, make_event("getpid"), sandbox) == 1   # binds
        assert holds(missing, make_event("getpid"), sandbox) == 0  # binds
        assert calls == ["/ctl//./mode", "/ctl/../other/"]
        for ev in (make_event("getpid"), make_event("getuid"),
                   make_event("close", 3)):
            assert holds(found, ev, sandbox) == 1
        assert calls == ["/ctl//./mode", "/ctl/../other/"]
        assert sandbox.diagnostics[-1] == {   # the path as written
            "kind": "MissingFile", "detail": "file_keyword: /ctl/../other/"}

    def test_aliased_manifest_builds_the_canonical_world(self):
        aliased = vfs_from_manifest(b"D /a//b/\nF /a/./b/../f 3 @abc\n"
                                    b"F a/g 1 00\n")
        canonical = vfs_from_manifest(b"D /a/b\nF /a/f 3 @abc\nF /a/g 1 00\n")
        assert aliased.digest() == canonical.digest() == (
            "2e7f49da83961594d4ce4e05320d05581cad975488d2ff65d5077cf7a128f21f")
        assert sorted(aliased.files) == ["/a/f", "/a/g"]
        assert sorted(aliased.children) == ["/", "/a", "/a/b"]
        check_invariants(aliased)

    def test_aliased_trace_acts_as_its_canonical_spelling(self):
        def replay(a, f, g, x):
            sb = SandboxState()
            steps = [("mkdir", "//a"), ("mkdir", "/a/./b/"), ("open", x, "w"),
                     ("write", 3, 5), ("open", f, "w"), ("open", g, "w"),
                     ("getdents", a), ("getdents", "//a/b"), ("open", x, "r"),
                     ("read", 6, 9), ("unlink", f), ("getdents", "a"),
                     ("rmdir", "/a/b/"), ("unlink", x), ("rmdir", "/a//b"),
                     ("execve", g, "sh"), ("open", f, "r"), ("mkdir", g)]
            seen = []
            for syscall, *args in steps:
                result = exec_syscall(sb, make_event(syscall, *args))
                seen.append((result, sb.last_getdents))
            check_invariants(sb.vfs)
            return seen, sb.vfs.digest()

        assert (replay("/a/", "/a/./f/", "a/g", "//a/b/x")
                == replay("/a", "/a/f", "/a/g", "/a/b/x"))


class TestVirtualFS:
    def test_mkdirs_creates_parents(self):
        vfs = VirtualFS()
        vfs.mkdirs("/a/b/c")
        assert {"/a", "/a/b", "/a/b/c"} <= vfs.children.keys()
        check_invariants(vfs)

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
        assert "/a/b" not in vfs.children and vfs.listdir("/") == ["a"]
        check_invariants(vfs)

    def test_check_invariants_catches_stale_index(self):
        vfs = VirtualFS()
        vfs.put_file("/d/f", b"")
        vfs.files["/d/g"] = b""  # bypasses the index
        with pytest.raises(AssertionError, match="child index"):
            check_invariants(vfs)

    def test_put_file_keeps_a_new_bytearray_and_overwrites_in_place(self):
        vfs = VirtualFS()
        data = bytearray(b"abc")
        vfs.put_file("/f", data)
        assert vfs.files["/f"] is data
        vfs.put_file("/f", b"xy")
        assert vfs.files["/f"] is data and data == b"xy"
        vfs.put_file("/g", b"bytes")
        assert type(vfs.files["/g"]) is bytearray

    def test_remove_dir_refuses_root_and_non_empty(self):
        vfs = VirtualFS()
        vfs.mkdirs("/a/b")
        for path in ("/", "/a"):
            with pytest.raises(ValueError,
                               match=f"^{path} is the root or not empty$"):
                vfs.remove_dir(path)
        vfs.remove_dir("/a/b")
        vfs.remove_dir("/a")
        assert vfs.listdir("/") == []
        check_invariants(vfs)

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


    def test_digest_is_one_hash_over_the_documented_stream(self):
        """digest() hashes sorted "D\\0path\\0", then sorted
        "F\\0path\\0content\\0", whatever batches it hashes them in: an
        empty file, a file over one batch, small files that fill several,
        and a path holding a lone surrogate."""
        rng = random.Random(36)
        vfs = VirtualFS()
        vfs.mkdirs("/d/e")
        vfs.mkdirs("/s\udc80")
        vfs.put_file("/d/empty", b"")
        vfs.put_file("/d/big", rng.randbytes(sandbox_mod._DIGEST_BATCH + 7))
        for i in range(40):
            vfs.put_file(f"/d/e/f{i:02d}", rng.randbytes(rng.randrange(9000)))
        vfs.put_file("/s\udc80/x\udcff", b"\x00")
        vfs.put_file("/z", bytes(sandbox_mod._DIGEST_BATCH))
        assert sum(map(len, vfs.files.values())) > 3 * sandbox_mod._DIGEST_BATCH

        def enc(path):
            return path.encode("utf-8", "surrogatepass")
        stream = b"".join(b"D\x00" + enc(d) + b"\x00"
                          for d in sorted(vfs.children))
        for f in sorted(vfs.files):
            stream += b"F\x00" + enc(f) + b"\x00" + bytes(vfs.files[f]) + b"\x00"
        assert vfs.digest() == hashlib.sha256(stream).hexdigest()


class TestManifest:
    @pytest.mark.parametrize("length", [0, 3])
    def test_fill_specs_follow_the_readme_rule(self, length):
        """Every fill spec of one or two printable-ASCII characters, and
        digits and letters that are not ASCII, is taken exactly when it is
        one or two ASCII hex digits, in either case, and gives that byte."""
        specs = [chr(c) for c in range(0x21, 0x7f)]
        specs += [a + b for a in specs for b in specs]
        specs += ["\u0663", "\u00b2", "\uff41", "\uff41a", "a\u0663"]
        taken = 0
        for spec in specs:
            if spec.startswith("@"):
                continue   # inline text, not a fill byte
            line = f"F /f {length} {spec}\n".encode()
            if re.fullmatch(r"[0-9a-fA-F]{1,2}", spec, re.ASCII):
                vfs = vfs_from_manifest(line)
                assert vfs.files["/f"] == bytes([int(spec, 16)]) * length
                assert type(vfs.files["/f"]) is bytearray
                taken += 1
            else:
                with pytest.raises(MalformedManifestLine) as exc:
                    vfs_from_manifest(line)
                assert str(exc.value) == f"line 1: bad fill byte {spec!r}"
        assert taken == 22 + 22 * 22

    def test_one_fill_spec_makes_files_that_share_no_storage(self):
        vfs = vfs_from_manifest(b"F /a 2 7f\nF /b 2 7f\n")
        vfs.files["/a"][0] = 0
        assert vfs.files["/b"] == b"\x7f\x7f"
        assert vfs_from_manifest(b"F /c 1 7f\n").files["/c"] == b"\x7f"

    def test_basic_manifest(self):
        vfs = vfs_from_manifest(b"D /var/lib\n"
                                b"F /var/lib/data 5 00\n"
                                b"F /etc/hostname 4 @mini\n")
        assert "/var/lib" in vfs.children
        assert read_file(vfs, "/var/lib/data") == b"\x00" * 5
        assert read_file(vfs, "/etc/hostname") == b"mini"
        assert "/etc" in vfs.children  # parent auto-created
        check_invariants(vfs)

    def test_blank_lines_skipped(self):
        vfs = vfs_from_manifest(b"\nD /a\n\n")
        assert "/a" in vfs.children

    @pytest.mark.parametrize("line,fragment", [
        (b"X /a", "unknown record"),
        (b"D", "bad directory"),
        (b"F /f 3", "bad file line: 'F /f 3'"),
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
        (b"F /a 1 00\nF /a/b 1 00", "line 2: /a exists as a file"),
        (b"F /a 1_0 00", "bad length '1_0'"),
        ("F /b \u0661 00".encode(), "bad length '\u0661'"),
        (b"F /b +1 00", "bad length '+1'"),
        (b"F /b --3 00", "bad length '--3'"),
        (b"F /b 1" + b"0" * 5000 + b" 00", "bad length '10000"),
        (b"F /c 1 0x1", "bad fill byte '0x1'"),
        (b"F /c 1 +1", "bad fill byte '+1'"),
        (b"F /c 1 1_0", "bad fill byte '1_0'"),
        (b"F /c 1 100", "bad fill byte '100'"),
        ("F /c 1 \u0661".encode(), "bad fill byte '\u0661'"),
        # not blank (that is ASCII whitespace only) and no field either
        ("D /a\n\N{IDEOGRAPHIC SPACE}".encode(), "unknown record type '\\u3000'"),
        ("D /a\n\x85".encode(), "unknown record type '\\x85'"),
        ("D /a\n \N{LINE SEPARATOR} ".encode(), "unknown record type"),
    ])
    def test_malformed_lines(self, line, fragment):
        with pytest.raises(MalformedManifestLine) as exc:
            vfs_from_manifest(line)
        assert fragment in str(exc.value)
        assert exc.value.line_no == line.count(b"\n") + 1  # the last line

    def test_files_under_new_and_existing_parents(self):
        vfs = vfs_from_manifest(
            b"D /a\nF /a/f 1 00\nF /a/g 1 00\nF /b/c/h 2 ff\nF /b/c/i 1 00\n"
            b"F /b/j 1 00\nF /k 1 00\nD /b/c/d\nF /b/c/d/e 1 00\nF /a/f 3 01\n")
        check_invariants(vfs)
        assert sorted(vfs.files) == ["/a/f", "/a/g", "/b/c/d/e", "/b/c/h",
                                     "/b/c/i", "/b/j", "/k"]
        assert vfs.listdir("/b/c") == ["d", "h", "i"]
        assert vfs.files["/a/f"] == b"\x01" * 3

    def test_length_limit(self, monkeypatch):
        assert MAX_FILE_BYTES == 1 << 30
        monkeypatch.setattr(sandbox_mod, "MAX_FILE_BYTES", 16)
        vfs = vfs_from_manifest(b"F /a 16 00\n")
        assert read_file(vfs, "/a") == bytes(16)
        for length in (b"17", b"9999999999999", b"99999999999999999999"):
            with pytest.raises(MalformedManifestLine) as exc:
                vfs_from_manifest(b"D /d\nF /a " + length + b" 00\n")
            assert exc.value.line_no == 2
            assert str(exc.value) == (f"line 2: length {int(length)} is over "
                                      "the 16-byte limit")


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
        assert read_file(sandbox.vfs, "/f") == b""

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
        assert len(read_file(sandbox.vfs, "/d/f")) == 15

    def test_write_past_the_limit_is_efbig(self, sandbox, monkeypatch):
        fd = exec_syscall(sandbox, make_event("open", "/f", "w"))
        huge = make_event("write", fd, 99999999999999999999)
        assert exec_syscall(sandbox, huge) == EFBIG
        monkeypatch.setattr(sandbox_mod, "MAX_FILE_BYTES", 16)
        assert exec_syscall(sandbox, make_event("write", fd, 10)) == 10
        assert exec_syscall(sandbox, make_event("write", fd, 7)) == EFBIG
        assert sandbox.fds.get(fd)[1] == 10     # the offset is unchanged
        assert exec_syscall(sandbox, make_event("write", fd, 6)) == 6
        assert exec_syscall(sandbox, huge) == EFBIG
        assert read_file(sandbox.vfs, "/f") == bytes(16)

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
        assert "/d/f" not in sandbox.vfs.files
        assert "/d" not in sandbox.vfs.children
        check_invariants(sandbox.vfs)

    def test_descriptor_keeps_its_file_when_path_is_recreated(self, sandbox):
        old = exec_syscall(sandbox, make_event("open", "/f", "w"))
        assert exec_syscall(sandbox, make_event("unlink", "/f")) == 0
        new = exec_syscall(sandbox, make_event("open", "/f", "w"))
        assert (old, new) == (3, 4)
        assert exec_syscall(sandbox, make_event("write", old, 10)) == 10
        assert read_file(sandbox.vfs, "/f") == b""
        assert exec_syscall(sandbox, make_event("write", new, 4)) == 4
        assert read_file(sandbox.vfs, "/f") == b"\x00" * 4
        check_invariants(sandbox.vfs)

    def test_read_after_unlink_returns_the_open_file(self, sandbox):
        sandbox.vfs.put_file("/g", b"secret")
        fd = exec_syscall(sandbox, make_event("open", "/g", "r"))
        assert exec_syscall(sandbox, make_event("unlink", "/g")) == 0
        sandbox.vfs.put_file("/g", b"other file")
        assert exec_syscall(sandbox, make_event("read", fd, 100)) == 6
        assert bytes_read(sandbox, fd, 6) == b"secret"

    def test_truncation_is_seen_by_open_descriptors(self, sandbox):
        sandbox.vfs.put_file("/h", b"abcdef")
        rfd = exec_syscall(sandbox, make_event("open", "/h", "r"))
        assert exec_syscall(sandbox, make_event("read", rfd, 2)) == 2
        wfd = exec_syscall(sandbox, make_event("open", "/h", "w"))
        assert exec_syscall(sandbox, make_event("read", rfd, 10)) == 0
        assert exec_syscall(sandbox, make_event("write", wfd, 3)) == 3
        assert exec_syscall(sandbox, make_event("read", rfd, 10)) == 1
        assert bytes_read(sandbox, rfd, 1) == b"\x00"

    def test_bad_read_count_is_einval_and_keeps_the_offset(self, sandbox):
        sandbox.vfs.put_file("/f", b"0123456789")
        fd = exec_syscall(sandbox, make_event("open", "/f", "r"))
        for count in (-4, "x", "lots4", None, float("inf"), [4], 4.7, 4.0, True,
                      "4"):
            assert exec_syscall(sandbox, make_event("read", fd, count)) == EINVAL
            assert sandbox.fds.get(fd)[1] == 0
        assert exec_syscall(sandbox, make_event("read", fd, 4)) == 4
        assert exec_syscall(sandbox, make_event("read", fd, 4096)) == 6
        assert bytes_read(sandbox, fd, 6) == b"456789"

    def test_bad_write_length_is_einval_and_keeps_the_offset(self, sandbox):
        fd = exec_syscall(sandbox, make_event("open", "/f", "w"))
        assert exec_syscall(sandbox, make_event("write", fd, 10)) == 10
        for length in (-5, "x", None, 4.7, True, False, "3"):
            assert exec_syscall(sandbox, make_event("write", fd, length)) == EINVAL
            assert sandbox.fds.get(fd)[1] == 10
        assert exec_syscall(sandbox, make_event("write", fd, 3)) == 3
        assert read_file(sandbox.vfs, "/f") == b"\x00" * 13

    def test_bad_count_on_a_bad_descriptor_is_ebadf(self, sandbox):
        assert exec_syscall(sandbox, make_event("read", 99, -4)) == EBADF
        assert exec_syscall(sandbox, make_event("write", 99, "x")) == EBADF

    # int() reads each of these as a number; no str is a count.  The
    # count table below holds the other str cases.
    @pytest.mark.parametrize("count", ["\u0663", "1_0", " 4", "4 ", "+4", "\uff10"])
    @pytest.mark.parametrize("name", ["read", "write"])
    def test_str_count_that_is_not_ascii_digits_is_einval(self, sandbox, name, count):
        sandbox.vfs.put_file("/f", b"0123456789")
        fd = exec_syscall(sandbox, make_event("open", "/f", name[0]))
        assert exec_syscall(sandbox, make_event(name, fd, count)) == EINVAL
        assert sandbox.fds.get(fd)[1] == 0
        assert read_file(sandbox.vfs, "/f") == (b"0123456789" if name == "read" else b"")

    @pytest.mark.parametrize("fd", [3.0, True, 3.5, [3], None])
    def test_only_an_exact_int_names_a_descriptor(self, sandbox, fd):
        sandbox.vfs.put_file("/f", b"0123456789")
        assert exec_syscall(sandbox, make_event("open", "/f", "r")) == 3
        assert exec_syscall(sandbox, make_event("open", "/g", "w")) == 4
        wfd = fd + 1 if isinstance(fd, float) else fd  # 4.0 for the writer
        assert exec_syscall(sandbox, make_event("read", fd, 4)) == EBADF
        assert exec_syscall(sandbox, make_event("write", wfd, 4)) == EBADF
        assert exec_syscall(sandbox, make_event("close", fd)) == EBADF
        assert sandbox.fds.path_of(fd) is None
        assert exec_syscall(sandbox, make_event("read", 3, 4)) == 4
        assert exec_syscall(sandbox, make_event("write", 4, 4)) == 4
        assert exec_syscall(sandbox, make_event("close", 3)) == 0

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


# The count rule the count table checks: an exact int is the count, and
# anything else (a bool, a float, a str, an IntEnum) is no count.
def ref_byte_count(value) -> int:
    return value if type(value) is int else -1


class Count(enum.IntEnum):
    FOUR = 4


COUNTS = [0, 4, 2**70, -4, -(2**70), True, False, 4.0, 4.7, float("nan"),
          float("inf"), None, [4], {"n": 4}, Count.FOUR,
          "4", "007", "4096", "0", "", "-4", "x", "9" * 5000]


class TestCountTable:
    """read and write against the reference count, result and offset."""

    # A count, like a descriptor, is an exact int: a string of digits or
    # an int subclass is no count, as "3" or 3.0 names no descriptor.
    @pytest.mark.parametrize("count", ["4", "007", "4096", "0", Count.FOUR],
                             ids=["4", "007", "4096", "0", "IntEnum"])
    @pytest.mark.parametrize("name", ["read", "write"])
    def test_a_count_is_an_exact_int(self, sandbox, name, count):
        sandbox.vfs.put_file("/f", b"0123456789")
        fd = exec_syscall(sandbox, make_event("open", "/f", name[0]))
        assert exec_syscall(sandbox, make_event(name, fd, 2)) == 2
        assert exec_syscall(sandbox, make_event(name, fd, count)) == EINVAL
        assert sandbox.fds.get(fd)[1] == 2
        assert len(sandbox.vfs.files["/f"]) == (10 if name == "read" else 2)

    @pytest.mark.parametrize("count", COUNTS, ids=range(len(COUNTS)))
    def test_read(self, sandbox, count):
        sandbox.vfs.put_file("/f", b"0123456789")
        fd = exec_syscall(sandbox, make_event("open", "/f", "r"))
        assert exec_syscall(sandbox, make_event("read", fd, 2)) == 2
        n = ref_byte_count(count)
        want = EINVAL if n < 0 else min(n, 8)  # bounded by EOF
        assert exec_syscall(sandbox, make_event("read", fd, count)) == want
        assert sandbox.fds.get(fd)[1] == 2 + max(want, 0)
        if want >= 0:
            assert bytes_read(sandbox, fd, want) == b"23456789"[:want]
        else:   # the offset stays past the first read's two bytes
            assert bytes_read(sandbox, fd, 2) == b"01"

    @pytest.mark.parametrize("count", COUNTS, ids=range(len(COUNTS)))
    def test_write(self, sandbox, count):
        fd = exec_syscall(sandbox, make_event("open", "/f", "w"))
        assert exec_syscall(sandbox, make_event("write", fd, 10)) == 10
        n = ref_byte_count(count)
        want = EINVAL if n < 0 else EFBIG if 10 + n > MAX_FILE_BYTES else n
        assert exec_syscall(sandbox, make_event("write", fd, count)) == want
        assert sandbox.fds.get(fd)[1] == 10 + max(want, 0)
        assert read_file(sandbox.vfs, "/f") == bytes(10 + max(want, 0))


class TestSyscallTable:
    ARGS = {"path": "/d/x", "mode": "w", "fd": 3, "count": 4, "argv": "x -y"}

    @staticmethod
    def world(kind):
        """A sandbox where /d/x is a file, a directory or missing, and fd
        3 is /w open for writing."""
        sb = SandboxState()
        if kind == "dir":
            sb.vfs.mkdirs("/d/x")
        elif kind == "file":
            sb.vfs.put_file("/d/x", b"data")
        else:
            sb.vfs.mkdirs("/d")
        sb.vfs.put_file("/w", b"")
        sb.fds.alloc("/w", "w", sb.vfs.files["/w"])
        return sb

    def test_syscalls_are_the_table(self):
        assert SYSCALLS == tuple(SYSCALL_TABLE) and len(SYSCALLS) == 11
        for slots, errno in SYSCALL_TABLE.values():
            assert set(slots) <= set(self.ARGS)
            assert errno in (EACCES, EBADF, None)

    @pytest.mark.parametrize("name", SYSCALLS)
    def test_every_entry_executes(self, name):
        for kind in ("file", "dir", "missing"):
            ev = make_event(name, *(self.ARGS[s] for s in SYSCALL_TABLE[name][0]))
            assert type(exec_syscall(self.world(kind), ev)) is int

    @pytest.mark.parametrize("name", [name for name, (slots, _) in
                                      SYSCALL_TABLE.items()
                                      if slots[:1] == ("path",)])
    def test_path_argument_is_normalized(self, name):
        rest = [self.ARGS[s] for s in SYSCALL_TABLE[name][0][1:]]
        for kind in ("file", "dir", "missing"):
            seen = []
            for path in ("//d/./x", "/d/x"):
                sb = self.world(kind)
                result = exec_syscall(sb, make_event(name, path, *rest))
                seen.append((result, sb.vfs.digest(), sb.last_getdents,
                             sb.diagnostics,
                             [e[:3] for e in sb.fds.entries.values()]))
            assert seen[0] == seen[1], (kind, seen)

    @pytest.mark.parametrize("kind", [bytes, bytearray])
    @pytest.mark.parametrize("name, index", [
        (name, i) for name, (slots, _) in SYSCALL_TABLE.items()
        for i, slot in enumerate(slots) if slot in ("path", "mode")])
    def test_a_bytes_path_or_mode_is_refused(self, name, index, kind):
        """A trace cannot carry bytes, so an event holds none in a path or
        mode slot, and the guards, the sandbox and the log read one str."""
        slots = SYSCALL_TABLE[name][0]
        args = [self.ARGS[s] for s in slots]
        args[index] = kind(args[index].encode())
        with pytest.raises(TypeError, match=re.escape(
                f"{name} args[{index}] ({slots[index]}) must be a string, "
                f"got {args[index]!r}")):
            make_event(name, *args)


    @pytest.mark.parametrize("name, index", [
        (name, i) for name, (slots, _) in SYSCALL_TABLE.items()
        for i, slot in enumerate(slots) if slot == "path"])
    def test_a_path_holding_nul_is_refused(self, name, index):
        """A Linux path is a C string, so no recorded trace holds a path
        with NUL in it."""
        slots = SYSCALL_TABLE[name][0]
        args = [self.ARGS[s] for s in slots]
        args[index] = "/d/\0x"
        with pytest.raises(ValueError, match=re.escape(
                f"{name} args[{index}] (path) holds a NUL character, "
                "got '/d/\\x00x'")):
            make_event(name, *args)

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

    def test_default_timestamp_across_second_boundaries(self, sandbox, monkeypatch):
        # Each stamp must be the isoformat of its own truncated microsecond,
        # also right after the cached second changes (and changes back).
        second = 1_714_564_799 * 10**9  # 2024-05-01T11:59:59Z
        times = [second + 999_999_999, second + 10**9, second + 10**9 + 999,
                 second + 999_998_000, 0, 86_399 * 10**9 + 123_456_789,
                 second + 2 * 10**9 + 1_000, second + 10**9]
        rng = random.Random(11)
        times += [rng.randrange(0, 4 * 10**18) for _ in range(500)]
        clock = iter(times)
        monkeypatch.setattr(sandbox_mod, "time_ns", lambda: next(clock))
        for ns in times:
            want = datetime.fromtimestamp(ns // 10**9, timezone.utc).replace(
                microsecond=ns // 1000 % 10**6).isoformat(timespec="microseconds")
            assert sandbox.timestamp() == want
        assert want.endswith("+00:00")


def scan_listdir(vfs, path):
    """Children of ``path`` found by scanning every path in the tree."""
    prefix = path if path.endswith("/") else path + "/"
    names = set()
    for p in list(vfs.children) + list(vfs.files):
        if p != path and p.startswith(prefix):
            names.add(p[len(prefix):].split("/", 1)[0])
    return sorted(names)


class TestChildIndex:
    NAMES = ("a", "b", "c", ".", "x.log")

    def random_path(self, rng, vfs):
        if rng.random() < 0.5:  # an existing path, so removals succeed
            return rng.choice(sorted(set(vfs.children) | set(vfs.files)))
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
                vfs.mkdirs(norm)
            except ValueError:
                pass
        elif op == 1:
            content = bytes([rng.randrange(256) for _ in range(rng.randrange(4))])
            try:
                vfs.put_file(norm, content)
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
                assert result == len(data)
                assert bytes_read(sb, fd, result) == data
                entry[1] = offset + len(data)
            return not any(model.get(p) is f for p in model)
        elif op == 4:
            expect = 0 if norm in vfs.files else ENOENT
            assert exec_syscall(sb, make_event("unlink", path)) == expect
            model.pop(norm, None)
        elif op == 5:
            exec_syscall(sb, make_event("mkdir", path))
        elif op == 6:
            if norm not in vfs.children or norm == "/":
                expect = ENOENT
            else:
                expect = ENOTEMPTY if scan_listdir(vfs, norm) else 0
            assert exec_syscall(sb, make_event("rmdir", path)) == expect
        elif op == 7:
            result = exec_syscall(sb, make_event("getdents", path))
            if norm in vfs.children:
                assert sb.last_getdents == scan_listdir(vfs, norm)
                assert result == len(sb.last_getdents)
            else:
                assert result == ENOENT
        elif op == 8:
            sink = VfsSink(vfs, norm)
            sink.emit("rec")
            if sink.dropped:   # a directory or a file in the way
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
                check_invariants(sb.vfs)
                for d in [*sb.vfs.children, *sb.vfs.files, "/none"]:
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
