"""Golden replay digests: `apate compile` and `apate run` on the
perfbench/gen.py inputs of every workload at seeds 1-3 write these exact
bytes.  A change that alters behaviour on purpose updates the digests
and says which and why; a refactor leaves them as they are.
"""

import hashlib
import re
from pathlib import Path

import pytest

from apate import cli

# (workload, seed) -> (sha256 of the .apc, sha256 of the report)
GOLDEN = {
    ("guard-heavy", 1): (
        "058c9c942213853abba12667c8281871f5c12f9cce5bd68da1f2e37eb91679cd",
        "4fbd352fab689ca038e51819b3f21ff5bd2712b7c9f19d6d02f828d63049cb9a"),
    ("guard-heavy", 2): (
        "ae94e7852d56ac0e3b7460b9be821bdfd4a9d8838e110a8650584d36af62f1c8",
        "5afb18e95ae752e1ddd484ab0dbc86335f512778fe080cb53aef9aefd7bca355"),
    ("guard-heavy", 3): (
        "c9570e65f09ae7dc20c5da83acf4e113e1a5be0aaccd7db8165bdfeb707054d3",
        "db6f79120b591c739805d143b5e8490ea4dfe52f75780af210ec2f3140a3e653"),
    ("honeypot-mix", 1): (
        "b10a4409f565865238d31d94b15b17409712d75e7313d5caff5073087bc9f357",
        "926c5aeb6de3392147ceb1b44a91283842d07975e5144be1af3bed3124c3366d"),
    ("honeypot-mix", 2): (
        "b10a4409f565865238d31d94b15b17409712d75e7313d5caff5073087bc9f357",
        "d31046552ea51db5c9d87d881c7ea8e1ac3d9a775620dfa6625911038ddd2d89"),
    ("honeypot-mix", 3): (
        "b10a4409f565865238d31d94b15b17409712d75e7313d5caff5073087bc9f357",
        "44d008ceacb88443c1c01f3d62622c77df1657c0558836284ab74f562469f021"),
    ("bulk-copy", 1): (
        "b4de323c83b304c2f07046c5933d725f94c859881aaad0837943def382290b5a",
        "2c65ec5da94570d70ce14b35cb72594f314d8d7936fff8c8299730e3b7162f4c"),
    ("bulk-copy", 2): (
        "b4de323c83b304c2f07046c5933d725f94c859881aaad0837943def382290b5a",
        "890d003cfc29f2c3dedc137c7f773b2e39f5cf7c55add08b2fc0b1692baf0382"),
    ("bulk-copy", 3): (
        "b4de323c83b304c2f07046c5933d725f94c859881aaad0837943def382290b5a",
        "3190b6ce8d31e8ea636b4e12b813ad5d6043c93b37bee44c6eae20f73ccaa1ac"),
}


def _report_digest(workload, raw: bytes) -> str:
    if workload == "honeypot-mix":
        # A cloaked run logs into the VFS with wall-clock times, so its
        # vfs_digest differs between any two runs; every other byte must
        # not, so only that value is masked.
        raw, n = re.subn(rb'(?<="vfs_digest": ")[0-9a-f]{64}(?=")',
                         b"0" * 64, raw)
        assert n == 1
    return hashlib.sha256(raw).hexdigest()


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("workload",
                         ["guard-heavy", "honeypot-mix", "bulk-copy"])
def test_run_writes_golden_bytes(workload, seed, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    import gen
    monkeypatch.chdir(tmp_path)   # .apc spans hold the source path
    inputs = gen.generate(workload, seed, ".")
    assert cli.main(["compile", inputs.source, "-o", "program.apc"]) == 0
    flags = [flag.replace("{dir}", ".") for flag in inputs.run_flags]
    assert cli.main(["run", "--program", "program.apc", "--trace",
                     inputs.trace, "--fs", inputs.manifest, *flags,
                     "--report", "report.json"]) == 0
    got = (hashlib.sha256(Path("program.apc").read_bytes()).hexdigest(),
           _report_digest(workload, Path("report.json").read_bytes()))
    assert got == GOLDEN[workload, seed]
