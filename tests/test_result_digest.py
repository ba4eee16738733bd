"""scripts/result_digest.py: one exact line per benchmark job and per shipped config, and
the comparison of two such outputs."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "result_digest.py"
_spec = importlib.util.spec_from_file_location("result_digest", SCRIPT)
result_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(result_digest)


def test_seed_range():
    assert result_digest.seed_range("3") == [3]
    assert result_digest.seed_range("1-5") == [1, 2, 3, 4, 5]


def test_phase_local_digest_repeats_exactly(tmp_path):
    # a fresh process each: perfbench's oracles module shares its name with
    # the oracles of these tests
    outs = [subprocess.run([sys.executable, str(SCRIPT), "--workload", "phase_local",
                            "--seeds", "1"], cwd=tmp_path, capture_output=True, text=True,
                           check=True).stdout
            for _ in range(2)]
    assert outs[0] == outs[1]
    lines = outs[0].splitlines()
    jobs = [ln for ln in lines if ln.startswith("seed 1 phase_local/")]
    configs = [ln for ln in lines if ln.startswith("config ")]
    assert len(jobs) == 6 and all(" ok (" in ln for ln in jobs)
    assert len(configs) == len(list((ROOT / "configs").glob("*.cfg")))
    assert all(" exit 0 sha256 " in ln for ln in configs)
    assert len(lines) == len(jobs) + len(configs)


_SHA_A, _SHA_B = "b0" * 32, "9f" * 32
_PARENT = f"""\
seed 1 kernel/continuation_count:rank1 ok (1,1,0,((0x1.40ed785d8aee7p-1,1)),(0x1.0p+1,-0x1.8p-1))
seed 1 phase_local/0:square ok (0x1.263778c93521ap+1,0x1.0p+0-0x1.0p+1j,nan,())
seed 1 cli_configs/solve_regular.cfg ok (0,'{_SHA_A}')
config levinson_two_levels.cfg exit 0 sha256 {_SHA_A}
"""


def _compare(tmp_path, change, parent=_PARENT):
    a, b = tmp_path / "parent.txt", tmp_path / "change.txt"
    a.write_text(parent)
    b.write_text(change)
    return subprocess.run([sys.executable, str(SCRIPT), "--compare", str(a), str(b)],
                          capture_output=True, text=True)


def test_compare_reads_the_fingerprint_floats():
    entries = result_digest.parse_digest(_PARENT)
    shape, floats, hashes = entries[("1", "phase_local/0:square")]
    assert shape == "seed 1 phase_local/0:square ok (#,##j,#,())" and hashes == []
    assert floats[:3] == [float.fromhex("0x1.263778c93521ap+1"), 1.0, -2.0]
    assert entries[("levinson_two_levels.cfg",)] == (
        "config levinson_two_levels.cfg exit 0 sha256 @", [], [_SHA_A])
    assert result_digest.relative_move(2.0, 1.0) == 0.5
    assert result_digest.relative_move(float("nan"), float("nan")) == 0.0


def test_compare_prints_the_largest_move_per_line(tmp_path):
    same = _compare(tmp_path, _PARENT)
    assert same.returncode == 0 and "largest relative move over all lines: 0" in same.stdout
    moved = _PARENT.replace("0x1.0p+1,-0x1.8p-1", "0x1.0p+1,-0x1.7p-1").replace(_SHA_A, _SHA_B)
    out = _compare(tmp_path, moved)
    assert out.returncode == 0
    assert "continuation_count:rank1: largest relative move 0.0417 over 3 floats" in out.stdout
    assert ("seed 1 cli_configs/solve_regular.cfg: no move over 0 floats;"
            " output bytes changed (sha256)") in out.stdout
    assert ("config levinson_two_levels.cfg: no move over 0 floats;"
            " output bytes changed (sha256)") in out.stdout


@pytest.mark.parametrize("old, new", [
    (" ok (1,1,0", " FAIL (1,1,0"),                               # a check status
    ("(1,1,0,", "(2,1,0,"),                                       # a count
    ("((0x1.40ed785d8aee7p-1,1))", "((0x1.40ed785d8aee7p-1,-1))"),  # an event's sign
    ("((0x1.40ed785d8aee7p-1,1))", "()"),                         # an event gone
    ("exit 0 sha256", "exit 3 sha256"),                           # an exit code
    ("ok (0,'", "FAIL (3,'"),                                     # a CLI job's exit code
    ("seed 1 phase_local/0:square", "seed 2 phase_local/0:square"),  # a job missing
])
def test_compare_fails_on_anything_but_a_float(tmp_path, old, new):
    assert _compare(tmp_path, _PARENT.replace(old, new)).returncode == 1
