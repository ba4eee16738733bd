"""scripts/result_digest.py: one exact line per benchmark job and per shipped config."""

import importlib.util
import subprocess
import sys
from pathlib import Path

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
