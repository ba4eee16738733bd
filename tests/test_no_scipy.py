"""The package runs with scipy refused: importing qws loads numpy and nothing heavier.

scipy stays a test and reference dependency (the oracles of tests/ and
perfbench/); the library itself computes its special functions.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# run from the checkout's root: the benchmark worker's set-up imports qws from ./src
SCRIPT = r"""
import importlib.abc
import json
import sys
from pathlib import Path


class RefuseScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"import of {name} refused")
        return None


sys.meta_path.insert(0, RefuseScipy())
sys.path.insert(0, "perfbench")
import worker

worker.setup()          # import qws, then one warm-up phase shift
from qws import cli
from qws.config import parse_config

codes = {}
for cfg in sorted(Path("configs").glob("*.cfg")):
    out = Path(sys.argv[1]) / (cfg.stem + ".out")
    codes[cfg.name] = cli.main([parse_config(cfg).task, "--config", str(cfg),
                                "--out", str(out), "--no-metadata"])
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps({"codes": codes, "scipy": loaded}))
"""


def test_warm_up_and_every_shipped_config_run_with_scipy_refused(tmp_path):
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert doc["scipy"] == []
    shipped = sorted(p.name for p in (ROOT / "configs").glob("*.cfg"))
    assert doc["codes"] == dict.fromkeys(shipped, 0)
