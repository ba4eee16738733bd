"""The mutation sweep of scripts/config_sweep.py over the fast shipped configs.

bound_states_kernel.cfg takes about 0.1 s per run and stays out of Tier-1;
CI runs the whole sweep, all seven configs and every value of
``config_sweep.VALUES``, through the script itself.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("config_sweep", ROOT / "scripts" / "config_sweep.py")
config_sweep = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(config_sweep)

FAST_CONFIGS = config_sweep.shipped(sorted(p for p in (ROOT / "configs").glob("*.cfg")
                                            if p.name != "bound_states_kernel.cfg"))
VALUES = ("0", "-1", "0.5", "nan", "inf", "1e-300", "1e300", "abc", "")


def test_every_mutated_config_ends_with_a_documented_exit(tmp_path):
    runs, failures = config_sweep.sweep(FAST_CONFIGS, VALUES, tmp_path)
    assert failures == []
    keys = sum(len(config_sweep.numeric_keys(text)) for _, text in FAST_CONFIGS)
    assert runs == keys * len(VALUES) and keys >= 40


def test_family_variants_end_with_a_documented_exit(tmp_path):
    # no shipped config uses these families; at width = 1e-300 or r0 = 1e300
    # the gaussian's (r / w) ** 2 raised OverflowError out of the CLI
    variants = config_sweep.family_variants(dict(FAST_CONFIGS)[config_sweep.VARIANT_BASE])
    for (name, text), (family, shape) in zip(variants, config_sweep.FAMILY_VARIANTS):
        assert f"family = {family}\n{shape}\n" in text and family in name
    runs, failures = config_sweep.sweep(variants, VALUES, tmp_path)
    assert failures == []
    assert runs == len(VALUES) * sum(len(config_sweep.numeric_keys(text)) for _, text in variants)


def test_a_traceback_is_a_failure(tmp_path, monkeypatch):
    def broken(argv):
        raise ZeroDivisionError("float division by zero")

    monkeypatch.setattr(config_sweep.cli, "main", broken)
    runs, failures = config_sweep.sweep(FAST_CONFIGS[:1], ("0",), tmp_path)
    assert runs == len(failures) >= 1
    assert all("ZeroDivisionError" in line for line in failures)


def test_mutation_replaces_one_value():
    text = "[scan]\nk_min = 0.1\n# k = 3\nname = gamma\nk_count = 25\n"
    assert config_sweep.numeric_keys(text) == [(1, "k_min"), (4, "k_count")]
    assert config_sweep.mutated(text, 4, "nan") == "[scan]\nk_min = 0.1\n# k = 3\nname = gamma\nk_count = nan\n"
