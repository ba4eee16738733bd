"""The mutation sweep of scripts/config_sweep.py over the fast shipped configs.

bound_states_kernel.cfg takes about 0.1 s per run and stays out of Tier-1
but for the value 1e300 and its ``[tolerances] root`` variant; CI runs the
whole sweep, all seven configs and every value of ``config_sweep.VALUES``,
through the script itself.
"""

import importlib.util
import signal
import time
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


def test_kernel_config_at_1e300_leaks_no_runtime_warning(tmp_path):
    # 1e300 on q, l, strength or mu of the kernel config drove NaN and inf
    # through the lanes and the series, and 10-111 numpy warnings escaped
    kernel = config_sweep.shipped([ROOT / "configs" / "bound_states_kernel.cfg"])
    runs, failures = config_sweep.sweep(kernel, ("1e300",), tmp_path)
    assert failures == [] and runs >= 6


def test_a_traceback_is_a_failure(tmp_path, monkeypatch):
    def broken(argv):
        raise ZeroDivisionError("float division by zero")

    monkeypatch.setattr(config_sweep.cli, "main", broken)
    runs, failures = config_sweep.sweep(FAST_CONFIGS[:1], ("0",), tmp_path)
    assert runs == len(failures) >= 1
    assert all("ZeroDivisionError" in line for line in failures)


def test_a_runtime_warning_is_a_failure(tmp_path, monkeypatch):
    def noisy(argv):
        import numpy as np
        np.array([1e300]) * 1e300   # overflow: numpy warns and carries on
        return 0

    monkeypatch.setattr(config_sweep.cli, "main", noisy)
    runs, failures = config_sweep.sweep(FAST_CONFIGS[:1], ("0",), tmp_path)
    assert runs == len(failures) >= 1
    assert all("RuntimeWarning" in line and "overflow" in line for line in failures)


def test_mutation_replaces_one_value():
    text = "[scan]\nk_min = 0.1\n# k = 3\nname = gamma\nk_count = 25\n"
    assert config_sweep.numeric_keys(text) == [(1, "k_min"), (4, "k_count")]
    assert config_sweep.mutated(text, 4, "nan") == "[scan]\nk_min = 0.1\n# k = 3\nname = gamma\nk_count = nan\n"


def test_bessel_variants_end_with_their_exit(tmp_path):
    # eval-special variants of the gamma config for J, Y, I and K, nu and x
    # through every value: 26 runs exit 0, 22 exit 3 (envelope, overflow at
    # x -> 0) and 40 exit 2 (no finite number)
    gamma = dict(config_sweep.shipped([ROOT / "configs" / config_sweep.SPECIAL_BASE]))
    variants = config_sweep.special_variants(gamma[config_sweep.SPECIAL_BASE])
    assert [name for name, _ in variants] == [f"eval_gamma.cfg[{fn}]"
                                              for fn in config_sweep.SPECIAL_FUNCTIONS]
    runs, failures = config_sweep.sweep(variants, config_sweep.VALUES, tmp_path,
                                        expected_exit=config_sweep.special_exit,
                                        keys=("nu", "x"))
    assert failures == [] and runs == 88
    codes = [config_sweep.special_exit(name, key, value) for name, _ in variants
             for key in ("nu", "x") for value in config_sweep.VALUES]
    assert (codes.count(0), codes.count(3), codes.count(2)) == (26, 22, 40)


def test_a_wrong_exit_of_a_bessel_variant_is_a_failure(tmp_path, monkeypatch):
    # a Bessel variant that exits 3 where it should run is a failure, though 3 is documented
    monkeypatch.setattr(config_sweep.cli, "main", lambda argv: 3)
    gamma = dict(config_sweep.shipped([ROOT / "configs" / config_sweep.SPECIAL_BASE]))
    variants = config_sweep.special_variants(gamma[config_sweep.SPECIAL_BASE])
    runs, failures = config_sweep.sweep(variants[:1], ("0.5",), tmp_path,
                                        expected_exit=config_sweep.special_exit,
                                        keys=("nu", "x"))
    assert runs == 2 and len(failures) == 2
    assert all("exit 3 (expected 0)" in line for line in failures)


def test_root_tolerance_variant_ends_with_a_documented_exit(tmp_path):
    # [tolerances] root of the kernel config over every value and 1e-17:
    # 1e-17 ran until killed and 1e-300 raised an OverflowError out of the CLI
    kernel = dict(config_sweep.shipped([ROOT / "configs" / config_sweep.ROOT_BASE]))
    variants = config_sweep.root_variant(kernel[config_sweep.ROOT_BASE])
    assert [name for name, _ in variants] == [f"{config_sweep.ROOT_BASE}[root]"]
    assert variants[0][1].endswith("\n[tolerances]\nroot = 1e-10\n")
    runs, failures = config_sweep.sweep(variants, config_sweep.ROOT_VALUES, tmp_path,
                                        keys=("root",))
    assert failures == [] and runs == len(config_sweep.VALUES) + 1


def test_a_hang_is_a_failure(tmp_path, monkeypatch):
    # the timer stops a run in process; the next run starts with no timer left
    def hang(argv):
        while True:
            time.sleep(1.0)

    monkeypatch.setattr(config_sweep.cli, "main", hang)
    monkeypatch.setattr(config_sweep, "TIME_LIMIT_S", 0.05)
    handler = signal.getsignal(signal.SIGALRM)
    runs, failures = config_sweep.sweep(FAST_CONFIGS[:1], ("0",), tmp_path)
    assert runs == len(failures) >= 1
    assert all("timeout: still running after 0.05 s" in line for line in failures)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is handler
