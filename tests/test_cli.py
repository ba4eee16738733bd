import json
import math
import signal
from pathlib import Path

import numpy as np
import pytest

from qws.cli import main
from qws.config import MAX_COUNT, parse_config, validate
from qws.errors import ConfigError

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

LEVINSON_MIN = """\
[experiment]
version = 1
task = levinson

[channel]
q = {q}
l = {l}

[potential]
family = square_well
depth = 4.0
r0 = {r0}

[tolerances]
ode = 1e-9
"""


@pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.cfg")),
                         ids=lambda p: p.name)
def test_shipped_configs_validate_clean(path):
    cfg = parse_config(path)
    assert validate(cfg) == []


def test_unknown_key_rejected():
    text = LEVINSON_MIN.format(q=3, l=0, r0=1.0) + "\n[scan]\nbogus_key = 1\n"
    diags = validate(parse_config(text))
    assert any("bogus_key" in d for d in diags)


def test_unknown_section_rejected():
    text = LEVINSON_MIN.format(q=3, l=0, r0=1.0) + "\n[mystery]\nx = 1\n"
    diags = validate(parse_config(text))
    assert any("mystery" in d for d in diags)


def test_version_mandatory():
    with pytest.raises(ConfigError):
        parse_config("[experiment]\ntask = levinson\n")


def test_degenerate_channel_diagnosed():
    diags = validate(parse_config(LEVINSON_MIN.format(q=2, l=0, r0=1.0)))
    assert any("lambda = 0" in d for d in diags)


def test_negative_r0_diagnosed():
    diags = validate(parse_config(LEVINSON_MIN.format(q=3, l=0, r0=-1.0)))
    assert any("r0" in d for d in diags)


def test_kernel_support_diagnosed():
    text = LEVINSON_MIN.format(q=3, l=0, r0=1.0) + (
        "\n[kernel.1]\nfamily = gaussian_bump\ncenter = 0.95\nwidth = 0.4\n"
        "strength = -1.0\n")
    diags = validate(parse_config(text))
    assert any("support" in d for d in diags)


def test_all_diagnostics_reported_at_once():
    text = """\
[experiment]
version = 1
task = levinson

[channel]
q = 2
l = 0

[potential]
family = square_well
depth = 1.0
r0 = -2.0

[scan]
bogus = 1
"""
    diags = validate(parse_config(text))
    assert len(diags) >= 3


def test_eval_special_gamma(tmp_path):
    out = tmp_path / "g.json"
    rc = main(["eval-special", "--config", str(CONFIG_DIR / "eval_gamma.cfg"),
               "--out", str(out), "--no-metadata"])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert abs(doc["value"] - 1.7724538509) <= 1e-9


def test_task_subcommand_mismatch(tmp_path):
    rc = main(["levinson", "--config", str(CONFIG_DIR / "eval_gamma.cfg"),
               "--out", str(tmp_path / "x.json")])
    assert rc == 2


def test_invalid_config_exit_code(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text(LEVINSON_MIN.format(q=2, l=0, r0=1.0))
    rc = main(["levinson", "--config", str(bad), "--out", str(tmp_path / "o.json")])
    assert rc == 2


def test_levinson_json_two_level_well(tmp_path):
    out = tmp_path / "lev.json"
    rc = main(["levinson", "--config",
               str(CONFIG_DIR / "levinson_two_levels.cfg"),
               "--out", str(out), "--no-metadata"])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["pass"] is True
    assert doc["n"] == 2
    assert abs(doc["eta0"] - 2 * math.pi) <= 1e-2


def test_solve_csv_columns(tmp_path):
    out = tmp_path / "sol.csv"
    rc = main(["solve", "--config", str(CONFIG_DIR / "solve_regular.cfg"),
               "--out", str(out), "--no-metadata"])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "r,re_y,im_y,re_dy,im_dy"
    assert len(lines) > 200


def test_deterministic_output(tmp_path):
    texts = []
    for tag in ("a", "b"):
        out = tmp_path / f"st_{tag}.csv"
        rc = main(["sturm-check", "--config",
                   str(CONFIG_DIR / "sturm_square_well.cfg"),
                   "--out", str(out), "--no-metadata"])
        assert rc == 0
        texts.append(out.read_text())
    assert texts[0] == texts[1]


def test_metadata_block_toggles(tmp_path):
    out = tmp_path / "g.json"
    main(["eval-special", "--config", str(CONFIG_DIR / "eval_gamma.cfg"),
          "--out", str(out)])
    assert "metadata" in json.loads(out.read_text())
    main(["eval-special", "--config", str(CONFIG_DIR / "eval_gamma.cfg"),
          "--out", str(out), "--no-metadata"])
    assert "metadata" not in json.loads(out.read_text())


def test_wronskian_audit_reports(tmp_path):
    out = tmp_path / "w.json"
    rc = main(["wronskian-audit", "--config",
               str(CONFIG_DIR / "wronskian_jost.cfg"),
               "--out", str(out), "--no-metadata"])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert len(doc["reports"]) == 9
    assert all(r["pass"] for r in doc["reports"])


def test_bound_states_kernel_config(tmp_path):
    out = tmp_path / "bs.json"
    rc = main(["bound-states", "--config",
               str(CONFIG_DIR / "bound_states_kernel.cfg"),
               "--out", str(out), "--no-metadata"])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["count"] == 1
    assert doc["levels"][0]["E"] < 0


@pytest.mark.parametrize("root", ["1e-17", "1e-300"])
def test_root_tolerance_below_the_float_spacing(tmp_path, root):
    # 1e-17 ran until killed, its trial energy clamped onto one end of a
    # bracket one double wide, and 1e-300 exited 1 with an OverflowError
    # traceback; the level now closes on adjacent doubles
    cfg = tmp_path / "bs.cfg"
    cfg.write_text((CONFIG_DIR / "bound_states_kernel.cfg").read_text()
                   + f"\n[tolerances]\nroot = {root}\n")

    def expire(signum, frame):
        raise TimeoutError("bound-states still running after 10 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 10.0)
    try:
        rcs = [main(["bound-states", "--config", str(path), "--out", str(tmp_path / name),
                     "--no-metadata"])
               for path, name in ((cfg, "tight.json"),
                                  (CONFIG_DIR / "bound_states_kernel.cfg", "default.json"))]
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    assert rcs == [0, 0]
    tight, default = (json.loads((tmp_path / name).read_text())["levels"]
                      for name in ("tight.json", "default.json"))
    assert len(tight) == len(default) == 1
    assert abs(tight[0]["E"] - default[0]["E"]) <= 1e-10 * abs(default[0]["E"])


def test_numeric_failure_exit_code(tmp_path):
    cfg = tmp_path / "bad_eval.cfg"
    cfg.write_text("""\
[experiment]
version = 1
task = eval-special

[scan]
name = bessel_j
nu = 60
x = 1.0
""")
    rc = main(["eval-special", "--config", str(cfg),
               "--out", str(tmp_path / "o.json"), "--no-metadata"])
    assert rc == 3


@pytest.mark.parametrize("name, value, derivative", [
    ("bessel_i", math.inf, math.inf), ("bessel_k", 0.0, 0.0)])
def test_modified_bessel_beyond_the_exp_range(tmp_path, name, value, derivative):
    # at x = 800 e^x overflows: I and I' read inf, K and K' underflow to 0;
    # I' was unscaled with a bare math.exp, and OverflowError escaped (exit 1)
    cfg = tmp_path / "big_x.cfg"
    cfg.write_text(f"""\
[experiment]
version = 1
task = eval-special

[scan]
name = {name}
nu = 1
x = 800
""")
    out = tmp_path / "o.json"
    rc = main(["eval-special", "--config", str(cfg), "--out", str(out), "--no-metadata"])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["value"] == value and doc["derivative"] == derivative


def test_unsupported_format_rejected(tmp_path):
    rc = main(["levinson", "--config", str(CONFIG_DIR / "levinson_two_levels.cfg"),
               "--out", str(tmp_path / "o.csv"), "--format", "csv"])
    assert rc == 2


def test_json_rows_format(tmp_path):
    out = tmp_path / "st.json"
    rc = main(["sturm-check", "--config", str(CONFIG_DIR / "sturm_square_well.cfg"),
               "--out", str(out), "--no-metadata", "--format", "json"])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert len(doc["rows"]) == 20
    assert "slope_interior_fd" in doc["rows"][0]


def test_tabulated_potential_roundtrip(tmp_path):
    # tabulate the square well on a grid; phases must track the closed form
    import numpy as np
    table = tmp_path / "well.csv"
    rows = ["r,V"] + [f"{r},{-4.0}" for r in np.linspace(0.01, 1.0, 50)]
    table.write_text("\n".join(rows) + "\n")
    cfg = tmp_path / "tab.cfg"
    cfg.write_text(f"""\
[experiment]
version = 1
task = phase-shift

[channel]
q = 3
l = 0

[potential]
family = tabulated
table = {table}
r0 = 1.0

[scan]
k_min = 0.5
k_max = 2.0
k_count = 4
mu = 1.0
mu_steps = 0
""")
    out = tmp_path / "ps.csv"
    rc = main(["phase-shift", "--config", str(cfg), "--out", str(out),
               "--no-metadata"])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 5
    for line in lines[1:]:
        k, _, eta_raw = (float(x) for x in line.split(",")[:3])
        kp = math.sqrt(k * k + 4.0)
        ref = math.atan(k / kp * math.tan(kp)) - k
        assert abs((eta_raw - ref + math.pi / 2) % math.pi - math.pi / 2) <= 1e-6


def test_inconclusive_exit_code(tmp_path, monkeypatch):
    import qws.cli as cli_mod
    from qws.spectral import LevinsonReport

    def fake(*a, **k):
        return LevinsonReport(eta0=float("nan"), n_direct=-1, n_continuation=-1,
                              status="inconclusive", reason="synthetic")

    monkeypatch.setattr(cli_mod, "levinson_verify", fake)
    rc = main(["levinson", "--config", str(CONFIG_DIR / "levinson_two_levels.cfg"),
               "--out", str(tmp_path / "o.json"), "--no-metadata"])
    assert rc == 4


def _staircase_config(tmp_path):
    stair = tmp_path / "stairs.csv"
    cfg = tmp_path / "lev.cfg"
    cfg.write_text(f"""\
[experiment]
version = 1
task = levinson

[channel]
q = 3
l = 0

[potential]
family = square_well
depth = 4.0
r0 = 1.0

[tolerances]
ode = 1e-9

[output]
staircase = {stair}
""")
    return cfg, stair


def test_levinson_staircase_csv(tmp_path):
    cfg, stair = _staircase_config(tmp_path)
    rc = main(["levinson", "--config", str(cfg),
               "--out", str(tmp_path / "lev.json"), "--no-metadata"])
    assert rc == 0
    lines = stair.read_text().splitlines()
    assert lines[0] == "mu,A_threshold,eta0_staircase"
    assert len(lines) == 202
    # staircase ends at pi for the one-level well
    assert abs(float(lines[-1].split(",")[2]) - math.pi) <= 1e-12


def test_levinson_staircase_reuses_the_census(tmp_path, monkeypatch):
    import qws.cli as cli
    import qws.spectral as sp
    from qws.cli import write_csv
    from qws.model import ChannelParams
    from qws.potentials import PotentialModel, square_well

    real = sp.continuation_count
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(sp, "continuation_count", counted)
    # also catch a census the CLI might run on its own
    monkeypatch.setattr(cli, "continuation_count", counted, raising=False)
    cfg, stair = _staircase_config(tmp_path)
    rc = main(["levinson", "--config", str(cfg),
               "--out", str(tmp_path / "lev.json"), "--no-metadata"])
    assert rc == 0
    assert len(calls) == 1
    # byte-identical to a census run on its own
    cont = real(ChannelParams(q=3, l=0), PotentialModel(r0=1.0, local=square_well(4.0)),
                tol=1e-9)
    expected = tmp_path / "expected.csv"
    write_csv(expected, ["mu", "A_threshold", "eta0_staircase"],
              zip(cont.mu_grid, cont.A_samples, cont.eta0_staircase), None)
    assert stair.read_bytes() == expected.read_bytes()


PHASE_MIN = """\
[experiment]
version = 1
task = phase-shift

[channel]
q = 3
l = 0

[potential]
family = square_well
depth = 4.0
r0 = 1.0

[scan]
{scan}
"""


@pytest.mark.parametrize("scan", [
    "k = nan",
    "k = inf",
    "k_min = nan\nk_max = 2.0",
    "k_min = 0.5\nk_max = inf",
    "k = 1.0\nmu = -inf",
], ids=["k-nan", "k-inf", "k_min-nan", "k_max-inf", "mu-inf"])
def test_non_finite_phase_scan_rejected(scan):
    diags = validate(parse_config(PHASE_MIN.format(scan=scan)))
    assert any("must be finite" in d for d in diags)


def test_non_finite_k_exits_as_config_error(tmp_path):
    cfg = tmp_path / "nan.cfg"
    cfg.write_text(PHASE_MIN.format(scan="k_min = nan\nk_max = 2.0\nk_count = 3"))
    rc = main(["phase-shift", "--config", str(cfg),
               "--out", str(tmp_path / "o.csv"), "--no-metadata"])
    assert rc == 2


BOUND_MIN = """\
[experiment]
version = 1
task = bound-states

[channel]
q = {q}
l = 1

[potential]
r0 = {r0}
{potential}
{kernel}
"""
KERNEL_BUMP = "[kernel.1]\nfamily = gaussian_bump\ncenter = 0.5\nwidth = 0.15\n"
WELL = "family = square_well\ndepth = 4.0"


MALFORMED = [
    ("family = square_well", "", "missing 'depth'"),
    ("family = square_well\ndepth = abc", "", "depth must be numeric"),
    ("family = truncated_gaussian\ndepth = 4.0", "", "missing 'width'"),
    ("family = tabulated", "", "missing 'table'"),
    ("family = none\nmu = one", "", "mu must be numeric"),
    ("family = none", KERNEL_BUMP + "strength = x", "strength must be numeric"),
    ("family = none", KERNEL_BUMP + "strength = -700\nheight = tall",
     "height must be numeric"),
    ("family = none", "[kernel.1]\nfamily = poly_bump\na = 2\nstrength = -5",
     "missing 'b'"),
    ("family = none", "[kernel.1]\nfamily = poly_bump\na = 2\nb = 0\nstrength = -5",
     "b > 0"),
    ("family = none", KERNEL_BUMP + "strength = -700\n[grid]\nn_interior = many",
     "n_interior must be numeric"),
    ("family = none", "[scan]\nlambdas = 0.5 x", "lambdas must be a list of numbers"),
    ("family = none", "[scan]\nks = 1 two", "ks must be a list of numbers"),
    (WELL, "[grid]\nr_min = 0", "r_min must be positive"),
    (WELL, "[grid]\nr_min = 2.0", "r_min must be below r0"),
    (WELL, "[grid]\nr_max = 0.5", "r_max must be at least r0"),
    (WELL, "[grid]\nn_interior = 3", "n_interior must be >= 5"),
    (WELL, "[grid]\nn_exterior = 1", "n_exterior must be >= 2"),
    (WELL, "[grid]\nn_interior = nan", "n_interior must be finite"),
    ("family = none\nmu = nan", "", "mu must be finite"),
    ("family = square_well\ndepth = inf", "", "depth must be finite"),
    ("family = none", KERNEL_BUMP + "strength = nan", "strength must be finite"),
    ("family = none", "[scan]\nk_min = 0.1", "k_min and k_max must be given together"),
    ("family = none", "[scan]\ne_min = -3", "e_min and e_max must be given together"),
    (WELL, "[tolerances]\nroot = 0", "root must be positive"),
    # the last two fields replace the template's q = 3 and r0 = 1.0
    (WELL, "", "q must be finite", "nan", "1.0"),
    (WELL, "", "r0 must be finite", "3", "inf"),
]


@pytest.mark.parametrize("potential, kernel, message, q, r0",
                         [case + ("3", "1.0")[len(case) - 3:] for case in MALFORMED],
                         ids=["depth-missing", "depth-abc", "width-missing", "table-missing",
                              "mu-word", "strength-x", "height-word", "poly-b-missing",
                              "poly-b-zero", "grid-word", "lambdas-word", "ks-word",
                              "r_min-zero", "r_min-above-r0", "r_max-below-r0",
                              "n_interior-3", "n_exterior-1", "n_interior-nan", "mu-nan",
                              "depth-inf", "strength-nan", "k_min-alone", "e_min-alone", "root-tol-zero",
                              "q-nan", "r0-inf"])
def test_malformed_family_parameters_exit_as_config_error(tmp_path, capsys, potential,
                                                          kernel, message, q, r0):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(BOUND_MIN.format(potential=potential, kernel=kernel, q=q, r0=r0))
    rc = main(["bound-states", "--config", str(cfg),
               "--out", str(tmp_path / "o.json"), "--no-metadata"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config: ") and message in err


@pytest.mark.parametrize("config, line, message", [
    ("sturm_square_well.cfg", "de = 0", "de must be positive"),
    ("sturm_square_well.cfg", "de = -1e-4", "de must be positive"),
    ("bound_states_kernel.cfg", "e_floor = 5", "e_floor must be negative"),
    ("bound_states_kernel.cfg", "e_floor = 0", "e_floor must be negative"),
], ids=["de-zero", "de-negative", "e_floor-positive", "e_floor-zero"])
def test_scan_step_and_floor_exit_as_config_error(tmp_path, capsys, config, line, message):
    # de = 0 ended in a ZeroDivisionError traceback, e_floor >= 0 in a numeric error
    text = (CONFIG_DIR / config).read_text()
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text.replace("[scan]\n", f"[scan]\n{line}\n"))
    task = parse_config(cfg).task
    rc = main([task, "--config", str(cfg), "--out", str(tmp_path / "o.csv"), "--no-metadata"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config: ") and message in err



@pytest.mark.parametrize("steps", ["-5", "-200", "-0.5"])
def test_negative_mu_steps_exits_as_config_error(tmp_path, capsys, steps):
    # a negative mu_steps was read as its absolute value
    text = (CONFIG_DIR / "phase_shift_square_well.cfg").read_text()
    assert "mu_steps = 200\n" in text
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text.replace("mu_steps = 200\n", f"mu_steps = {steps}\n"))
    rc = main(["phase-shift", "--config", str(cfg), "--out", str(tmp_path / "o.csv"),
               "--no-metadata"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config: ") and "mu_steps must be >= 0" in err


@pytest.mark.parametrize("old, new", [
    ("[scan]\n", "[scan]\nde = 0.5\n"),
    ("e_max = -0.1\n", "e_max = -0.00005\n"),
], ids=["de-past-threshold", "default-step-past-threshold"])
def test_sturm_stencil_past_threshold_exits_as_config_error(tmp_path, capsys, old, new):
    # a stencil E + dE >= 0 ended as a numeric QwsError (exit 3)
    text = (CONFIG_DIR / "sturm_square_well.cfg").read_text()
    assert old in text
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text.replace(old, new))
    rc = main(["sturm-check", "--config", str(cfg), "--out", str(tmp_path / "o.csv"),
               "--no-metadata"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config: ") and "needs E + dE < 0" in err


COUNT_CASES = [
    ("phase_shift_square_well.cfg", "k_count", "nan", "k_count must be finite"),
    ("phase_shift_square_well.cfg", "k_count", "inf", "k_count must be finite"),
    ("phase_shift_square_well.cfg", "k_count", "-inf", "k_count must be finite"),
    ("phase_shift_square_well.cfg", "k_count", "2.5", "k_count must be an integer"),
    ("phase_shift_square_well.cfg", "mu_steps", "0.5", "mu_steps must be an integer"),
    ("phase_shift_square_well.cfg", "mu_steps", "2.5", "mu_steps must be an integer"),
    ("sturm_square_well.cfg", "e_count", "nan", "e_count must be finite"),
    ("sturm_square_well.cfg", "e_count", "inf", "e_count must be finite"),
    ("sturm_square_well.cfg", "e_count", "2.5", "e_count must be an integer"),
    ("solve_regular.cfg", "n_interior", "200.5", "n_interior must be an integer"),
    ("solve_regular.cfg", "n_exterior", "40.5", "n_exterior must be an integer"),
]


@pytest.mark.parametrize("config, key, value, message", COUNT_CASES,
                         ids=[f"{key}={value}" for _, key, value, _ in COUNT_CASES])
def test_non_integer_counts_exit_as_config_error(tmp_path, capsys, config, key, value, message):
    # nan and inf raised ValueError or OverflowError inside validate, and a
    # fraction was truncated (mu_steps = 0.5 asked for the principal value)
    text = (CONFIG_DIR / config).read_text()
    old = next(line for line in text.splitlines() if line.startswith(f"{key} = "))
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text.replace(old + "\n", f"{key} = {value}\n"))
    task = parse_config(cfg).task
    rc = main([task, "--config", str(cfg), "--out", str(tmp_path / "o.csv"), "--no-metadata"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config: ") and message in err


@pytest.mark.parametrize("key, value", [
    ("lambdas", "0.5 nan"), ("lambdas", "inf"), ("lambdas", "1.5 -inf 2.5"),
    ("ks", "nan"), ("ks", "inf"), ("ks", "0.5 1 -inf"),
], ids=["lambdas-nan", "lambdas-inf", "lambdas--inf", "ks-nan", "ks-inf", "ks--inf"])
def test_non_finite_audit_lists_exit_as_config_error(tmp_path, capsys, key, value):
    # each entry was checked only to parse as a number: nan ended in exit 3 with
    # a step size underflow, lambdas = inf in exit 3 with an r_min error
    text = (CONFIG_DIR / "wronskian_jost.cfg").read_text()
    old = next(line for line in text.splitlines() if line.startswith(f"{key} = "))
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text.replace(old + "\n", f"{key} = {value}\n"))
    rc = main(["wronskian-audit", "--config", str(cfg), "--out", str(tmp_path / "o.csv"),
               "--no-metadata"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config: ") and f"[scan] {key} must be finite" in err


HUGE_COUNT_CASES = [
    ("phase_shift_square_well.cfg", "k_count", "1e300"),
    ("phase_shift_square_well.cfg", "k_count", "1000001"),
    ("phase_shift_square_well.cfg", "mu_steps", "1e300"),
    ("sturm_square_well.cfg", "e_count", "1e300"),
    ("solve_regular.cfg", "n_interior", "1e300"),
    ("solve_regular.cfg", "n_exterior", "1e300"),
]


@pytest.mark.parametrize("config, key, value", HUGE_COUNT_CASES,
                         ids=[f"{key}={value}" for _, key, value in HUGE_COUNT_CASES])
def test_oversized_counts_exit_as_config_error(tmp_path, capsys, monkeypatch, config, key,
                                               value):
    # k_count = 1e300 ended in ValueError: Maximum allowed size exceeded from
    # np.linspace; nothing of the asked size may be allocated on the way to exit 2
    linspace = np.linspace

    def bounded(start, stop, num=50, *args, **kwargs):
        assert num <= MAX_COUNT, f"np.linspace asked for {num} points"
        return linspace(start, stop, num, *args, **kwargs)

    monkeypatch.setattr(np, "linspace", bounded)
    text = (CONFIG_DIR / config).read_text()
    old = next(line for line in text.splitlines() if line.startswith(f"{key} = "))
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text.replace(old + "\n", f"{key} = {value}\n"))
    rc = main([parse_config(cfg).task, "--config", str(cfg), "--out", str(tmp_path / "o.csv"),
               "--no-metadata"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config: ") and f"{key} must be at most {MAX_COUNT}" in err


@pytest.mark.parametrize("config, old, new, message", [
    ("solve_regular.cfg", "r0 = 1.0\n", "r0 = 1e-300\n", "r0 = 1e-300 is too small"),
    ("solve_regular.cfg", "r0 = 1.0\n", "r0 = 1e-150\n", "r0 = 1e-150 is too small"),
    ("wronskian_jost.cfg", "r0 = 1.0\n", "r0 = 1e-300\n", "r0 = 1e-300 is too small"),
    ("solve_regular.cfg", "[grid]\n", "[grid]\nr_min = 1e-300\n", "r_min = 1e-300 is too small"),
], ids=["solve-r0", "solve-r0-subnormal", "wronskian-r0", "solve-grid-r_min"])
def test_underflowing_origin_exits_as_config_error(tmp_path, capsys, config, old, new,
                                                    message):
    # r * r underflowed near r_min = 1e-6 r0, and Q(r) = ... / (r * r) raised
    # ZeroDivisionError; at r0 = 1e-150 the square is subnormal and 1/r^2 is inf
    text = (CONFIG_DIR / config).read_text()
    assert old in text
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text.replace(old, new))
    task = parse_config(cfg).task
    rc = main([task, "--config", str(cfg), "--out", str(tmp_path / "o.csv"), "--no-metadata"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config: ") and message in err
    assert "1/r^2 overflows" in err
