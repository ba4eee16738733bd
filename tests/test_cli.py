import json
import math
from pathlib import Path

import pytest

from qws.cli import main
from qws.config import parse_config, validate
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


def test_threads_preserve_order(tmp_path):
    out1 = tmp_path / "t1.csv"
    out2 = tmp_path / "t4.csv"
    main(["sturm-check", "--config", str(CONFIG_DIR / "sturm_square_well.cfg"),
          "--out", str(out1), "--no-metadata", "--threads", "1"])
    main(["sturm-check", "--config", str(CONFIG_DIR / "sturm_square_well.cfg"),
          "--out", str(out2), "--no-metadata", "--threads", "4"])
    assert out1.read_text() == out2.read_text()


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


def test_threads_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("QWS_THREADS", "2")
    out = tmp_path / "st.csv"
    rc = main(["sturm-check", "--config", str(CONFIG_DIR / "sturm_square_well.cfg"),
               "--out", str(out), "--no-metadata"])
    assert rc == 0


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
