import hashlib
import inspect
import json
import math
import re
from pathlib import Path

import pytest
from click.testing import CliRunner

from sotlab import (acceptance, dist_core, divergences, experiments,
                    transport)
from sotlab.cli import main

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture()
def runner():
    return CliRunner()


def write_cfg(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def test_missing_config_exits_2(runner):
    res = runner.invoke(main, ["w2"])
    assert res.exit_code == 2
    assert "--config" in res.output


def test_nonexistent_config_exits_2(runner, tmp_path):
    res = runner.invoke(main, ["w2", "--config", str(tmp_path / "nope.json")])
    assert res.exit_code == 2


def test_bad_field_type_exits_2(runner, tmp_path):
    cfg = write_cfg(tmp_path, "c.json",
                    {"A": {"family": "two_point", "h": "oops", "K": 1.0},
                     "B": {"family": "two_point", "h": 2.0, "K": 1.0}})
    res = runner.invoke(main, ["w2", "--config", cfg])
    assert res.exit_code == 2
    assert "A.h" in res.output


ATOMS = {"atoms": [{"x": 0.0, "logw": 0.0}]}
TWO_POINT = {"family": "two_point", "h": 2.0, "K": 2.0}


@pytest.mark.parametrize("command, cfg, field", [
    ("w2", {"A": ATOMS, "B": ATOMS, "sigmaa": 3.0}, "sigmaa"),
    ("w2", {"A": {**TWO_POINT, "sigma": 2.0}, "B": ATOMS}, "A.sigma"),
    ("w2", {"A": ATOMS, "B": {**ATOMS, "K": 2.0}}, "B.K"),
    ("construct", {"family": "chi2_hard", "K": 2.0, "k_max": 3, "h": 1.0},
     "<root>.h"),
    ("construct", {"family": "w2_schedule", "K": 2.0, "k_max": 3, "c": 1.0},
     "<root>.c"),
    ("mi-probe", {"dist": TWO_POINT, "kind": "chi2", "radius": 5.0},
     "radius"),
    # the MI covers the whole line: a radius is not a setting
    ("mi-probe", {"dist": {"family": "two_point", "h": 4.0, "K": 2.0},
                  "kind": "chi2", "truncation_radius": 0},
     "truncation_radius"),
    ("mi-probe", {"dist": {"family": "chi2_hard", "K": 2.0, "k_max": 10},
                  "kind": "chi2", "truncation_radius": 50, "tol": -1e-9},
     "truncation_radius"),
    ("rate-scan", {"family": "two_point", "K": 2.0, "n_list": [64, 128],
                   "trial": 4}, "trial"),
    # a field another family or kind reads
    ("rate-scan", {"family": "bernoulli", "K": 2.0, "n_list": [128, 256],
                   "h": 99.0}, "h"),
    ("rate-scan", {"family": "two_point", "K": 2.0, "n_list": [128, 256],
                   "epsilon": 0.4}, "epsilon"),
    ("rate-scan", {"family": "kl", "K": 2.0, "n_list": [128, 256],
                   "epsilon": 0.4}, "epsilon"),
    ("mi-probe", {"dist": TWO_POINT, "kind": "chi2", "lam": 7.0}, "lam"),
    ("phase-scan", {"K_list": [2.0], "n_list": [64, 128], "K": 2.0}, "K"),
    ("concentration", {"mode": "weighted", "n": 10, "delta": 0.1,
                       "replications": 2, "h": 2.0}, "h"),
    ("concentration", {"mode": "berry_esseen", "h": 3.0, "K": 2.0, "n": 10,
                       "replications": 2, "delta": 0.1}, "delta"),
    ("concentration", {"mode": "gap", "K": 2.0, "k": 1, "replications": 2,
                       "dist": ATOMS}, "dist"),
    ("concentration", {"mode": "weighted", "n": 10, "delta": 0.1,
                       "replications": 2, "dist": {**TWO_POINT, "k": 1}},
     "dist.k"),
    ("tail-probe", {"dist": TWO_POINT, "K": 2.0, "epsilon": 0.1,
                    "kind": "upper", "r_max": 5.0, "r_point": 11}, "r_point"),
    ("lsi-probe", {"K": 2.0, "h_list": [5.0], "sigma_a": 1.0}, "sigma_a"),
    ("t2-probe", {"K": 2.0, "delta": 0.1, "h_list": [10.0], "Delta": 0.2},
     "Delta"),
], ids=["w2", "w2_construction", "w2_atoms", "construct_chi2_hard",
        "construct_w2_schedule", "mi_probe", "mi_probe_truncation_radius",
        "mi_probe_negative_tol_with_radius", "rate_scan",
        "rate_scan_bernoulli_h", "rate_scan_two_point_epsilon",
        "rate_scan_kl_epsilon", "mi_probe_chi2_lam", "phase_scan",
        "weighted", "berry_esseen", "gap", "weighted_dist", "tail_probe",
        "lsi_probe", "t2_probe"])
def test_unknown_field_exits_2(runner, tmp_path, command, cfg, field):
    """A field a subcommand, concentration mode or distribution block does
    not read is a config error naming it, not a setting left at its
    default."""
    res = runner.invoke(main, [command, "--config",
                               write_cfg(tmp_path, "c.json", cfg),
                               "--seed", "1"])
    assert res.exit_code == 2
    assert f"config error at {field}: unknown field; known fields are" \
        in res.output


def test_misspelled_sigma_stops_w2_before_it_runs(runner, tmp_path,
                                                  monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("w2_squared ran")

    monkeypatch.setattr(transport, "w2_squared", never)
    cfg = write_cfg(tmp_path, "c.json", {"A": ATOMS, "B": ATOMS,
                                         "sigmaa": 3.0, "seed": 3})
    res = runner.invoke(main, ["w2", "--config", cfg])
    assert res.exit_code == 2
    assert "config error at sigmaa: unknown field" in res.output


def test_missing_seed_exits_2(runner, tmp_path):
    cfg = write_cfg(tmp_path, "c.json",
                    {"family": "two_point", "K": 2.0,
                     "n_list": [64, 128, 256], "trials": 3})
    res = runner.invoke(main, ["rate-scan", "--config", cfg])
    assert res.exit_code == 2
    assert "seed" in res.output


def test_numeric_failure_exits_3(runner, tmp_path):
    # a valid config whose computation fails: with p_h = exp(-8) no trial
    # draws an h-atom, so every W2 value is 0 and the rate fit has no weight
    cfg = write_cfg(tmp_path, "c.json",
                    {"family": "two_point", "K": 0.5, "h": 2.0,
                     "n_list": [64, 128, 256], "trials": 3})
    res = runner.invoke(main, ["rate-scan", "--config", cfg, "--seed", "1"])
    assert res.exit_code == 3
    assert "numeric failure" in res.output


def test_quantile_cap_exits_3(runner, monkeypatch):
    monkeypatch.setattr(dist_core, "_NEWTON_CAP", 1)
    golden = GOLDEN / "w2_inline_atoms.json"
    res = runner.invoke(main, ["w2", "--config", str(golden)])
    assert res.exit_code == 3
    assert "unconverged after 1 Newton iterations" in res.output


def test_construct_json(runner, tmp_path):
    # the config's seed is no field of the distribution spec
    cfg = write_cfg(tmp_path, "c.json",
                    {"family": "w2_schedule", "K": 2.0, "k_max": 3, "seed": 5})
    out = tmp_path / "dist.json"
    res = runner.invoke(main, ["construct", "--config", cfg,
                               "--out", str(out)])
    assert res.exit_code == 0
    obj = json.loads(out.read_text())
    assert obj["command"] == "construct" and obj["seed"] == 5
    assert len(obj["distribution"]["atoms"]) == 4
    assert obj["schedule"]["n_k"][0] == 16


def test_w2_csv_metadata(runner, tmp_path):
    cfg = write_cfg(tmp_path, "c.json",
                    {"A": {"family": "two_point", "h": 1.0, "K": 1.0},
                     "B": {"family": "two_point", "h": 2.0, "K": 1.0}})
    res = runner.invoke(main, ["w2", "--config", cfg])
    assert res.exit_code == 0
    lines = res.output.splitlines()
    assert lines[0].startswith("# version:")
    assert lines[1] == "# command: w2"
    assert lines[2] == "# seed: -"
    assert lines[3].startswith("# config_sha256:")
    assert lines[4] == "# certified: true"
    assert lines[5] == "w2sq,tail_bound,quad_error,n_eval"
    assert float(lines[6].split(",")[0]) > 0


def test_w2_inline_atoms(runner, tmp_path):
    golden = GOLDEN / "w2_inline_atoms.json"
    res = runner.invoke(main, ["w2", "--config", str(golden)])
    assert res.exit_code == 0, res.output
    assert float(res.output.splitlines()[6].split(",")[0]) > 0
    cfg = write_cfg(tmp_path, "c.json",
                    {"A": {"atoms": [{"location": 0.0, "log_weight": 0.0}]},
                     "B": {"atoms": [{"x": 1.0, "logw": 0.0}]}})
    res = runner.invoke(main, ["w2", "--config", cfg])
    assert res.exit_code == 2
    assert "A.atoms: missing key 'x'" in res.output


def test_rate_scan_deterministic(runner, tmp_path):
    cfg = write_cfg(tmp_path, "c.json",
                    {"family": "two_point", "K": 2.0, "h": 2.0,
                     "n_list": [64, 128, 256], "trials": 6, "seed": 5})
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        res = runner.invoke(main, ["rate-scan", "--config", cfg,
                                   "--out", str(out)])
        assert res.exit_code == 0
        outs.append(out.read_bytes())
        fit = json.loads((tmp_path / (name + ".fit.json")).read_text())
        assert fit["slope"] < 0
        assert not (tmp_path / (name + ".plan.json")).exists()
    assert outs[0] == outs[1]


@pytest.mark.parametrize("family", ["kl", "two_point", "bernoulli"])
def test_rate_scan_tol_reaches_estimator(runner, tmp_path, monkeypatch, family):
    """Every W2 or KL evaluation of each family's estimator receives the
    config's tol, or the estimator's default when the config sets none."""
    default = 1e-10 if family == "kl" else 1e-8
    seen = []
    for module, name in ((transport, "_w2_members"), (divergences, "_kl_members")):
        def spy(*args, _inner=getattr(module, name), **kwargs):
            bound = inspect.signature(_inner).bind(*args, **kwargs)
            bound.apply_defaults()
            seen.append(bound.arguments["tol"])
            return _inner(*args, **kwargs)
        monkeypatch.setattr(module, name, spy)
    base = {"family": family, "K": 2.0, "n_list": [128, 256, 512], "trials": 4}
    for extra, want in (({}, default), ({"tol": 1e-4}, 1e-4)):
        seen.clear()
        cfg = write_cfg(tmp_path, "c.json", {**base, **extra})
        res = runner.invoke(main, ["rate-scan", "--config", cfg, "--seed", "7"])
        assert res.exit_code == 0, res.output
        assert seen and set(seen) == {want}


def test_rate_scan_bernoulli_writes_plan(runner, tmp_path):
    cfg = write_cfg(tmp_path, "c.json",
                    {"family": "bernoulli", "K": 2.0,
                     "n_list": [128, 256, 512], "trials": 4})
    out = tmp_path / "scan.csv"
    res = runner.invoke(main, ["rate-scan", "--config", cfg, "--out", str(out),
                               "--seed", "7"])
    assert res.exit_code == 0, res.output
    plan, _ = experiments.bernoulli_scan(2.0, 1.0, 0.02, [128, 256, 512], 4, 7)
    got = json.loads((tmp_path / "scan.csv.plan.json").read_text())
    assert [experiments.ScanRecord(**r) for r in got["records"]] == \
        list(plan.records)


def test_rate_scan_zero_stderr_exits_3(runner, tmp_path):
    # every trial at n = 64 and n = 256 draws no h-atom, so those points have
    # stderr 0 and cannot be weighted in the rate fit
    cfg = write_cfg(tmp_path, "c.json",
                    {"family": "kl", "K": 0.5, "h": 2.0,
                     "n_list": [64, 128, 256], "trials": 4})
    res = runner.invoke(main, ["rate-scan", "--config", cfg, "--seed", "7"])
    assert res.exit_code == 3
    assert "numeric failure: stderr 0 at n = [64, 256]" in res.output


def test_cli_seed_overrides_config(runner, tmp_path):
    cfg = write_cfg(tmp_path, "c.json",
                    {"family": "two_point", "K": 2.0, "h": 2.0,
                     "n_list": [64, 128, 256], "trials": 4, "seed": 5})
    r1 = runner.invoke(main, ["rate-scan", "--config", cfg])
    r2 = runner.invoke(main, ["rate-scan", "--config", cfg, "--seed", "6"])
    assert r1.exit_code == 0 and r2.exit_code == 0
    assert "# seed: 5" in r1.output and "# seed: 6" in r2.output
    assert r1.output != r2.output


def test_lsi_probe(runner, tmp_path):
    cfg = write_cfg(tmp_path, "c.json", {"K": 2.0, "h_list": [5.0, 10.0]})
    res = runner.invoke(main, ["lsi-probe", "--config", cfg])
    assert res.exit_code == 0
    rows = [l for l in res.output.splitlines() if not l.startswith("#")]
    assert rows[0] == "h,log_q3,log_q4,log_q5,bound"
    b5, b10 = (float(r.split(",")[-1]) for r in rows[1:3])
    assert 0 < b5 < b10


def test_t2_probe_runs_to_the_end_of_the_h_range(runner, tmp_path):
    # at K = 2, delta = 0.1 the perturbation KL is ~exp(-0.227 h^2), below
    # float64's normal range from h ~ 55.9; as logs the ratio stays finite
    # up to h = 77, near the end of P_h's range (h-atom weight exp(-h^2/8))
    cfg = write_cfg(tmp_path, "c.json",
                    {"K": 2.0, "delta": 0.1, "h_list": [55.0, 57.2, 60.0, 77.0]})
    res = runner.invoke(main, ["t2-probe", "--config", cfg])
    assert res.exit_code == 0, res.output
    rows = [l for l in res.output.splitlines() if not l.startswith("#")]
    assert rows[0] == "h,log_q_h,log_w2sq,log_kl,log_ratio,method"
    log_ratios = [float(r.split(",")[4]) for r in rows[1:]]
    assert len(log_ratios) == 4
    assert all(y > x for x, y in zip(log_ratios, log_ratios[1:]))


def test_concentration_weighted(runner, tmp_path):
    cfg = write_cfg(tmp_path, "c.json",
                    {"mode": "weighted", "n": 128, "delta": 0.1,
                     "replications": 20})
    res = runner.invoke(main, ["concentration", "--config", cfg,
                               "--seed", "3"])
    assert res.exit_code == 0
    rows = [l for l in res.output.splitlines() if not l.startswith("#")]
    assert rows[0] == "replication,statistic,bound,violated"
    assert len(rows) == 21


def test_tail_probe(runner, tmp_path):
    cfg = write_cfg(tmp_path, "c.json",
                    {"dist": {"family": "two_point", "h": 4.0, "K": 2.0},
                     "K": 2.0, "epsilon": 0.1, "kind": "upper",
                     "r_max": 8.0, "r_points": 17})
    res = runner.invoke(main, ["tail-probe", "--config", cfg])
    assert res.exit_code == 0
    assert "# M_hat:" in res.output


@pytest.mark.parametrize("K", [0.0, -1.0])
def test_tail_probe_nonpositive_K_exits_2(runner, tmp_path, K):
    cfg = write_cfg(tmp_path, "c.json",
                    {"dist": {"family": "two_point", "h": 4.0, "K": 2.0},
                     "K": K, "epsilon": 0.1, "kind": "upper", "r_max": 8.0})
    res = runner.invoke(main, ["tail-probe", "--config", cfg])
    assert res.exit_code == 2
    assert "config error at K: K must be positive" in res.output


# two atoms of weight 1/2 near 1e8, where float64 spacing is 1.5e-8: at
# sigma = 1e-10, in y, each kernel's window r +- 16 sigma rounded to one
# point
_FAR_PAIR = {"atoms": [{"x": 1e8, "logw": math.log(0.5)},
                       {"x": 1e8 + 1.0, "logw": math.log(0.5)}]}


@pytest.mark.parametrize("cfg, want", [
    ({"dist": _FAR_PAIR, "kind": "chi2", "sigma": 1e-10}, 1.0),
    ({"dist": _FAR_PAIR, "kind": "renyi", "lam": 1.5, "sigma": 1e-10},
     math.log(2.0)),
    ({"dist": {"family": "chi2_hard", "K": 2.0, "k_max": 10}, "kind": "chi2",
      "sigma": 1e-170}, 10.0),
], ids=["mi_probe_sigma_below_spacing", "mi_probe_renyi_sigma_below_spacing",
        "mi_probe_sigma_squared_not_normal"])
def test_mi_probe_takes_extreme_sigma(runner, tmp_path, cfg, want):
    """The MIs are integrated in units of sigma, so no sigma is refused:
    where the kernels are apart, the chi^2 MI is atoms - 1 and the Renyi MI
    of two equal atoms log 2, within the certified error (for Renyi that of
    the part sum S, over (lam - 1) S)."""
    res = runner.invoke(main, ["mi-probe", "--config",
                               write_cfg(tmp_path, "c.json", cfg)])
    assert res.exit_code == 0, res.output
    meta = dict(line[2:].split(": ", 1) for line in res.output.splitlines()
                if line.startswith("# "))
    err = float(meta["quadrature_error"]) + float(meta["gap_bound"])
    if cfg["kind"] == "renyi":
        err /= 0.5 * math.exp(0.5 * float(meta["value"]))
    assert abs(float(meta["value"]) - want) <= err


@pytest.mark.parametrize("command,cfg,field,message", [
    ("rate-scan", {"family": "two_point", "K": 2.0, "h": 2.0,
                   "n_list": [64, 128, 256], "trials": 1}, "trials",
     "must be >= "),
    ("tail-probe", {"dist": {"family": "two_point", "h": 4.0, "K": 2.0},
                    "K": 2.0, "epsilon": 0.1, "kind": "upper", "r_max": 8.0,
                    "r_points": -1}, "r_points", "must be >= "),
    ("concentration", {"mode": "weighted", "n": 0, "delta": 0.1,
                       "replications": 3}, "n", "must be >= "),
    ("concentration", {"mode": "berry_esseen", "h": 3.0, "K": 2.0, "n": 800,
                       "replications": 0}, "replications", "must be >= "),
    ("concentration", {"mode": "weighted", "n": 128, "delta": 0,
                       "replications": 3}, "delta", "must be > 0"),
    ("concentration", {"mode": "gap", "K": 2.0, "k": 7, "n": 700000,
                       "replications": 5}, "k", "must be < k_max = 4"),
    ("tail-probe", {"dist": {"family": "two_point", "h": 4.0, "K": 2.0},
                    "K": 2.0, "epsilon": 5.0, "kind": "upper", "r_max": 8.0},
     "epsilon", "must lie in (0, beta) = (0, 0.64)"),
    ("phase-scan", {"K_list": [0.7, 0.0], "n_list": [64, 128, 256],
                    "trials": 4}, "K_list", "expected a list of positive"),
    ("phase-scan", {"K_list": [0.7], "n_list": [64, 128, 256],
                    "trials": 1}, "trials", "must be >= "),
    ("mi-probe", {"dist": {"family": "two_point", "h": 4.0, "K": 2.0},
                  "kind": "chi2", "sigma": 0}, "sigma",
     "sigma must be positive"),
    ("phase-scan", {"K_list": [0.7], "n_list": [64, 128, 256], "trials": 4,
                    "sigma": -1.0}, "sigma", "sigma must be positive"),
    ("construct", {"family": "w2_schedule", "K": 2.0, "k_max": 3,
                   "sigma": 0}, "<root>.sigma", "sigma must be positive"),
    ("w2", {"A": {"family": "two_point", "h": 1.0, "K": 1.0},
            "B": {"family": "two_point", "h": 2.0, "K": 1.0},
            "sigma_a": 0}, "sigma_a", "sigma_a must be positive"),
    ("w2", {"A": {"family": "two_point", "h": 1.0, "K": 1.0},
            "B": {"family": "two_point", "h": 2.0, "K": 1.0},
            "sigma_b": -1.0}, "sigma_b", "sigma_b must be positive"),
    ("rate-scan", {"family": "two_point", "K": 0, "h": 2.0,
                   "n_list": [64, 128, 256], "trials": 3}, "K",
     "K must be positive"),
    ("lsi-probe", {"K": 0, "h_list": [5.0, 10.0]}, "K", "K must be positive"),
    ("t2-probe", {"K": -2.0, "delta": 0.1, "h_list": [10.0]}, "K",
     "K must be positive"),
    ("concentration", {"mode": "berry_esseen", "h": 3.0, "K": 0, "n": 800,
                       "replications": 5}, "K", "K must be positive"),
    ("concentration", {"mode": "gap", "K": 0, "k": 1, "replications": 5},
     "K", "K must be positive"),
    ("rate-scan", {"family": "two_point", "K": 2.0, "h": 0,
                   "n_list": [64, 128, 256], "trials": 3}, "h",
     "h must be positive"),
    ("tail-probe", {"dist": {"family": "two_point", "h": 4.0, "K": 2.0},
                    "K": 2.0, "epsilon": 0.1, "kind": "upper", "r_max": 8.0,
                    "sigma": 0.5}, "sigma",
     "must be 1: the probe is defined at the sigma = 1 normalization"),
    ("t2-probe", {"K": 1.0, "sigma": 1.0, "delta": 0.1, "h_list": [10.0]},
     "K", "must be > sigma = 1.0"),
    ("t2-probe", {"K": 2.0, "delta": 0.1, "h_list": [-10.0]}, "h_list",
     "expected a list of positive numbers"),
    ("t2-probe", {"K": 2.0, "delta": 0.1, "h_list": [0.0]}, "h_list",
     "expected a list of positive numbers"),
    ("rate-scan", {"family": "bernoulli", "K": 0.5, "n_list": [128, 256],
                   "trials": 4}, "K", "must be > sigma = 1.0"),
    ("t2-probe", {"K": 2.0, "delta": 1.5, "h_list": [10.0]}, "delta",
     "must be below 1 - 4 kappa / (1 + kappa)^2 = 0.36"),
    ("t2-probe", {"K": 2.0, "delta": 0.1, "h_list": [10.0, 0.1]}, "h_list",
     "h = 0.1 too small for delta = 0.1 (perturbation condition)"),
    ("lsi-probe", {"K": 2.0, "h_list": [5.0], "x1": 0.5}, "x1",
     "not a setting: the bound is taken at x1 -> -inf with "
     "x2 = h sqrt(sigma/K)"),
    ("lsi-probe", {"K": 2.0, "h_list": [5.0], "x2": -0.5}, "x2",
     "not a setting: the bound is taken at x1 -> -inf with "
     "x2 = h sqrt(sigma/K)"),
    ("lsi-probe", {"K": 2.0, "h_list": [80.0]}, "h_list",
     "h = 80.0 gives the h-atom weight exp(-800.0) = 0.0"),
    ("t2-probe", {"K": 2.0, "delta": 0.1, "h_list": [80.0]}, "h_list",
     "h = 80.0 gives the h-atom weight exp(-800.0) = 0.0"),
    ("lsi-probe", {"K": 2.0, "h_list": [5.0, 1e-9]}, "h_list",
     "h = 1e-09 gives the h-atom weight exp(-1.25e-19) = 1.0"),
    ("concentration", {"mode": "berry_esseen", "h": -3.0, "K": 2.0, "n": 800,
                       "replications": 5}, "h", "h must be positive"),
    ("concentration", {"mode": "berry_esseen", "h": 0, "K": 2.0, "n": 800,
                       "replications": 5}, "h", "h must be positive"),
    ("mi-probe", {"dist": {"family": "two_point", "h": 4.0, "K": 2.0},
                  "kind": "renyi", "lam": 2.5}, "lam", "must lie in (1, 2)"),
    ("concentration", {"mode": "berry_esseen", "h": 3.0, "K": 2.0, "n": -5,
                       "replications": 5}, "n", "must be >= 1"),
    ("concentration", {"mode": "gap", "K": 2.0, "k": 1, "n": -3,
                       "replications": 5}, "n", "must be >= 1"),
    ("mi-probe", {"dist": {"family": "chi2_hard", "K": 2.0, "k_max": 10},
                  "kind": "chi2", "tol": 0}, "tol", "must lie in (0, 1)"),
    ("mi-probe", {"dist": {"family": "chi2_hard", "K": 2.0, "k_max": 10},
                  "kind": "chi2", "tol": -1e-9}, "tol", "must lie in (0, 1)"),
    ("mi-probe", {"dist": {"family": "two_point", "h": 4.0, "K": 2.0},
                  "kind": "renyi", "lam": 1.5, "tol": 2.0}, "tol",
     "must lie in (0, 1)"),
    # a float field must be finite: JSON's NaN and 1e999 parse to NaN and
    # inf (json.dumps writes inf as Infinity, which parses the same)
    ("w2", {"A": ATOMS, "B": ATOMS, "tol": math.nan}, "tol",
     "must be a finite number, got nan"),
    ("w2", {"A": ATOMS, "B": ATOMS, "tol": -1.0}, "tol",
     "must lie in (0, 1)"),
    ("w2", {"A": ATOMS, "B": ATOMS, "sigma": 1e999}, "sigma",
     "must be a finite number, got inf"),
    ("tail-probe", {"dist": {"family": "two_point", "h": 4.0, "K": 2.0},
                    "K": 2.0, "epsilon": 0.1, "kind": "upper",
                    "r_max": 1e999}, "r_max",
     "must be a finite number, got inf"),
    ("tail-probe", {"dist": {"family": "two_point", "h": 4.0, "K": 2.0},
                    "K": 2.0, "epsilon": 0.1, "kind": "upper",
                    "r_max": math.nan}, "r_max",
     "must be a finite number, got nan"),
    ("concentration", {"mode": "weighted", "n": 128, "delta": 1e999,
                       "replications": 3}, "delta",
     "must be a finite number, got inf"),
    ("rate-scan", {"family": "two_point", "K": 2.0, "h": 2.0,
                   "n_list": [64, 128, 256], "trials": 3, "tol": math.nan},
     "tol", "must be a finite number, got nan"),
    ("rate-scan", {"family": "two_point", "K": 2.0, "h": 2.0,
                   "n_list": [64, 128, 256], "trials": 3, "tol": 0.0},
     "tol", "must lie in (0, 1)"),
    ("rate-scan", {"family": "bernoulli", "K": 1e999,
                   "n_list": [128, 256, 512], "trials": 4}, "K",
     "must be a finite number, got inf"),
    ("construct", {"family": "chi2_hard", "K": 2.0, "k_max": 4,
                   "c": math.nan}, "<root>.c",
     "must be a finite number, got nan"),
    ("phase-scan", {"K_list": [1e999], "n_list": [64, 128, 256],
                    "trials": 3}, "K_list",
     "expected a list of positive numbers"),
    ("rate-scan", {"family": "bernoulli", "K": 2.0,
                   "n_list": [128, 256, 512], "trials": 4, "epsilon": 0.0},
     "epsilon", "epsilon must be positive"),
    ("rate-scan", {"family": "bernoulli", "K": 2.0,
                   "n_list": [128, 256, 512], "trials": 4, "epsilon": -1.0},
     "epsilon", "epsilon must be positive"),
    # delta(epsilon) reaches the construction's bound 0.36 at epsilon 0.544
    ("rate-scan", {"family": "bernoulli", "K": 2.0,
                   "n_list": [128, 256, 512], "trials": 4, "epsilon": 5.0},
     "epsilon", "epsilon = 5.0 gives delta = 0.645161; the construction "
     "needs delta < 0.36, that is epsilon < 0.544355 at K = 2.0, "
     "sigma = 1.0"),
    # h(n) shrinks with sigma / K until P_h's h-atom weight rounds to 1
    ("rate-scan", {"family": "bernoulli", "K": 2.0, "sigma": 1e-9,
                   "n_list": [128, 256, 512], "trials": 4}, "sigma",
     "sigma = 1e-09 is too small for K = 2.0: the scan's smallest h(n) = "
     "1.444e-08 at n = 128"),
    # a rate fit needs 3 distinct sample sizes
    ("rate-scan", {"family": "bernoulli", "K": 2.0, "n_list": [128, 256],
                   "trials": 4}, "n_list", "expected at least 3 distinct"),
    ("rate-scan", {"family": "two_point", "K": 2.0, "n_list": [64, 64, 128],
                   "trials": 4}, "n_list", "expected at least 3 distinct"),
    ("phase-scan", {"K_list": [0.7], "n_list": [64, 128], "trials": 4},
     "n_list", "expected at least 3 distinct"),
    # sigma_b defaults to sigma_a, so sigma would not be read
    ("w2", {"A": ATOMS, "B": ATOMS, "sigma": 2.0, "sigma_a": 1.0,
            "sigma_b": 1.5}, "sigma", "not read where sigma_a is given"),
    ("w2", {"A": ATOMS, "B": ATOMS, "sigma": 2.0, "sigma_a": 1.0}, "sigma",
     "not read where sigma_a is given"),
    # two-point configs out of range: h(n) of the bernoulli scan needs
    # 12 sqrt(n) > sqrt(pi) sigma (0.77 at n = 128), and P_h's h-atom weight
    # exp(-h^2/(2 K^2)) must not underflow to 0
    ("rate-scan", {"family": "bernoulli", "K": 200, "sigma": 100,
                   "n_list": [128, 256, 512]}, "sigma",
     "sigma = 100.0 gives no h(n) at n = 128: h(n) needs 12 sqrt(n) > "
     "sqrt(pi) sigma at the smallest n, that is sigma < 76.5969"),
    ("rate-scan", {"family": "two_point", "K": 2.0, "h": 100,
                   "n_list": [128, 256, 512], "trials": 4}, "h",
     "h = 100.0 gives the h-atom weight exp(-1250.0) = 0.0"),
    ("rate-scan", {"family": "kl", "K": 0.01, "h": 2,
                   "n_list": [128, 256, 512], "trials": 4}, "h",
     "h = 2.0 gives the h-atom weight exp(-20000.0) = 0.0"),
    ("phase-scan", {"K_list": [2.0, 0.01], "n_list": [128, 256, 512],
                    "trials": 4}, "K_list",
     "h = 2.0 gives the h-atom weight exp(-20000.0) = 0.0"),
], ids=["rate_scan_trials", "tail_probe_r_points", "weighted_n",
        "replications", "weighted_delta", "gap_k", "tail_probe_epsilon",
        "phase_scan_K_list", "phase_scan_trials", "mi_probe_sigma",
        "phase_scan_sigma", "construct_sigma", "w2_sigma_a", "w2_sigma_b",
        "rate_scan_K", "lsi_probe_K", "t2_probe_K", "berry_esseen_K",
        "gap_K", "rate_scan_h", "tail_probe_sigma",
        "t2_probe_K_not_above_sigma",
        "t2_probe_negative_h", "t2_probe_zero_h",
        "rate_scan_bernoulli_K_not_above_sigma", "t2_probe_delta",
        "t2_probe_h_below_perturbation", "lsi_probe_x1", "lsi_probe_x2",
        "lsi_probe_h_atom_underflow", "t2_probe_h_atom_underflow",
        "lsi_probe_tiny_h", "berry_esseen_negative_h", "berry_esseen_zero_h",
        "mi_probe_lam", "berry_esseen_n", "gap_n", "mi_probe_zero_tol",
        "mi_probe_negative_tol", "mi_probe_renyi_tol",
        "w2_nan_tol", "w2_negative_tol", "w2_infinite_sigma",
        "tail_probe_infinite_r_max", "tail_probe_nan_r_max",
        "weighted_infinite_delta", "rate_scan_nan_tol", "rate_scan_zero_tol",
        "rate_scan_infinite_K", "construct_nan_c",
        "phase_scan_infinite_K_list", "rate_scan_zero_epsilon",
        "rate_scan_negative_epsilon", "rate_scan_epsilon_past_range",
        "rate_scan_bernoulli_tiny_sigma", "rate_scan_two_n", "rate_scan_repeated_n", "phase_scan_two_n",
        "w2_sigma_next_to_both_sides",
        "w2_sigma_next_to_sigma_a", "rate_scan_bernoulli_large_sigma",
        "rate_scan_h_atom_underflow", "rate_scan_kl_h_atom_underflow",
        "phase_scan_h_atom_underflow"])
def test_out_of_range_value_exits_2(runner, tmp_path, monkeypatch, command,
                                    cfg, field, message):
    """Each is a config error naming the field, refused before any trial."""
    def must_not_run(*args):
        pytest.fail("a trial ran before the config was refused")
    monkeypatch.setattr(experiments, "_run_trials", must_not_run)
    res = runner.invoke(main, [command, "--config",
                               write_cfg(tmp_path, "c.json", cfg),
                               "--seed", "1"])
    assert res.exit_code == 2
    assert f"config error at {field}: {message}" in res.output


# a subcommand, one that writes sidecars (<out>.fit.json) and accept
OUT_COMMANDS = [
    ["w2", "--config", str(GOLDEN / "w2_inline_atoms.json")],
    ["rate-scan", "--config", str(GOLDEN / "rate_scan_two_point.json"),
     "--seed", "7"],
    ["accept", "--quick"],
]


def _forbid_computing(monkeypatch):
    """Make any criterion, rate series or W2 fail the test if it runs."""
    def must_not_run(*args, **kwargs):
        pytest.fail("computed before --out was refused")

    def check_1_closed_form_transport(quick, seed):
        must_not_run()
    monkeypatch.setattr(acceptance, "CRITERIA", [check_1_closed_form_transport])
    monkeypatch.setattr(experiments, "rate_series", must_not_run)
    monkeypatch.setattr(transport, "w2_squared", must_not_run)


@pytest.mark.parametrize("args", OUT_COMMANDS, ids=["w2", "rate_scan", "accept"])
def test_unwritable_out_exits_2(runner, tmp_path, monkeypatch, args):
    """An --out in a missing directory exits 2 naming --out before any
    criterion, trial or W2 runs, and prints no criterion line."""
    _forbid_computing(monkeypatch)
    out = tmp_path / "missing" / "x.csv"
    res = runner.invoke(main, [*args, "--out", str(out)])
    assert res.exit_code == 2, res.output
    assert "config error at --out: " in res.output
    assert not re.search(r"^\[(PASS|FAIL)\]", res.output, re.MULTILINE)


@pytest.mark.parametrize("args", OUT_COMMANDS, ids=["w2", "rate_scan", "accept"])
def test_out_that_is_a_directory_exits_2(runner, tmp_path, monkeypatch, args):
    _forbid_computing(monkeypatch)
    res = runner.invoke(main, [*args, "--out", str(tmp_path)])
    assert res.exit_code == 2, res.output
    assert "config error at --out: " in res.output and "is a directory" in res.output


def test_accept_reports_a_raising_criterion_as_failed(runner, monkeypatch):
    """A criterion that raises is a FAIL line naming the exception; the
    others still run and print, and the exit code is 3."""
    def check_4_parametric_rate(quick, seed):
        raise ValueError("stderr 0 at n = [128]: every trial gave the same "
                         "value")
    monkeypatch.setattr(acceptance, "CRITERIA",
                        [check_4_parametric_rate,
                         acceptance.check_14_exponent_identities])
    res = runner.invoke(main, ["accept", "--quick"])
    assert res.exit_code == 3, res.output
    lines = re.findall(r"^\[(PASS|FAIL)\] +(\d+)  (.*)$", res.output,
                       re.MULTILINE)
    assert [(mark, int(k)) for mark, k, _ in lines] == [("FAIL", 4), ("PASS", 14)]
    assert acceptance.NAMES[4] in lines[0][2]
    assert "raised ValueError: stderr 0 at n = [128]" in lines[0][2]
    assert "1/2 criteria passed" in res.output


# sha256 of `accept --quick --out` at the default seed; a change that moves
# a criterion's detail records the new hash here, and says why in CHANGES.md
ACCEPT_QUICK_SHA256 = \
    "00aa0154182f2b333c1a2c162d76ce4d11dafff520c0fe8504f61c4c371619ad"


def test_accept_quick(runner, tmp_path):
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        res = runner.invoke(main, ["accept", "--quick", "--out", str(out)])
        assert res.exit_code == 0, res.output
        assert "14/14 criteria passed" in res.output
        outs.append(out.read_bytes())
    # the console shows each criterion's seconds; the file holds no timing,
    # so it repeats byte for byte
    assert re.search(r"^\[PASS\]  1  .*  \d+\.\ds  max \|error\|", res.output,
                     re.MULTILINE)
    assert outs[0] == outs[1]
    assert outs[0].decode().splitlines()[5] == "criterion,name,passed,detail"
    assert hashlib.sha256(outs[0]).hexdigest() == ACCEPT_QUICK_SHA256
