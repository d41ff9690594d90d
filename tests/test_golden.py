"""Golden-output corpus: every config in tests/golden/ runs through the `sot`
CLI at a fixed seed, and the sha256 of each output file must equal the
recorded value. Any moved float, header or metadata line shows up here.

A failing case prints the new hashes next to the recorded ones; after a
change that is meant to move outputs, record them and say in CHANGES.md why
they moved.
"""
import hashlib
from pathlib import Path

import pytest
from click.testing import CliRunner

from sotlab.cli import main

GOLDEN = Path(__file__).parent / "golden"
SEED = 7

# config file -> (subcommand, sha256 of --out, sha256 of <out>.fit.json)
CASES = {
    "construct_w2_schedule.json": ("construct",
        "f9c613f9d753a7320d2bc0516a9109cac7b39d345f9ac35928f2d7bf45cce1e5", None),
    "w2_inline_atoms.json": ("w2",
        "fdfc8831b7d20c03d9e19fabb5f2add9ec315d2e45b1b31ac1b4bcfb5751fe47", None),
    "mi_probe_chi2.json": ("mi-probe",
        "9b8e9263d56fb6a24ec993bee467105617be379bfe4429be4e66cdc21fb8aa8c", None),
    "mi_probe_renyi.json": ("mi-probe",
        "92fd132efc254bc75cb83bad3fecd5a2837150f6d2730971f1bacca16517fd28", None),
    "mi_probe_chi2_hard10.json": ("mi-probe",
        "98b45ee087fa20f9803ee2c13782f76a2742b17617c543ef082b3406a38d9064", None),
    "mi_probe_renyi_hard10.json": ("mi-probe",
        "f0e7b6d49b5497e2287ec82676a766ae27510974b9c3bf72d758f10b5bf3c236", None),
    "rate_scan_two_point.json": ("rate-scan",
        "ed6a13c80cd03fb30109d3c8d4cba17f585a3f952cf947da48a6d886af92c5c0",
        "6f28a9090a4d71cd6238afeec6a5bc6665341a7c3024d44584e3d1c80c10503c"),
    "rate_scan_bernoulli.json": ("rate-scan",
        "5861dfdd1064fd1f70aa04f3f14c697074ad2eac94b4e4076fff9956af5c0489",
        "4f7553064e37b08d585fa2d11925a0f8ce217ea571a6a00e47e0b6ff45f94f8f"),
    "rate_scan_kl.json": ("rate-scan",
        "867e1d358a290d6f262f0df30eb79a50bd18ca1b3b733b55431a5cda3aa6def0",
        "ccc48f36811eeaa8f0c06892293c3cdac2e14c142ce967fb2b9d286953bb7e34"),
    "concentration_weighted.json": ("concentration",
        "e6826f90bee6e4d13cf8865951d130ccababdf9120c2e5a266807ec7ff7764b2", None),
    "concentration_berry_esseen.json": ("concentration",
        "b014e6acee452e49f47ba79108eaf94fd256f1bed097007ae904237edabda080", None),
    "concentration_gap.json": ("concentration",
        "9285a32df4b29ddd1b064792667cc500f7a77459042fc834c375d99aba2e6069", None),
    "tail_probe_upper.json": ("tail-probe",
        "86589a0c0cb6625103152b615fe8bdedaba11be625e7ff9a7a70178a585f19fb", None),
    "tail_probe_lower.json": ("tail-probe",
        "bcc37bee21823795e03d1f0b8364f51b042dccb6439da9139abe718814d68690", None),
    "lsi_probe.json": ("lsi-probe",
        "4c5df4ac725c1500420a2071462372a4827fd381b8a610a75f0d909d9a299cdc", None),
    "t2_probe.json": ("t2-probe",
        "36a8b2cd98e8b0d1d75e0a51987669e570a5b2709cb8635aeb9807e04b486f86", None),
    "phase_scan.json": ("phase-scan",
        "691109f2085356b0f6449b21182904e32ca6c24bc9ccae44fe3c51cd465f87dc", None),
}

# config file -> sha256 of <out>.plan.json, for the configs that write one
PLANS = {
    "rate_scan_bernoulli.json":
        "9e28ce268870adcc155af24ea42abd2f70ed79b84a1734050a128e2deafdcbe9",
}


def _sha(path: Path):
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None


def run_case(name: str, workdir: Path):
    """Run one golden config; return the sha256 of --out, of <out>.fit.json
    and of <out>.plan.json (None where absent)."""
    out = workdir / "out"
    res = CliRunner().invoke(main, [CASES[name][0], "--config",
                                    str(GOLDEN / name), "--out", str(out),
                                    "--seed", str(SEED)])
    assert res.exit_code == 0, res.output
    return (_sha(out), _sha(Path(str(out) + ".fit.json")),
            _sha(Path(str(out) + ".plan.json")))


def test_corpus_covers_every_config():
    assert sorted(p.name for p in GOLDEN.glob("*.json")) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, tmp_path):
    _, want_out, want_fit = CASES[name]
    assert run_case(name, tmp_path) == (want_out, want_fit, PLANS.get(name))

