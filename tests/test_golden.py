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
    # 16 atoms in one cluster, so the W2 runs on the many-atom seeds
    "w2_many_atoms.json": ("w2",
        "96d831352cff9ef1a491f693cb90cd2c4ca00d9b775b17b84dbce172144237ab", None),
    "mi_probe_chi2.json": ("mi-probe",
        "bcee2711eb15b73f1abac21017d5542f5e96019152a0709b0739734cf1c88381", None),
    "mi_probe_renyi.json": ("mi-probe",
        "92fd132efc254bc75cb83bad3fecd5a2837150f6d2730971f1bacca16517fd28", None),
    "mi_probe_chi2_hard10.json": ("mi-probe",
        "34fa6cd30a3938ce2d57ea1374fc4f4c5ffb49ed73d39677e3bde6b6aa27db37", None),
    "mi_probe_renyi_hard10.json": ("mi-probe",
        "812218ee6d9bb95fe38544da8b642a7b978b19ae1215931b8ac50df7ede1af1b", None),
    "rate_scan_two_point.json": ("rate-scan",
        "5fc3705355f5c3b0bcb53412d71b982a6a86ab8af669238e3aecf15e0a79a960",
        "5dc9cad1d422bda2a7681ca3eb48206b8fa9de717706ca7ca2529374d94c0cd5"),
    "rate_scan_bernoulli.json": ("rate-scan",
        "c9d454c623cbb64268703227f6a633659e1a8e6abb9c658ef2f3c1064444f8c9",
        "2c697c5ec8b7c833f912a75c65f43a26882d86438dc7c9e74bd97d8fa47904e9"),
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
        "3f440657eb3bde8604c52d171266aece141bf6c2166614c0dee5ec69b4daeb05", None),
    "phase_scan.json": ("phase-scan",
        "c0ee0a59bdade8040dd812eb690929ce43d89d787097f783cdd32775368a9405", None),
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

