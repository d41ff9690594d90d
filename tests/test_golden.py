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
        "39587ad49c01f32565eca858f7906eeea24c1b014439cc1f7437b39460f95ae5", None),
    "mi_probe_chi2.json": ("mi-probe",
        "a2310455adf6960736b994e7ec1c4c53e6a23b63663f84d488cede6561ac22ee", None),
    "mi_probe_renyi.json": ("mi-probe",
        "9743b43bc29613e21ca07212d8dbad9c0ccc8cac89eea2eb39826ce0d5d6fff0", None),
    "rate_scan_two_point.json": ("rate-scan",
        "41688fbd8838e96184090ecf2dcd0dca27bfc8c05b560836210361a59817dc52",
        "d7b6c8e814795892fae0a209947e21c3a3a9d89ac17178c090b08664ca0c44be"),
    "rate_scan_bernoulli.json": ("rate-scan",
        "557c59728b37cbb599a4c9ab767ad4fb069d1df7ba9b488ca24e6a978bace028",
        "63cdd74583f3687fefe06d05b6f70c6b865fe05fcab0eb533297b74947300f00"),
    "rate_scan_kl.json": ("rate-scan",
        "fabc813d54d82ed487eb182571b127f9e5050ac6cbce981312b4f6039b9a6e19",
        "5e63ce2eddb11787e450120ac728e44957e544fbd5ebf01e63efd96ccc953787"),
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
        "2aeff90efe9e2a54e393d4fd84f9bbc8231e0f1b7ea62286713cca1206a829ba", None),
    "phase_scan.json": ("phase-scan",
        "6067b3f391dde7f159447b25b18547ddf03c18189b90a7f910385ddd240e8bc2", None),
}

# config file -> sha256 of <out>.plan.json, for the configs that write one
PLANS = {
    "rate_scan_bernoulli.json":
        "9be5f54d9b1a272b21e82465a2f1d93951a88245beaf9a5eef69906828c9eca8",
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

