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
        "53ce50b2c5111e671d135314550ae52e1501802dd325f75ab9d3c8b09e37e37e", None),
    "mi_probe_chi2.json": ("mi-probe",
        "a2310455adf6960736b994e7ec1c4c53e6a23b63663f84d488cede6561ac22ee", None),
    "mi_probe_renyi.json": ("mi-probe",
        "9743b43bc29613e21ca07212d8dbad9c0ccc8cac89eea2eb39826ce0d5d6fff0", None),
    "rate_scan_two_point.json": ("rate-scan",
        "4c280a956aa446d54f3d7cf23d71713109be9cf5faf4e4465eeb6948c003d304",
        "0fac5a762d4adef01f2c5574ea9f6aca9c8a9c309e43a7444928fd9a7600e22b"),
    "rate_scan_bernoulli.json": ("rate-scan",
        "de49c839d6b4a582fb81ce2c31ef8e3f9d9c844f744fd7c363814d699f069f19",
        "9642a4b0131c2f12417aefd6d5e40ff3b9a963b26bd566ff4ca44c2d9a7b43b3"),
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
        "c4cc1578c8911ec2d87832237c0777a6579dccc6be0d57e936b697039fd79e75", None),
    "phase_scan.json": ("phase-scan",
        "cf2dd0680585437c7ab06409c31db37f947bbc8093297c23d8eaf9789833b7b4", None),
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

