import dataclasses
import time

import pytest

from sotlab import acceptance, divergences


@pytest.mark.parametrize("fn", acceptance.CRITERIA, ids=lambda f: f.__name__)
def test_criterion_full(fn):
    result = fn(quick=False, seed=acceptance.DEFAULT_SEED)
    assert result.passed, \
        f"criterion {result.criterion} ({result.name}): {result.detail}"


def test_quick_suite_under_two_minutes():
    start = time.monotonic()
    results = acceptance.run_all(quick=True, seed=acceptance.DEFAULT_SEED)
    elapsed = time.monotonic() - start
    assert all(r.passed for r in results), [
        (r.criterion, r.detail) for r in results if not r.passed]
    assert elapsed < 120.0, f"quick suite took {elapsed:.1f}s"


def test_coupling_oracle_quick_at_seed_26():
    # batch means of 20,000-sample sorted couplings gave |z| = 4.69 here:
    # that coupling overestimates W2^2 by O(1/N)
    result = acceptance.check_2_mc_coupling_oracle(quick=True, seed=26)
    assert result.passed, result.detail


def _planted_mi_defect(defect):
    """chi2_mutual_information with one known error: the two-point MI off by
    a relative 1e-5, or the deepest part of a many-atom MI set to 0."""
    real = divergences.chi2_mutual_information

    def wrong(p, sigma, tol=1e-9):
        est = real(p, sigma, tol)
        if defect == "two_point_mi_off" and p.n_atoms == 2:
            return dataclasses.replace(est, value=est.value * (1.0 + 1e-5))
        if defect == "deepest_part_zero" and p.n_atoms > 2:
            return dataclasses.replace(
                est, partial_by_atom=est.partial_by_atom[:-1] + (0.0,))
        return est
    return wrong


@pytest.mark.parametrize("defect", ["two_point_mi_off", "deepest_part_zero"])
def test_criterion_6_rejects_planted_defect(defect, monkeypatch):
    # (a) gates n E[chi2] = I_chi2 on the certified errors, ~5e-10 against
    # an MI of ~0.014; (b) gates every deep increment against a floor
    monkeypatch.setattr(divergences, "chi2_mutual_information",
                        _planted_mi_defect(defect))
    result = acceptance.check_6_chi2_mi_phase(quick=True,
                                              seed=acceptance.DEFAULT_SEED)
    assert not result.passed, result.detail
