import time

import pytest

from sotlab import acceptance


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
