"""The numpy Sobol generator and ``ndtri`` against the scipy.stats calls they
replace, bit for bit. A scipy release that changes either fails here instead
of moving every sample pattern."""

import math

import numpy as np
import pytest
from scipy.stats import norm, qmc

from jetsuff.sampling import _directions, _sobol, ndtri

SEEDS = range(40)


def scipy_sobol(d, count, seed):
    return qmc.Sobol(d=d, scramble=True, seed=seed).random_base2(
        max(1, math.ceil(math.log2(count))))[:count]


@pytest.mark.parametrize("count", [1, 2, 3, 17, 512, 1000, 2048, 4096])
@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_sobol_is_scipys(d, count):
    for seed in SEEDS:
        got, want = _sobol(d, count, seed), scipy_sobol(d, count, seed)
        assert got.dtype == want.dtype and got.shape == want.shape == (count, d)
        assert np.array_equal(got, want), f"d={d} count={count} seed={seed}"


@pytest.mark.parametrize("count", [17, 1000, 4096])
@pytest.mark.parametrize("d", [1, 3, 5])
def test_ndtri_is_norm_ppf(d, count):
    for seed in SEEDS:
        u = np.clip(_sobol(d, count, seed), 1e-12, 1 - 1e-12)
        got, want = ndtri(u), norm.ppf(u)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()  # the sign of zero too


def test_direction_numbers_are_cached_read_only():
    assert _directions(3) is _directions(3)
    with pytest.raises(ValueError):
        _directions(3)[0, 0] = 0
