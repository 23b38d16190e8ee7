"""The numpy Sobol generator against the scipy.stats call it replaces, bit
for bit, and the AS241 normal quantile against the standard library's
``NormalDist.inv_cdf``, bit for bit. A scipy or Python release that changes
either fails here instead of moving every sample pattern."""

import math
import statistics

import numpy as np
import pytest
from scipy.stats import norm, qmc

from jetsuff.errors import InvalidInputError
from jetsuff.sampling import (_directions, _gaussian_directions, _normal_quantile, _sobol,
                              ball_sample, unit_shell_sample)
from oracles import directions_reference, gaussian_directions_reference

SEEDS = range(40)
EPS = np.finfo(float).eps
# Each Gaussian draw is within 7 ulp of ndtri's, so its row norm moves by at
# most 7 eps relative and each unit-vector entry (at most 1 in size) by at
# most 2 * 7 eps plus the rounding of the norm and the division
DIRECTION_ATOL = 16 * EPS


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


def test_sobol_refuses_more_points_than_the_sequence_has():
    # 2^30 + 1 used to double the Gray-code table to 2^31 points before
    # slicing; scipy's Sobol refuses the same count
    message = r"^at most 2\^30 Sobol points per pattern, not 1073741825$"
    with pytest.raises(InvalidInputError, match=message):
        _sobol(2, 2 ** 30 + 1, 0)


@pytest.mark.parametrize("count", [17, 1000, 4096])
@pytest.mark.parametrize("d", [1, 3, 5])
def test_quantile_is_normaldist_inv_cdf(d, count):
    inv_cdf = statistics.NormalDist().inv_cdf
    # the clip ends, the branch edges of AS241 and the centre
    edges = np.array([[1e-12], [1 - 1e-12], [0.075], [0.925], [0.5]])
    for seed in SEEDS:
        u = np.vstack([np.clip(_sobol(d, count, seed), 1e-12, 1 - 1e-12),
                       np.repeat(edges, d, axis=1)])
        got = _normal_quantile(u)
        want = np.array([[inv_cdf(p) for p in row] for row in u.tolist()])
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), f"seed={seed}"  # the sign of zero too
        ref = norm.ppf(u)
        assert (np.abs(got - ref) <= 7 * np.spacing(np.abs(ref))).all(), f"seed={seed}"


@pytest.mark.parametrize("count", [17, 1000, 4096])
@pytest.mark.parametrize("d", [2, 3, 5])
def test_gaussian_directions_match_the_ndtri_map(d, count):
    for seed in range(4):
        u = _sobol(d, count, seed)
        got, want = _gaussian_directions(u), gaussian_directions_reference(u)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0, atol=DIRECTION_ATOL)


def test_direction_numbers_are_cached_read_only():
    # read from the table's columns in use only, they are the whole table's
    for d in range(1, 13):
        got, want = _directions(d), directions_reference(d)
        assert got.dtype == want.dtype and np.array_equal(got, want), f"d={d}"
        assert _directions(d) is got
        with pytest.raises(ValueError):
            got[0, 0] = 0


@pytest.mark.parametrize("draw, n, count, message", [
    # these used to raise ZeroDivisionError and "math domain error"
    (ball_sample, 0, 10, "need at least one dimension, not 0"),
    (unit_shell_sample, 2, 0, "need at least one Sobol point per pattern, not 0"),
    (ball_sample, 2, -3, "need at least one Sobol point per pattern, not -3"),
])
def test_empty_draws_refused(draw, n, count, message):
    with pytest.raises(InvalidInputError, match=f"^{message}$"):
        draw(n, count, 0)
