import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from jetsuff import linmap
from jetsuff.errors import InvalidInputError, MinorIdentityError
from jetsuff.linmap import (LinearMap, equivalence_constants_sample, g_prime,
                            g_prime_many, minor_table, norm2_many, nu, nu_many, realify)
from oracles import (equivalence_constants_reference, minor_table_reference,
                     minors_reference, nu_bruteforce, nu_reference)


class TestNu:
    def test_identity(self):
        assert nu(LinearMap(np.eye(2))) == pytest.approx(1.0)

    def test_diagonal(self):
        assert nu(LinearMap([[3.0, 0.0], [0.0, 4.0]])) == pytest.approx(3.0)

    def test_single_row_is_gradient_norm(self):
        assert nu(LinearMap([[1.0, 2.0, 2.0]])) == pytest.approx(3.0)

    def test_matches_sphere_oracle(self):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((3, 5))
        assert nu(LinearMap(A)) == pytest.approx(nu_bruteforce(A), abs=1e-3)

    def test_zero_iff_rank_deficient(self):
        assert nu(LinearMap([[1.0, 2.0], [2.0, 4.0]])) == pytest.approx(0.0, abs=1e-15)
        assert nu(LinearMap([[1.0, 0.0], [0.0, 1e-8]])) > 0

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidInputError):
            LinearMap([[np.nan, 1.0]])

    def test_rejects_tall(self):
        with pytest.raises(InvalidInputError):
            LinearMap([[1.0], [2.0]])


def minors_by_set(entries):
    """{1-based column set I: (M_I, h_I)} from the minor engine."""
    cols, M, h, _ = minor_table(LinearMap(entries).entries)
    return {tuple(c + 1 for c in I): (M_I, h_I)
            for I, M_I, h_I in zip(cols.tolist(), M, h)}


@st.composite
def stacks(draw):
    """(N, m, n) stacks with m <= 3, n <= 6 at scales 1e-6 to 1e3, holding
    exact zeros, zero columns and whole zero matrices."""
    m = draw(st.integers(1, 3))
    n = draw(st.integers(m, 6))
    N = draw(st.integers(1, 8))
    entries = st.integers(-1000, 1000).map(lambda v: v / 100)
    A = draw(arrays(np.float64, (N, m, n), elements=entries))
    A *= 10.0 ** draw(st.integers(-6, 3))
    A[:, :, draw(arrays(np.bool_, (n,)))] = 0.0
    A[draw(arrays(np.bool_, (N,)))] = 0.0
    return A


class TestMinors:
    def test_diagonal_determinant(self):
        M_I, _ = minors_by_set([[3.0, 0.0], [0.0, 4.0]])[(1, 2)]
        assert M_I == pytest.approx(12.0)

    def test_singular_column_pair(self):
        M_I, _ = minors_by_set([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])[(1, 3)]
        assert M_I == pytest.approx(0.0)

    def test_one_by_one(self):
        M_I, _ = minors_by_set([[5.0, -2.0]])[(2,)]
        assert M_I == pytest.approx(-2.0)

    def test_h_I_enumerates_subminors(self):
        # 1x1 subminors of [[3,0],[0,4]] are {3, 0, 0, 4}
        _, h_I = minors_by_set([[3.0, 0.0], [0.0, 4.0]])[(1, 2)]
        assert h_I == pytest.approx(4.0)

    def test_h_I_m1_convention(self):
        assert minors_by_set([[7.0, 1.0]])[(1,)][1] == 1.0

    def test_h_I_zero_matrix(self):
        assert minors_by_set(np.zeros((2, 3)))[(1, 2)][1] == 0.0

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_definitions(self, data):
        m = data.draw(st.integers(1, 3))
        n = data.draw(st.integers(m, 6))
        # hundredths in [-10, 10]: exact zeros and repeats, no underflow
        entries = st.integers(-1000, 1000).map(lambda v: v / 100)
        A = data.draw(arrays(np.float64, (m, n), elements=entries))
        b = data.draw(arrays(np.float64, (m,), elements=entries))
        cols, M, h, num = minor_table(A)
        ref = minors_reference(A, b)
        assert [tuple(I) for I in cols.tolist()] == [I for I, *_ in ref]
        scale = 1.0 + np.max(np.abs(A)) ** m
        for s, (I, M_ref, h_ref, w_ref) in enumerate(ref):
            assert M[s] == pytest.approx(M_ref, rel=1e-12, abs=1e-12 * scale)
            assert h[s] == pytest.approx(h_ref, rel=1e-12, abs=1e-12 * scale)
            if w_ref is not None:
                w = num[s] @ b / M[s]
                np.testing.assert_allclose(
                    w, w_ref, rtol=1e-6, atol=1e-6 * np.linalg.norm(w_ref))

    @settings(max_examples=200, deadline=None)
    @given(stacks())
    def test_stacked_matches_per_matrix(self, A):
        cols, M, h, num = minor_table(A)
        for a, M_a, h_a, num_a in zip(A, M, h, num):
            cols_a, *per_matrix = minor_table(a)
            assert np.array_equal(cols, cols_a)
            for got, want in zip((M_a, h_a, num_a), per_matrix):
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("m, n", [(1, 2), (2, 3), (2, 4), (3, 5), (3, 6)])
    def test_matches_reference_bit_for_bit(self, m, n):
        # zeros of both signs, subnormals, infinities and nan among the entries;
        # raw bytes, so nan payloads and the signs of zeros count too
        rng = np.random.default_rng(10 * m + n)
        A = rng.standard_normal((400, m, n))
        special = rng.random(A.shape) < 0.2
        A[special] = rng.choice([0.0, -0.0, 5e-324, -4e-320, 1e-310, np.inf, -np.inf, np.nan],
                                size=special.sum())
        A[0], A[1] = 0.0, 1e-310
        with np.errstate(all="ignore"):
            for a in (A, A[2]):
                for got, want in zip(minor_table(a), minor_table_reference(a)):
                    assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_nonzero_minor_with_vanishing_subminors_raises(self, monkeypatch):
        monkeypatch.setattr(linmap, "minor_table", lambda a: (
            None, np.array([1.0]), np.array([0.0]), None))
        with pytest.raises(MinorIdentityError):
            g_prime(LinearMap([[1.0, 0.0], [0.0, 1.0]]))


class TestNuMany:
    @settings(max_examples=200, deadline=None)
    @given(stacks())
    def test_stacked_matches_per_matrix(self, A):
        v = nu_many(A)
        assert v.shape == A.shape[:1]
        assert v.tolist() == [nu_reference(a) for a in A]
        assert v.tolist() == [nu(LinearMap(a)) for a in A]


class TestNorm2Many:
    # the closed forms for m <= 2 met the SVD within 4.4 eps on 200,000
    # random matrices per shape (1, 2) to (2, 4)
    @settings(max_examples=200, deadline=None)
    @given(stacks())
    def test_within_8_eps_of_the_svd(self, A):
        got, want = norm2_many(A), np.linalg.norm(A, ord=2, axis=(1, 2))
        assert got.shape == A.shape[:1]
        if A.shape[1] >= 3:  # the SVD itself
            assert got.tolist() == want.tolist()
        assert got == pytest.approx(want, rel=8 * np.finfo(float).eps, abs=0)

    def test_diagonal_rows_are_exact(self):
        A = np.array([[[3.0, 0.0, 0.0], [0.0, -4.0, 0.0]], [[0.0, 0.0, 0.5], [0.0, 0.0, 0.0]]])
        assert norm2_many(A).tolist() == [4.0, 0.5]
        assert norm2_many(A[:, :1]).tolist() == [3.0, 0.5]


class TestGPrime:
    @settings(max_examples=200, deadline=None)
    @given(stacks())
    def test_stacked_matches_scalar(self, A):
        assert g_prime_many(A).tolist() == [g_prime(LinearMap(a)) for a in A]

    def test_zero_matrix(self):
        assert g_prime(LinearMap(np.zeros((2, 3)))) == 0.0

    def test_diagonal(self):
        assert g_prime(LinearMap([[3.0, 0.0], [0.0, 4.0]])) == pytest.approx(3.0)

    def test_single_row(self):
        assert g_prime(LinearMap([[1.0, 2.0, 2.0]])) == pytest.approx(2.0)

    def test_continuity_under_shrinking_perturbations(self):
        rng = np.random.default_rng(11)
        A = rng.standard_normal((2, 4))
        E = rng.standard_normal((2, 4))
        E /= np.linalg.norm(E, ord=2)
        base = g_prime(LinearMap(A))
        resid = [abs(g_prime(LinearMap(A + eps * E)) - base)
                 for eps in (1e-2, 1e-4, 1e-6)]
        assert resid[0] >= resid[1] >= resid[2]
        assert resid[2] < 1e-5


random_mats = arrays(np.float64, (2, 4),
                     elements=st.floats(-10, 10, allow_nan=False))


class TestNuProperties:
    @settings(max_examples=100, deadline=None)
    @given(random_mats, random_mats)
    def test_lipschitz(self, a, b):
        gap = np.linalg.norm(a - b, ord=2)
        assert abs(nu(LinearMap(a)) - nu(LinearMap(b))) <= gap + 1e-12

    @settings(max_examples=100, deadline=None)
    @given(random_mats, random_mats)
    def test_perturbation(self, a, b):
        assert nu(LinearMap(a + b)) >= nu(LinearMap(a)) - np.linalg.norm(b, ord=2) - 1e-12

    def test_lipschitz_bulk(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            a = rng.standard_normal((2, 3))
            b = rng.standard_normal((2, 3))
            assert abs(nu(LinearMap(a)) - nu(LinearMap(b))) \
                <= np.linalg.norm(a - b, ord=2) + 1e-12


class TestRealify:
    def test_imaginary_unit(self):
        R = realify([[1j]])
        np.testing.assert_allclose(R.entries, [[0.0, -1.0], [1.0, 0.0]])
        assert nu(R) == pytest.approx(1.0)

    def test_real_scalar(self):
        R = realify([[3.0 + 0j]])
        np.testing.assert_allclose(R.entries, [[3.0, 0.0], [0.0, 3.0]])
        assert nu(R) == pytest.approx(3.0)

    def test_preserves_smallest_singular_value(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            A = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
            assert nu(realify(A)) == pytest.approx(
                np.linalg.svd(A, compute_uv=False)[-1], abs=1e-10)

    def test_rejects_tall_and_nonfinite(self):
        with pytest.raises(InvalidInputError):
            realify([[1j], [2.0]])
        with pytest.raises(InvalidInputError):
            realify([[np.inf * 1j, 1.0]])


class TestEquivalenceBand:
    def test_diagonal_equal_entries_ratio_one(self):
        for d in (0.5, 1.0, 2.0):
            A = LinearMap([[d, 0.0], [0.0, d]])
            assert nu(A) / g_prime(A) == pytest.approx(1.0)

    def test_band_regression_seed42(self):
        # frozen from the first run; deterministic by seed
        lo, hi = equivalence_constants_sample((2, 3), 1000, 42)
        assert 0 < lo <= hi < np.inf
        assert lo == pytest.approx(0.5811056848343619, rel=1e-9)
        assert hi == pytest.approx(1.3520736041354255, rel=1e-9)

    def test_zero_matrix_skipped(self):
        # scale 0 collapses every draw to the zero matrix: nu = g' = 0 is
        # asserted internally and the draw is skipped, leaving an empty band
        lo, hi = equivalence_constants_sample((2, 3), 5, 0, scale=0.0)
        assert lo == np.inf and hi == 0.0

    def test_zero_g_prime_with_positive_nu_raises(self, monkeypatch):
        # the message names the first offending draw
        monkeypatch.setattr(linmap, "nu_many", lambda a: np.arange(1.0, len(a) + 1))
        with pytest.raises(MinorIdentityError, match="nu = 1.000e"):
            equivalence_constants_sample((2, 3), 5, 0, scale=0.0)

    @pytest.mark.parametrize("dims", [(1, 1), (1, 3), (2, 2), (2, 3), (2, 5),
                                      (3, 3), (3, 4), (3, 6)])
    def test_stack_matches_one_matrix_per_draw(self, dims):
        for seed in (0, 1, 2):
            for count in (1, 50, 500):
                assert (equivalence_constants_sample(dims, count, seed)
                        == equivalence_constants_reference(dims, count, seed))
        assert (equivalence_constants_sample(dims, 5, 0, scale=0.0)
                == equivalence_constants_reference(dims, 5, 0, scale=0.0))

    def test_sandwich_zero_iff_zero(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            A = LinearMap(rng.standard_normal((2, 4)))
            v, g = nu(A), g_prime(A)
            assert (v < 1e-12) == (g < 1e-12)
