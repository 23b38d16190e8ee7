"""The distance-to-nonsurjectivity function nu and its minor surrogate g'.

For an m x n real matrix (m <= n) with Euclidean norms on both sides,
``nu(A)`` is the smallest singular value: the infimum of ``|A^T phi|`` over
unit covectors phi, and the distance from A to the rank-deficient maps.
``g_prime(A)`` is the computable surrogate built from ratios of maximal
minors to their largest subminors; the two are equivalent up to constants
depending only on (m, n).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, MinorIdentityError


@dataclass(frozen=True)
class LinearMap:
    """Dense real m x n matrix, m <= n, finite entries."""

    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.entries, dtype=float))
        if a.ndim != 2:
            raise InvalidInputError("entries must be a 2-d array")
        m, n = a.shape
        if m > n:
            raise InvalidInputError(f"need m <= n, got {m}x{n}")
        if not np.all(np.isfinite(a)):
            raise InvalidInputError("entries must be finite")
        object.__setattr__(self, "entries", a)


def row_norms(a) -> np.ndarray:
    """|row| for each row of ``a``: one dot per contiguous row, the bits of
    np.linalg.norm(row) on that row alone, which norm(axis=-1) is not."""
    a = np.ascontiguousarray(a)
    return np.sqrt(np.vecdot(a, a))


def nu_many(a: np.ndarray) -> np.ndarray:
    """Smallest singular value of each matrix in ``a`` (shape (..., m, n)),
    matrix by matrix: the row norm when m = 1, else a stacked SVD."""
    if a.shape[-2] == 1:
        return row_norms(a[..., 0, :])
    return np.linalg.svd(a, compute_uv=False)[..., -1]


def norm2_many(a: np.ndarray) -> np.ndarray:
    """Largest singular value (the operator 2-norm) of each matrix in ``a``
    (shape (..., m, n)): the row norm when m = 1; when m = 2 the root of the
    larger eigenvalue of the Gram matrix [[p, q], [q, r]] of the rows,
    sqrt((p + r)/2 + sqrt(((p - r)/2)^2 + q^2)); else a stacked SVD."""
    if a.shape[-2] == 1:
        return row_norms(a[..., 0, :])
    if a.shape[-2] == 2:
        a = np.ascontiguousarray(a)
        top, bottom = a[..., 0, :], a[..., 1, :]
        p, q, r = np.vecdot(top, top), np.vecdot(top, bottom), np.vecdot(bottom, bottom)
        return np.sqrt((p + r) / 2 + np.sqrt(((p - r) / 2) ** 2 + q ** 2))
    return np.linalg.svd(a, compute_uv=False)[..., 0]


def nu(A: LinearMap) -> float:
    """Smallest singular value of A; zero iff A is not surjective."""
    return float(nu_many(A.entries))


@functools.lru_cache(maxsize=None)
def _minor_plan(m: int, n: int):
    """Index arrays for ``minor_table`` on m x n matrices (read-only, shared)."""
    sets = list(itertools.combinations(range(n), m))
    subsets = list(itertools.combinations(range(n), m - 1))
    where = {J: s for s, J in enumerate(subsets)}
    # drop[s, l]: index in ``subsets`` of column set s without its l-th column
    drop = [[where[I[:l] + I[l + 1:]] for l in range(m)] for I in sets]
    rows = [[r for r in range(m) if r != j] for j in range(m)]
    sign = (-1.0) ** np.add.outer(np.arange(m), np.arange(m))
    # flat indices into a row-major m x n matrix: block[s, r, c] of a[r, I[c]];
    # for m = 2, num[s, l, j] is a[1 - j, I[1 - l]], block[s, 1 - j, 1 - l], signed
    block = np.array([[[r * n + c for c in I] for r in range(m)] for I in sets])
    plan = (np.array(sets), np.array(subsets), np.array(drop), np.array(rows), sign,
            block, block[:, ::-1, ::-1].transpose(0, 2, 1).copy())
    for a in plan:
        a.setflags(write=False)
    return plan


def minor_table(a: np.ndarray):
    """Maximal minors of m x n arrays and the subminors inside them.

    ``a`` has shape (..., m, n): one matrix, or a stack of them along any
    leading batch axes. Returns ``(cols, M, h, num)`` over the m-column sets
    I in lexicographic order: ``cols[s]`` holds the 0-based columns of I,
    ``M[..., s] = det a[..., :, I]``, ``h[..., s]`` is the largest
    |(m-1)-subminor| inside I (1 when m = 1) and
    ``num[..., s, l, j] = (-1)^(l+j) det(a without row j, I without column l)``,
    so that w_l = sum_j num[s, l, j] b_j / M[s] solves a[:, I] w = b by
    Cramer's rule. Every (m-1)-subminor is computed once per matrix; 1 x 1
    blocks are the entries themselves (one signed gather). Each matrix of a
    stack gets the same arithmetic as on its own, so stacked results equal
    per-matrix ones bit for bit.
    """
    *batch, m, n = a.shape
    cols, subsets, drop, rows, sign, block, entry = _minor_plan(m, n)
    if m == 1:
        return cols, a[..., 0, :], np.ones((*batch, n)), np.ones((*batch, n, 1, 1))
    flat = a.reshape(*batch, m * n)
    M = np.linalg.det(flat.take(block, axis=-1))
    if m == 2:
        num = sign * flat.take(entry, axis=-1)
    else:  # det of (..., j, J, m-1, m-1): a without row j, on the columns of J
        sub = np.linalg.det(a[..., rows[:, None, :, None], subsets[None, :, None, :]])
        num = sign * np.moveaxis(sub[..., drop], -3, -1)
    return cols, M, np.abs(num).max(axis=(-2, -1)), num


def g_prime_many(a: np.ndarray) -> np.ndarray:
    """g' of each m x n matrix in ``a`` (shape (..., m, n)): the max over
    column sets I of |M_I| / h_I, with the convention 0/0 = 0."""
    _, M, h, _ = minor_table(a)
    nonzero = M != 0.0
    # an m x m minor whose (m-1)-subminors all vanish is itself zero for
    # m >= 2; for m = 1 the convention gives h = 1
    if np.any(nonzero & (h == 0.0)):
        raise MinorIdentityError("nonzero minor with vanishing subminors")
    ratio = np.divide(np.abs(M), h, out=np.zeros(np.shape(M)), where=nonzero)
    return ratio.max(axis=-1)


def g_prime(A: LinearMap) -> float:
    """max over column sets I of |M_I| / h_I, with the convention 0/0 = 0."""
    return float(g_prime_many(A.entries))


def realify(entries) -> LinearMap:
    """2m x 2n real representation of a complex m x n matrix (m <= n,
    finite entries): a+bi -> [[a, -b], [b, a]] blocks.

    The smallest singular value of the result equals the complex one, so
    distance to the nonsurjective maps is preserved. Non-finite entries are
    rejected by ``LinearMap`` on the result.
    """
    a = np.atleast_2d(np.asarray(entries, dtype=complex))
    m, n = a.shape
    if m > n:
        raise InvalidInputError(f"need m <= n, got {m}x{n}")
    out = np.zeros((2 * m, 2 * n))
    re, im = a.real, a.imag
    out[0::2, 0::2] = re
    out[0::2, 1::2] = -im
    out[1::2, 0::2] = im
    out[1::2, 1::2] = re
    return LinearMap(out)


def equivalence_constants_sample(dims: tuple[int, int], count: int, seed: int,
                                 scale: float = 1.0) -> tuple[float, float]:
    """Empirical band [c_low, c_high] of nu/g' over ``count`` random matrices.

    Matrices with g' = 0 are skipped after checking nu = 0 there (the two
    vanish together).
    """
    if count < 1:
        raise InvalidInputError("count must be >= 1")
    m, n = dims
    if m > n:
        raise InvalidInputError(f"need m <= n, got {m}x{n}")
    A = scale * np.random.default_rng(seed).standard_normal((count, m, n))
    if not np.all(np.isfinite(A)):
        raise InvalidInputError("entries must be finite")
    g, v = g_prime_many(A), nu_many(A)
    skip = g == 0.0
    bad = skip & (v >= 1e-12)
    if bad.any():
        raise MinorIdentityError(f"g' = 0 but nu = {v[bad][0]:.3e} > 0")
    r = v[~skip] / g[~skip]
    return float(r.min(initial=np.inf)), float(r.max(initial=0.0))
