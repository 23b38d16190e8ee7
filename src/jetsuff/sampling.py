"""Deterministic low-discrepancy point sets for annuli and balls."""

from __future__ import annotations

import functools
import importlib.util
import math
import statistics
import zipfile
from itertools import repeat
from pathlib import Path

import numpy as np

from .errors import InvalidInputError

SOBOL_BITS = 30  # scipy's default: Sobol points are multiples of 2^-30
# Joe and Kuo's primitive polynomials and initial direction numbers, one row
# per dimension, read from the table scipy ships, located without importing
# scipy (its package __init__ alone costs more start-up than this module)
_SCIPY = importlib.util.find_spec("scipy")
if _SCIPY is None:
    raise ImportError("scipy is not installed; jetsuff reads its Sobol direction numbers")
SOBOL_TABLE = Path(_SCIPY.submodule_search_locations[0]) / "stats" / "_sobol_direction_numbers.npz"
_MSB_FIRST = np.arange(SOBOL_BITS - 1, -1, -1)  # shift of the i-th highest bit
# Wichura's AS241 rational for |p - 1/2| <= 0.425, highest power first, with
# the digits of the standard library's NormalDist.inv_cdf
_AS241_NUM = (2.50908_09287_30122_6727e+3, 3.34305_75583_58812_8105e+4, 6.72657_70927_00870_0853e+4,
              4.59219_53931_54987_1457e+4, 1.37316_93765_50946_1125e+4, 1.97159_09503_06551_4427e+3,
              1.33141_66789_17843_7745e+2, 3.38713_28727_96366_6080e+0)
_AS241_DEN = (5.22649_52788_52854_5610e+3, 2.87290_85735_72194_2674e+4, 3.93078_95800_09271_0610e+4,
              2.12137_94301_58659_5867e+4, 5.39419_60214_24751_1077e+3, 6.87187_00749_20579_0830e+2,
              4.23133_30701_60091_1252e+1, 1.0)


def _npy_header(fp):
    """Shape, Fortran-order flag and dtype of the .npy stream ``fp``, left at its data."""
    fmt = np.lib.format
    read = {(1, 0): fmt.read_array_header_1_0, (2, 0): fmt.read_array_header_2_0}
    return read[fmt.read_magic(fp)](fp)


@functools.cache
def _directions(d: int) -> np.ndarray:
    """The unscrambled direction numbers of dimensions 0..d-1, (d, bits). Only
    the bytes in use are decompressed: the first d primitive polynomials, and
    the initial numbers below their largest degree, a column each."""
    with zipfile.ZipFile(SOBOL_TABLE) as table:
        with table.open("poly.npy") as fp:
            dtype = _npy_header(fp)[2]
            poly = np.frombuffer(fp.read(d * dtype.itemsize), dtype).tolist()
        with table.open("vinit.npy") as fp:
            (rows, _), fortran, dtype = _npy_header(fp)
            if not fortran:
                raise RuntimeError(f"{SOBOL_TABLE} no longer stores vinit by columns")
            cols = max(p.bit_length() for p in poly) - 1
            vinit = np.frombuffer(fp.read(cols * rows * dtype.itemsize), dtype)
    vinit = vinit.reshape(cols, rows)[:, :d].T.tolist()
    v = [[1] * SOBOL_BITS for _ in range(d)]
    for j in range(1, d):
        p, deg = poly[j], poly[j].bit_length() - 1
        v[j][:deg] = vinit[j][:deg]
        for i in range(deg, SOBOL_BITS):  # Bratley and Fox's recurrence
            v[j][i] = v[j][i - deg]
            for s in range(deg):
                if p >> (deg - 1 - s) & 1:
                    v[j][i] ^= v[j][i - s - 1] << (s + 1)
    out = np.array(v, dtype=np.int64) << _MSB_FIRST
    out.flags.writeable = False
    return out


def _sobol(d: int, count: int, seed: int) -> np.ndarray:
    """``qmc.Sobol(d, scramble=True, seed=seed).random_base2(m)[:count]`` bit
    for bit, m = max(1, ceil(log2(count))) (a power-of-two block keeps the
    Sobol balance): the same draws for the random shift and the LMS scramble,
    and the points in scipy's Gray-code order."""
    if count < 1:
        raise InvalidInputError(f"need at least one Sobol point per pattern, not {count}")
    if count > 2 ** SOBOL_BITS:  # the sequence has no more distinct points
        raise InvalidInputError(f"at most 2^{SOBOL_BITS} Sobol points per pattern, "
                                f"not {count}")
    rng = np.random.default_rng(seed)
    shift = rng.integers(0, 2, (d, SOBOL_BITS), dtype=np.uint32) @ (1 << np.arange(SOBOL_BITS))
    lower = np.tril(rng.integers(0, 2, (d, SOBOL_BITS, SOBOL_BITS), dtype=np.uint32), -1)
    # row p of each unit lower-triangular matrix as one integer, highest bit first;
    # bit p of a scrambled direction number is the parity of row p & v
    rows = (lower.astype(np.int64) << _MSB_FIRST).sum(axis=2) | (1 << _MSB_FIRST)
    bits = np.bitwise_count(rows[:, None, :] & _directions(d)[:, :, None]) & 1
    sv = (bits.astype(np.int64) << _MSB_FIRST).sum(axis=2)
    q = shift[None, :]
    for b in range(max(1, math.ceil(math.log2(count)))):  # reflected Gray code
        q = np.concatenate([q, q[::-1] ^ sv[:, b]])
    return q[:count] * 2.0 ** -SOBOL_BITS


def _normal_quantile(p: np.ndarray) -> np.ndarray:
    """``statistics.NormalDist().inv_cdf`` at every entry of p in (0, 1), bit
    for bit: the central rational in numpy, by Horner in the standard library's
    order; the tails, which take libm's log, through the standard library's kernel."""
    q = p - 0.5
    r = 0.180625 - q * q
    x = np.polyval(_AS241_NUM, r) * q / np.polyval(_AS241_DEN, r)
    tail = np.abs(q) > 0.425
    x[tail] = np.fromiter(map(statistics._normal_dist_inv_cdf, p[tail].tolist(),
                              repeat(0.0), repeat(1.0)), float, np.count_nonzero(tail))
    return x


def _gaussian_directions(u: np.ndarray) -> np.ndarray:
    """Unit rows from Sobol coordinates: the standard normal quantile (AS241)
    of each clipped coordinate, then each row normalised."""
    g = _normal_quantile(np.clip(u, 1e-12, 1 - 1e-12))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def _radial(n: int, count: int, seed: int, inner: float):
    """One Sobol pattern in R^n: unit directions, and radii with n-th powers even on [inner, 1]."""
    if n < 1:
        raise InvalidInputError(f"need at least one dimension, not {n}")
    u = _sobol(n + 1, count, seed)
    return _gaussian_directions(u[:, :n]), (inner + u[:, n] * (1.0 - inner)) ** (1.0 / n)


def unit_shell_sample(n: int, count: int, seed: int) -> np.ndarray:
    """Quasi-uniform points in the shell 1/2 <= |x| <= 1 of R^n.

    One fixed pattern per (n, count, seed); callers scale it per annulus so
    that annulus statistics are exactly scale-equivariant.
    """
    dirs, r = _radial(n, count, seed, 0.5 ** n)
    return dirs * r[:, None]


def ball_sample(n: int, count: int, seed: int, radius: float = 1.0) -> np.ndarray:
    """Quasi-uniform points in the ball of given radius."""
    dirs, r = _radial(n, count, seed, 0.0)  # 0.0 + u * 1.0 is u, bit for bit
    return radius * dirs * r[:, None]


def sphere_sample(m: int, count: int, seed: int) -> np.ndarray:
    """Quasi-uniform unit vectors in R^m (Sobol-driven Gaussian map)."""
    if m == 1:
        return np.array([[1.0], [-1.0]])
    return _gaussian_directions(_sobol(m, count, seed))
