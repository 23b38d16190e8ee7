"""Exact multivariate polynomials with rational (or float) coefficients.

A polynomial in ``n`` variables is a mapping from exponent tuples to
coefficients, e.g. ``x0**2 * x1`` in 3 variables is ``{(2, 1, 0): 1}``.
Coefficients are :class:`fractions.Fraction` whenever the inputs allow it,
so differentiation and jets are exact.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import InvalidInputError

Exponents = tuple[int, ...]


def _point(x, n: int) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (n,):
        raise InvalidInputError(f"point dimension {x.shape} != ({n},)")
    return x


def _as_coeff(c):
    if isinstance(c, Fraction):
        return c
    return Fraction(c) if isinstance(c, (int, str)) else float(c)


class Poly:
    """Immutable dense-exponent sparse-term polynomial in ``n`` variables."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: dict[Exponents, object] | None = None):
        if n < 1:
            raise InvalidInputError("need at least one variable")
        self.n, self.terms = n, {}
        # keys that pass the integer check are distinct tuples: no two terms merge
        for e, c in (terms or {}).items():
            ints = tuple(int(k) for k in e)
            # int() alone would read 2.5 as 2 and True as 1
            if any(isinstance(k, (bool, np.bool_)) or k != i for k, i in zip(e, ints)):
                raise InvalidInputError(f"exponents must be integers, got {tuple(e)!r}")
            if len(ints) != n or any(not 0 <= k < 2 ** 63 for k in ints):  # 63 squares at most
                raise InvalidInputError(f"bad exponent tuple {ints} for n={n}")
            c = _as_coeff(c)
            if c != 0:
                self.terms[ints] = c

    # ------------------------------------------------------------------ algebra

    def __add__(self, other: "Poly") -> "Poly":
        if self.n != other.n:
            raise InvalidInputError("variable count mismatch")
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, 0) + c
        return Poly(self.n, terms)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + other.scale(-1)

    def scale(self, c) -> "Poly":
        c = _as_coeff(c)
        return Poly(self.n, {e: v * c for e, v in self.terms.items()})

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def __repr__(self):
        return f"Poly(n={self.n}, terms={self.terms!r})"

    # ------------------------------------------------------------------ calculus

    def deriv(self, i: int) -> "Poly":
        """Exact partial derivative with respect to variable ``i``."""
        terms: dict[Exponents, object] = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            d = list(e)
            d[i] -= 1
            terms[tuple(d)] = c * e[i]
        return Poly(self.n, terms)

    def jet(self, a, k: int) -> "Poly":
        """The terms of degree <= k of q(u) = p(a + u), exactly: c x^e gives
        c prod_i C(e_i, b_i) a_i^(e_i - b_i) u^b for each b <= e with |b| <= k,
        listing no factor that is exactly 0 (a_i = 0, b_i < e_i). Float entries
        of ``a`` and float coefficients become Fraction exactly, so nothing rounds."""
        if len(a) != self.n:
            raise InvalidInputError(f"point dimension ({len(a)},) != ({self.n},)")
        a = [Fraction(x) for x in a]
        terms: dict[Exponents, object] = {}
        for e, c in self.terms.items():
            parts = [((), 0, Fraction(c))]  # (b_1..b_i, their sum, product so far)
            for ai, ei in zip(a, e):
                factors = [(b, math.comb(ei, b) * ai ** (ei - b))
                           for b in range(min(ei, k) + 1) if ai or b == ei]
                parts = [(b + (bi,), d + bi, v * f) for b, d, v in parts
                         for bi, f in factors if d + bi <= k]
            for b, _, v in parts:
                terms[b] = terms.get(b, 0) + v
        return Poly(self.n, terms)

    # ------------------------------------------------------------------ evaluation

    def eval(self, x) -> float:
        return float(self.eval_many(_point(x, self.n)[None, :])[0])

    def eval_many(self, X: np.ndarray) -> np.ndarray:
        """Values at the rows of ``X`` (shape (N, n)), shape (N,)."""
        return PolyStack(self.n, [self]).eval_many(np.asarray(X, dtype=float))[:, 0]


class PolyStack:
    """Polynomials in n variables, evaluated together at the rows of X without
    pow, whose array form costs about 80 ns a power and rounds by the shape of
    the exponent array. Table row b * n + i holds x_i^(2^b) while b is below
    x_i's top exponent bit, and a last row holds ones. A term is the product,
    left to right, of the rows its exponent bits select (by variable, lowest
    bit first; none for exponent 0) times its coefficient, and a polynomial a
    left-to-right sum from +0.0 over a (most terms x polynomials) table padded
    with 0 * 1. So a row gets the same bits alone as among N, and |computed -
    exact| <= gamma_(M+T) sum_t |c_t m_t(x)|, M the largest total degree, T the
    most terms (Higham 2002, sec. 3.1), barring overflow and underflow."""

    def __init__(self, n: int, polys):
        top = np.array([[k.bit_length() for k in e] for p in polys for e in p.terms] + [[0] * n]).max(0)
        # step b squares block b - 1's span of the variables with top > b; `live` masks the rest
        self.bits, self.steps = max(1, top.max()), [
            (slice(b * n - n + lo, b * n - n + hi), slice(b * n + lo, b * n + hi),
             (m := top[lo:hi, None] > b).all() or m) for b in range(1, top.max())
            for v in [np.flatnonzero(top > b)] for lo, hi in [(v[0], v[-1] + 1)]]
        terms = [[([b * n + i for i, k in enumerate(e) for b in range(k.bit_length()) if k >> b & 1],
                   float(c)) for e, c in p.terms.items()] for p in polys]
        self.shape = (max([len(ts) for ts in terms] + [1]), len(polys))
        depth = max([len(f) for ts in terms for f, _ in ts] + [1])
        factors, coeffs = np.full(self.shape + (depth,), self.bits * n), np.zeros(self.shape)
        for r, ts in enumerate(terms):
            for t, (f, c) in enumerate(ts):
                factors[t, r, :len(f)], coeffs[t, r] = f, c
        self.factors, self.coeffs = factors.reshape(-1, depth).T, coeffs.reshape(-1, 1)

    def eval_many(self, X: np.ndarray) -> np.ndarray:
        """Values at the rows of ``X`` (shape (N, n)), one column per polynomial."""
        n = X.shape[1]
        table = np.empty((self.bits * n + 1, len(X)))
        table[:n], table[-1] = X.T, 1.0
        for src, dst, live in self.steps:
            np.multiply(table[src], table[src], out=table[dst], where=live)
        terms = table[self.factors[0]]
        for f in self.factors[1:]:
            terms *= table[f]
        terms = np.multiply(terms, self.coeffs, out=terms).reshape(*self.shape, len(X))
        return np.ascontiguousarray(sum(terms, 0.0).T)  # left to right from +0.0
