"""Exact multivariate polynomials with rational (or float) coefficients.

A polynomial in ``n`` variables is a mapping from exponent tuples to
coefficients, e.g. ``x0**2 * x1`` in 3 variables is ``{(2, 1, 0): 1}``.
Coefficients are :class:`fractions.Fraction` whenever the inputs allow it,
so differentiation, Taylor shifts and truncation are exact.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import InvalidInputError

Exponents = tuple[int, ...]


def _as_coeff(c):
    if isinstance(c, Fraction):
        return c
    return Fraction(c) if isinstance(c, (int, str)) else float(c)


class Poly:
    """Immutable dense-exponent sparse-term polynomial in ``n`` variables."""

    __slots__ = ("n", "terms", "_stack")

    def __init__(self, n: int, terms: dict[Exponents, object] | None = None):
        if n < 1:
            raise ValueError("need at least one variable")
        clean: dict[Exponents, object] = {}
        for e, c in (terms or {}).items():
            ints = tuple(int(k) for k in e)
            # int() alone would read 2.5 as 2 and True as 1
            if any(isinstance(k, (bool, np.bool_)) or k != i for k, i in zip(e, ints)):
                raise InvalidInputError(f"exponents must be integers, got {tuple(e)!r}")
            e = ints
            if len(e) != n or any(not 0 <= k < 2 ** 63 for k in e):  # PolyStack's int64
                raise ValueError(f"bad exponent tuple {e} for n={n}")
            c = _as_coeff(c)
            if c != 0:
                clean[e] = clean.get(e, 0) + c if e in clean else c
        self.n = n
        self.terms = {e: c for e, c in clean.items() if c != 0}
        self._stack = None

    @classmethod
    def zero(cls, n: int) -> "Poly":
        return cls(n, {})

    @classmethod
    def constant(cls, n: int, c) -> "Poly":
        return cls(n, {(0,) * n: c})

    # ------------------------------------------------------------------ algebra

    def __add__(self, other: "Poly") -> "Poly":
        if self.n != other.n:
            raise ValueError("variable count mismatch")
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, 0) + c
        return Poly(self.n, terms)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + other.scale(-1)

    def __mul__(self, other: "Poly") -> "Poly":
        if self.n != other.n:
            raise ValueError("variable count mismatch")
        terms: dict[Exponents, object] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = terms.get(e, 0) + c1 * c2
        return Poly(self.n, terms)

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

    def truncated(self, k: int) -> "Poly":
        """Drop every term of total degree above ``k``."""
        return Poly(self.n, {e: c for e, c in self.terms.items() if sum(e) <= k})

    def shifted(self, a) -> "Poly":
        """Return q with q(u) = p(a + u), expanded exactly.

        Float entries of ``a`` are converted to Fraction exactly, so the
        shift itself introduces no rounding when coefficients are rational.
        """
        a = [Fraction(x) if not isinstance(x, Fraction) else x for x in a]
        out = Poly.zero(self.n)
        for e, c in self.terms.items():
            term = Poly.constant(self.n, c)
            for i, ei in enumerate(e):
                if ei == 0:
                    continue
                # (a_i + u_i)^ei by binomial expansion
                fac = Poly(self.n, {
                    tuple(j if v == i else 0 for v in range(self.n)):
                        Fraction(math.comb(ei, j)) * a[i] ** (ei - j)
                    for j in range(ei + 1)
                })
                term = term * fac
            out = out + term
        return out

    # ------------------------------------------------------------------ evaluation

    def eval(self, x) -> float:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise ValueError(f"point dimension {x.shape} != ({self.n},)")
        return float(self.eval_many(x[None, :])[0])

    def eval_many(self, X: np.ndarray) -> np.ndarray:
        """Values at the rows of ``X`` (shape (N, n)), shape (N,)."""
        if self._stack is None:
            self._stack = PolyStack(self.n, [self])
        return self._stack.eval_many(np.asarray(X, dtype=float))[:, 0]


class PolyStack:
    """Polynomials in n variables, evaluated together at the rows of X.

    One power table ``prod(X[:, None, :] ** E, axis=2)`` covers the terms of
    every polynomial; each polynomial is the ``np.vecdot`` of its own block
    of columns with its coefficients, one dot product per row, so a point
    gets the same bits alone (a one-row stack) as among N points.
    """

    def __init__(self, n: int, polys):
        exps, self.blocks = [], []
        for p in polys:
            start = len(exps)
            exps.extend(p.terms)
            coeffs = np.array([float(c) for c in p.terms.values()])
            self.blocks.append((start, len(exps), coeffs))
        self.exps = np.array(exps, dtype=np.int64).reshape(-1, n)

    def eval_many(self, X: np.ndarray) -> np.ndarray:
        """Values at the rows of ``X`` (shape (N, n)), one column per polynomial."""
        table = np.prod(X[:, None, :] ** self.exps, axis=2)
        out = np.empty((X.shape[0], len(self.blocks)))
        for i, (start, stop, coeffs) in enumerate(self.blocks):
            out[:, i] = np.vecdot(table[:, start:stop], coeffs)
        return out
