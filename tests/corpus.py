"""A seeded corpus of germs whose verdict is known by construction.

Planted "fails": f = L^2 g (m = 1) or (L^2 g, h) (m = 2), L a linear form with
small integer coefficients, at least two of them nonzero, and g, h random
with small integer coefficients, homogeneous or not. Then df has rank < m on
the hyperplane {L = 0}, which reaches off Z (Z = {0} or {x1 = 0}), so the
inequality fails at every k. The probes are planted the same way by hand.
Exact "holds": sum a_i x_i^d with every a_i > 0 and positive definite
quadratic forms, whose gradients vanish only at 0, at k >= d, and each
bundled scalar germ at a k where its verdict is known.

Each case names a certificate that ``test_corpus.py`` checks exactly:
``factor`` (factor^2 divides the first component), ``point`` (a rational
point off Z where df has rank < m) and ``segment`` (two points, with one
coordinate of Z nonzero and equal, where the factor changes sign).
"""

from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from jetsuff.germ import AnalyticZ, PolyGermMap, load_germ
from jetsuff.poly import Poly

GERMS = Path(__file__).resolve().parent.parent / "germs"
# bundled scalar germ: the k at which its verdict is known
BUNDLED = {"x2": None, "sum_of_squares": None, "x2y2": None, "x3": 3, "x4": 4,
           "x2_x4": 4, "x3_x1x4": 3}


@dataclass(frozen=True)
class Case:
    name: str
    f: PolyGermMap
    z: AnalyticZ
    truth: str  # "fails" or "holds"
    reason: str
    factor: Poly | None = None
    point: tuple | None = None
    segment: tuple | None = None


def mul(p: Poly, q: Poly) -> Poly:
    terms = {}
    for e, c in p.terms.items():
        for e2, c2 in q.terms.items():
            t = tuple(a + b for a, b in zip(e, e2))
            terms[t] = terms.get(t, 0) + c * c2
    return Poly(p.n, terms)


def random_poly(rng, n: int, degrees) -> Poly:
    """Small integer coefficients on random monomials of the given total degrees."""
    terms = {}
    for d in degrees:
        for _ in range(3):
            e = rng.multinomial(d, [1 / n] * n)
            terms[tuple(int(v) for v in e)] = int(rng.integers(1, 4)) * int(rng.choice([-1, 1]))
    return Poly(n, terms)


def zero_off_z(a) -> tuple:
    """A rational point of {L = 0}, L = sum a_i x_i with two a_i nonzero, off
    {0} and off {x1 = 0}."""
    i, j = np.flatnonzero(a)[:2]
    p = [Fraction(0)] * len(a)
    p[i], p[j] = Fraction(int(a[j])), Fraction(-int(a[i]))
    if i > 0:  # a_1 = 0, so e_1 stays on {L = 0}
        p[0] = Fraction(1)
    return tuple(p)


def planted(seed: int, n: int, m: int, homogeneous: bool, origin: bool) -> Case:
    rng = np.random.default_rng(seed)
    while np.count_nonzero(a := rng.integers(-3, 4, size=n)) < 2:
        pass
    L = Poly(n, {tuple(int(i == c) for i in range(n)): int(a[c]) for c in range(n)})
    z = AnalyticZ(n=n, form="subspace", coords=tuple(range(1, n + 1)) if origin else (1,))
    g = random_poly(rng, n, [2] if homogeneous else [1, 2])
    comps = [mul(mul(L, L), g)] + [random_poly(rng, n, [4] if homogeneous else [2, 3])
                                   for _ in range(m - 1)]
    return Case(f"planted m={m} n={n} seed={seed}" + " homogeneous" * homogeneous,
                PolyGermMap(n, m, 4, comps), z, "fails",
                "df has rank < m on {L = 0}: L^2 divides the first component", L, zero_off_z(a))


def probes() -> list[Case]:
    x1z = AnalyticZ(n=2, form="subspace", coords=(1,))
    q = Poly(2, {(0, 2): 1, (2, 0): -2})
    return [
        Case("probe x1^2 x2^2", PolyGermMap(2, 1, 4, [Poly(2, {(2, 2): 1})]), x1z, "fails",
             "df = 0 on the x1 axis", Poly(2, {(0, 1): 1}), (1, 0)),
        Case("probe (x2^2 - 2 x1^2)^2", PolyGermMap(2, 1, 4, [mul(q, q)]), x1z, "fails",
             "df = 0 on x2 = +-sqrt(2) x1", q, segment=((1, 1), (1, 2))),
        Case("probe x1^2 x2^2 + x3^4", PolyGermMap(3, 1, 4, [Poly(3, {(2, 2, 0): 1, (0, 0, 4): 1})]),
             AnalyticZ(n=3, form="subspace", coords=(1,)), "fails", "df = 0 on the x1 axis",
             point=(1, 0, 0)),
    ]


def healthy(seed: int) -> list[Case]:
    rng, cases = np.random.default_rng(seed), []
    for n in (2, 3, 4):
        for d in (2, 4):
            a = rng.integers(1, 6, size=n)
            f = Poly(n, {tuple(d * (i == c) for i in range(n)): int(a[c]) for c in range(n)})
            for coords in (tuple(range(1, n + 1)), (1,)):
                for k in (d, d + 2):
                    cases.append(Case(f"sum a_i x_i^{d} n={n} k={k} Z={coords}",
                                      PolyGermMap(n, 1, k, [f]), AnalyticZ(n, "subspace", coords),
                                      "holds", "the gradient vanishes only at 0"))
        B = rng.integers(-2, 3, size=(n, n))
        A = B.T @ B + np.eye(n, dtype=int)
        f = sum((Poly(n, {tuple(int(r == i) + int(r == j) for r in range(n)): int(A[i, j])})
                 for i in range(n) for j in range(n)), Poly(n))
        cases.append(Case(f"positive definite quadratic n={n}", PolyGermMap(n, 1, 2, [f]),
                          AnalyticZ(n, "subspace", tuple(range(1, n + 1))), "holds",
                          "the gradient 2Ax vanishes only at 0"))
    return cases


def bundled() -> list[Case]:
    cases = []
    for name, k in BUNDLED.items():
        f, z = load_germ(GERMS / f"{name}.json")
        f = f if k is None else PolyGermMap(f.n, f.m, k, f.components)
        cases.append(Case(f"bundled {name} k={f.k}", f, z, "holds",
                          "the gradient vanishes only on Z"))
    return cases


def corpus(seed: int = 0) -> list[Case]:
    """Every case: 48 planted with m = 1 and 8 with m = 2, the 3 probes and 34
    healthy (24 sums of powers, 3 quadratic forms and 7 bundled germs)."""
    cases = [planted(seed * 1000 + s, n, 1, h, o)
             for n in (2, 3, 4) for h in (True, False) for o in (True, False) for s in range(4)]
    cases += [planted(seed * 1000 + 100 + s, n, 2, h, False)
              for n in (3, 4) for h in (True, False) for s in range(2)]
    return cases + probes() + healthy(seed) + bundled()
