"""Exact distribution and moment machinery for the leaf count and the
index catalog.

The leaf count of a tree at time n is 3 plus a Binomial(n - 1, p) variable,
because every step from the seed adds a leaf exactly when the centroid
recruits.  Everything in this module is built from that law:

* pmf and moment generating function of the leaf count;
* exact raw moments of any order, through a coefficient triangle that
  links the two derivative scales of the MGF (the triangle satisfies the
  Stirling-second-kind recurrence) and the factored falling-factorial
  derivatives at u = 1;
* a two-term large-n expansion of those moments;
* closed-form mean/variance formulas for every named index, plus the limit
  constants and CLT normalizers that go with them;
* ``oracle_moment``, ``oracle_variance`` and ``oracle_mean_variance`` (both
  from one pass), brute-force summations over the leaf-count support that
  never touch the closed forms and are used to verify all of them.

Passing ``p`` as a ``fractions.Fraction`` keeps any of these paths in
exact rational arithmetic; floats give ordinary binary64 results.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from typing import Optional, Union

from .indices import (
    GeneralizedZagreb,
    IndexSpec,
    UnknownIndexError,
    eval_reduced,
    horner,
)
from .tree import InvalidProbabilityError

__all__ = [
    "LeafLaw",
    "leaf_pmf",
    "support_pmf",
    "support_weights",
    "exact_mean_variance",
    "leaf_mgf",
    "affine_mgf",
    "coefficient_triangle",
    "leaf_raw_moment_exact",
    "leaf_raw_moment_asymptotic",
    "MomentExpansion",
    "leaf_moment_expansion",
    "PolyNP",
    "RationalFormula",
    "LimitLaw",
    "CltNormalizer",
    "AsymptoticMoments",
    "MomentCatalogEntry",
    "moment_catalog",
    "CATALOG_KEYS",
    "catalog_entry_json",
    "export_catalog_json",
    "oracle_moment",
    "oracle_variance",
    "oracle_mean_variance",
]

MAX_MOMENT_ORDER = 30


@dataclass(frozen=True)
class LeafLaw:
    """Distribution of the leaf count at time n: 3 + Binomial(n - 1, p)."""

    n: int
    p: Union[float, Fraction]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"time must be >= 1, got {self.n}")
        if not 0 < self.p < 1:
            raise InvalidProbabilityError(
                f"recruitment probability must satisfy 0 < p < 1, got {self.p!r}"
            )

    @property
    def support(self) -> range:
        return range(3, self.n + 3)


def leaf_pmf(law: LeafLaw, k: int):
    """P(leaf count = k); zero outside the support {3, ..., n + 2}."""
    j = k - 3
    m = law.n - 1
    if not 0 <= j <= m:
        return 0
    p = law.p
    return math.comb(m, j) * p ** j * (1 - p) ** (m - j)


def support_pmf(law: LeafLaw) -> list:
    """pmf over the whole support, in order k = 3, ..., n + 2.

    Exact for Fraction p (multiplicative binomial recurrence).  For float p
    the masses are built by the same ratio recurrence run outward from the
    mode, starting at 1 there, and normalized by their ``math.fsum``, so a
    mass carries only the roundings of the steps between it and the mode.
    Against the exact masses at n = 1000, p = 0.3, every mass above 1e-6 of
    the modal one is within 7e-15 relative and every mass within 3e-17
    absolute; masses far in the tails underflow to 0.
    """
    m = law.n - 1
    p = law.p
    if isinstance(p, Fraction):
        q = 1 - p
        w = q ** m
        out = [w]
        for j in range(m):
            w = w * (m - j) * p / ((j + 1) * q)
            out.append(w)
        return out
    q = 1 - p
    mode = min(m, int((m + 1) * p))
    out = [0.0] * (m + 1)
    out[mode] = w = 1.0
    for j in range(mode, m):
        w *= (m - j) * p / ((j + 1) * q)
        out[j + 1] = w
    w = 1.0
    for j in range(mode, 0, -1):
        w *= j * q / ((m - j + 1) * p)
        out[j - 1] = w
    total = math.fsum(out)
    return [w / total for w in out]


def support_weights(law: LeafLaw) -> tuple[list[int], int]:
    """pmf over the whole support as integer numerators over one common
    denominator, for Fraction p.

    With p = a/c in lowest terms and m = n - 1, the mass of k = 3 + j is
    C(m, j) a**j (c - a)**(m - j) / c**m.  Returns those numerators, in
    order j = 0, ..., m, and c**m; the numerators sum to c**m.
    """
    a, c = law.p.numerator, law.p.denominator
    m = law.n - 1
    return [math.comb(m, j) * a ** j * (c - a) ** (m - j) for j in range(m + 1)], c ** m


def _integer_scaled(values) -> tuple[list[int], int]:
    """Integers x over the lcm d of the values' exact denominators, with
    x[i] / d == values[i] for ints, Fractions and floats."""
    ratios = [v.as_integer_ratio() for v in values]
    # Pairwise: math.lcm(*denominators) grew RSS on every call under CPython 3.11.
    d = reduce(math.lcm, (den for _, den in ratios), 1)
    return [num * (d // den) for num, den in ratios], d


def exact_mean_variance(weights: list[int], values) -> tuple[Fraction, Fraction]:
    """Exact mean and population variance of ``values[i]`` under the
    non-negative integer ``weights[i]``, W = sum(weights) in all.

    The values, ints, Fractions or floats, are scaled to integers x over
    one denominator d (``_integer_scaled``), so both sums stay in integers:
    S1 = sum w x and S2 = sum w x**2 give the mean S1 / (W d) and the
    variance (W S2 - S1**2) / (W d)**2.  A caller that reports floats
    rounds each once, its only rounding.
    """
    xs, d = _integer_scaled(values)
    total = sum(weights)
    wx = list(map(operator.mul, weights, xs))
    s1 = sum(wx)
    s2 = sum(map(operator.mul, wx, xs))
    scale = total * d
    return Fraction(s1, scale), Fraction(total * s2 - s1 * s1, scale * scale)


def leaf_mgf(law: LeafLaw, t: float) -> float:
    """Moment generating function of the leaf count at t."""
    p = float(law.p)
    return (1 - p + p * math.exp(t)) ** (law.n - 1) * math.exp(3 * t)


def affine_mgf(law: LeafLaw, a: float, b: float, t: float) -> float:
    """MGF of a*leaf_count + b; reduces to ``leaf_mgf`` at (a, b) = (1, 0)."""
    p = float(law.p)
    return (1 - p + p * math.exp(a * t)) ** (law.n - 1) * math.exp((3 * a + b) * t)


def coefficient_triangle(order: int) -> list[list[int]]:
    """Rows 1..order of the triangle C[a][i] linking the t- and u-scale
    derivatives of the MGF.

    Boundary C[a][1] = C[a][a] = 1 and interior
    C[a][i] = C[a-1][i-1] + i * C[a-1][i]; row a is returned as a list of a
    integers, entry i at offset i - 1.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    rows = [[1]]
    for a in range(2, order + 1):
        prev = rows[-1]
        row = [1]
        for i in range(2, a):
            row.append(prev[i - 2] + i * prev[i - 1])
        row.append(1)
        rows.append(row)
    return rows


def _falling(m: int, i: int) -> int:
    out = 1
    for j in range(i):
        out *= m - j
    return out


def leaf_raw_moment_exact(law: LeafLaw, order: int):
    """E[leaf_count**order], exact for Fraction p.

    Combines the coefficient triangle with the u-scale derivatives of the
    MGF at u = 1.  Writing the MGF as
    (u**(n+2) + 3(p-1) u**(n+1) + 3(p-1)^2 u**n + (p-1)^3 u**(n-1)) / p^3,
    the i-th u-derivative at 1 is a sum of four falling factorials.
    """
    if not 1 <= order <= MAX_MOMENT_ORDER:
        raise ValueError(f"order must be in [1, {MAX_MOMENT_ORDER}], got {order}")
    n, p = law.n, law.p
    weights = {2: 1, 1: 3 * (p - 1), 0: 3 * (p - 1) ** 2, -1: (p - 1) ** 3}
    row = coefficient_triangle(order)[order - 1]
    total = 0
    for i in range(1, order + 1):
        du = sum(w * _falling(n + k, i) for k, w in weights.items())
        total += row[i - 1] * p ** i * du
    return total / p ** 3


@dataclass(frozen=True)
class MomentExpansion:
    """Two-term large-n expansion of E[leaf_count**order]."""

    order: int
    leading: Union[float, Fraction]
    subleading: Union[float, Fraction]

    def evaluate(self, n: int):
        return self.leading * n ** self.order + self.subleading * n ** (self.order - 1)


def leaf_moment_expansion(p, order: int) -> MomentExpansion:
    """Expansion coefficients: p**a for n**a and
    (a/2)(a(1 - p) - p + 5) p**(a-1) for n**(a-1)."""
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    leading = p ** order
    subleading = Fraction(order, 2) * (order * (1 - p) - p + 5) * p ** (order - 1)
    return MomentExpansion(order, leading, subleading)


def leaf_raw_moment_asymptotic(n: int, p, order: int):
    """Two-term expansion value of E[leaf_count**order] at time n.

    For order 1 this equals the exact first moment identically.
    """
    return leaf_moment_expansion(p, order).evaluate(n)


# -- polynomial plumbing for the catalog --------------------------------------

def _exact_eval(fn, n, p):
    """Evaluate fn(n, p) in exact rational arithmetic.

    Float p is lifted to its exact binary value first, so identities that
    hold for every p (like variances vanishing at n = 1) survive the float
    path exactly instead of leaving rounding residue.
    """
    if isinstance(p, float):
        return float(fn(n, Fraction(p)))
    return fn(n, p)


def _coeff_json(c):
    if isinstance(c, Fraction):
        if c.denominator == 1:
            return int(c)
        return f"{c.numerator}/{c.denominator}"
    return c


@dataclass(frozen=True)
class PolyNP:
    """Polynomial in n with coefficients polynomial in p.

    ``rows[i]`` holds the p-coefficients (decreasing powers of p) of
    n**(deg - i); rows are listed in decreasing powers of n.  Evaluation
    runs across them: each column, the coefficient of one power of p as a
    polynomial in n (short rows padded with leading zeros), is evaluated
    at n first, in integers for integer n and integer coefficients, and
    one Horner pass in p then combines the columns.
    """

    rows: tuple[tuple, ...]

    def __call__(self, n, p):
        return _exact_eval(self._eval, n, p)

    @cached_property
    def _columns(self) -> tuple[tuple, ...]:
        width = max(map(len, self.rows))
        return tuple(zip(*((0,) * (width - len(row)) + tuple(row) for row in self.rows)))

    def _eval(self, n, p):
        return horner([horner(column, n) for column in self._columns], p)

    def to_json(self):
        return [[_coeff_json(c) for c in row] for row in self.rows]


@dataclass(frozen=True)
class RationalFormula:
    """PolyNP numerator over a polynomial-in-n denominator (default 1)."""

    num: PolyNP
    den: tuple[int, ...] = (1,)

    def __call__(self, n, p):
        return _exact_eval(self._eval, n, p)

    def _eval(self, n, p):
        return self.num._eval(n, p) / Fraction(horner(self.den, n))

    def to_json(self):
        return {"num": self.num.to_json(), "den": list(self.den)}


@dataclass(frozen=True)
class LimitLaw:
    """index / n**exponent converges (in probability and r-mean) to
    constant(p)."""

    exponent: int
    constant: tuple

    def constant_value(self, p):
        if isinstance(p, float):
            return float(horner(self.constant, Fraction(p)))
        return horner(self.constant, p)

    def to_json(self):
        return {"exponent": self.exponent, "constant": [_coeff_json(c) for c in self.constant]}


@dataclass(frozen=True)
class CltNormalizer:
    """(x - center(n, p)) / scale(n, p, k) is asymptotically standard normal,
    for every real shift k; scale = coeff * sqrt(p**a (1-p) (n+k)**m)."""

    center: PolyNP
    coeff: int
    p_power: int
    nk_power: int

    def scale_value(self, n, p, k=0.0) -> float:
        p = float(p)
        return self.coeff * math.sqrt(p ** self.p_power * (1 - p) * (n + k) ** self.nk_power)

    def to_json(self):
        return {
            "center": self.center.to_json(),
            "scale": {"coeff": self.coeff, "p_power": self.p_power, "nk_power": self.nk_power},
        }


@dataclass(frozen=True)
class AsymptoticMoments:
    """Two-term mean expansion and leading variance term for power sums of
    exponent alpha >= 3, where no closed-form polynomial is cataloged.

    The affine part of the power sum is O(n), which the expansion's
    O(n**(alpha-2)) remainder absorbs for alpha >= 3.
    """

    alpha: int

    def mean(self, n, p):
        return leaf_raw_moment_asymptotic(n, p, self.alpha)

    def variance_leading(self, n, p):
        a = self.alpha
        return a * a * (1 - p) * p ** (2 * a - 1) * n ** (2 * a - 1)


@dataclass(frozen=True)
class MomentCatalogEntry:
    """Everything the catalog knows about one index.

    ``mean``/``variance`` are exact closed forms (None when only the
    asymptotic expansion is available); ``limit`` is the scaled limit
    constant when one exists; ``clt`` the normalizer when one exists.
    """

    key: str
    mean: Optional[RationalFormula]
    variance: Optional[RationalFormula]
    limit: Optional[LimitLaw] = None
    clt: Optional[CltNormalizer] = None
    asymptotic: Optional[AsymptoticMoments] = None


H = Fraction(1, 2)

_LEAVES_MEAN = PolyNP(((1, 0), (-1, 3)))
_LEAVES_VAR = PolyNP(((-1, 1, 0), (1, -1, 0)))
_ZAGREB_MEAN = PolyNP(((1, 0, 0), (-3, 4, 4), (2, -4, 8)))
_ZAGREB_VAR = PolyNP((
    (-4, 4, 0, 0, 0),
    (22, -40, 18, 0, 0),
    (-38, 92, -70, 16, 0),
    (20, -56, 52, -16, 0),
))
_GS_MEAN = PolyNP(((H, 0, 0), (-3 * H, 2, 1), (1, -2, 2)))
_GS_VAR = PolyNP((
    (-1, 1, 0, 0, 0),
    (11 * H, -10, 9 * H, 0, 0),
    (-19 * H, 23, -35 * H, 4, 0),
    (5, -14, 13, -4, 0),
))
_PLATT_MEAN = PolyNP(((1, 0, 0), (-3, 4, 2), (2, -4, 4)))
_FORGOTTEN_MEAN = PolyNP(((1, 0, 0, 0), (-6, 12, 0, 0), (11, -36, 30, 8), (-6, 24, -30, 22)))
_FORGOTTEN_VAR = PolyNP((
    (-9, 9, 0, 0, 0, 0, 0),
    (117, -279, 162, 0, 0, 0, 0),
    (-591, 2061, -2376, 906, 0, 0, 0),
    (1431, -6201, 9918, -6876, 1728, 0, 0),
    (-1632, 8082, -15552, 14286, -6084, 900, 0),
    (684, -3672, 7848, -8316, 4356, -900, 0),
))
_GINI_MEAN_NUM = PolyNP(((-1, 2, 0), (3, -4, 4), (-2, 2, 2)))
_GINI_VAR_NUM = PolyNP((
    (-4, 12, -12, 4, 0),
    (22, -56, 46, -12, 0),
    (-38, 84, -58, 12, 0),
    (20, -40, 24, -4, 0),
))
_HOOVER_MEAN_NUM = PolyNP(((1, 0), (0, 3), (-1, 3)))
_HOOVER_VAR_NUM = PolyNP(((-1, 1, 0), (-1, 1, 0), (1, -1, 0), (1, -1, 0)))

# 2(n+3)(n+2) and 4(n+3)^2(n+2)^2 expanded in n.
_DEN_MEAN = (2, 10, 12)
_DEN_VAR = (4, 40, 148, 240, 144)

_LEAVES_CLT = CltNormalizer(center=_LEAVES_MEAN, coeff=1, p_power=1, nk_power=1)
_ZAGREB_CLT = CltNormalizer(center=PolyNP(((1, 0, 0), (0,), (0,))), coeff=2, p_power=3, nk_power=3)
_GS_CLT = CltNormalizer(center=PolyNP(((H, 0, 0), (0,), (0,))), coeff=1, p_power=3, nk_power=3)
_PLATT_CLT = CltNormalizer(center=PolyNP(((1, 0, 0), (0,), (0,))), coeff=2, p_power=3, nk_power=3)


_CATALOG: dict[str, MomentCatalogEntry] = {
    "leaves": MomentCatalogEntry(
        key="leaves",
        mean=RationalFormula(_LEAVES_MEAN),
        variance=RationalFormula(_LEAVES_VAR),
        clt=_LEAVES_CLT,
    ),
    "zagreb": MomentCatalogEntry(
        key="zagreb",
        mean=RationalFormula(_ZAGREB_MEAN),
        variance=RationalFormula(_ZAGREB_VAR),
        limit=LimitLaw(2, (1, 0, 0)),
        clt=_ZAGREB_CLT,
    ),
    "gordon_scantlebury": MomentCatalogEntry(
        key="gordon_scantlebury",
        mean=RationalFormula(_GS_MEAN),
        variance=RationalFormula(_GS_VAR),
        limit=LimitLaw(2, (H, 0, 0)),
        clt=_GS_CLT,
    ),
    "platt": MomentCatalogEntry(
        key="platt",
        mean=RationalFormula(_PLATT_MEAN),
        variance=RationalFormula(_ZAGREB_VAR),
        limit=LimitLaw(2, (1, 0, 0)),
        clt=_PLATT_CLT,
    ),
    "forgotten": MomentCatalogEntry(
        key="forgotten",
        mean=RationalFormula(_FORGOTTEN_MEAN),
        variance=RationalFormula(_FORGOTTEN_VAR),
        limit=LimitLaw(3, (1, 0, 0, 0)),
    ),
    "gini": MomentCatalogEntry(
        key="gini",
        mean=RationalFormula(_GINI_MEAN_NUM, _DEN_MEAN),
        variance=RationalFormula(_GINI_VAR_NUM, _DEN_VAR),
        limit=LimitLaw(0, (-H, 1, 0)),
    ),
    "hoover": MomentCatalogEntry(
        key="hoover",
        mean=RationalFormula(_HOOVER_MEAN_NUM, _DEN_MEAN),
        variance=RationalFormula(_HOOVER_VAR_NUM, _DEN_VAR),
        limit=LimitLaw(0, (H, 0)),
    ),
}

CATALOG_KEYS = tuple(_CATALOG)


def moment_catalog(index: IndexSpec) -> MomentCatalogEntry:
    """Catalog entry (mean/variance formulas, limit, CLT normalizer) for an
    index.

    Generalized Zagreb is cataloged for integer exponents: 1 is the
    deterministic edge/degree sum, 2 and 3 coincide with the Zagreb and
    forgotten entries, and exponents >= 4 carry the asymptotic expansion
    and the limit constant only.
    """
    if isinstance(index, GeneralizedZagreb):
        a = index.alpha
        if not (isinstance(a, int) or (isinstance(a, float) and a.is_integer())) or a < 1:
            raise UnknownIndexError(
                f"no catalog entry for generalized Zagreb exponent {a!r} "
                "(integer exponents >= 1 only)"
            )
        a = int(a)
        key = f"generalized_zagreb:{a}"
        if a == 1:
            # The power sum with exponent 1 is the degree sum 2(n + 2).
            return MomentCatalogEntry(
                key=key,
                mean=RationalFormula(PolyNP(((2,), (4,)))),
                variance=RationalFormula(PolyNP(((0,),))),
            )
        limit = LimitLaw(a, (1,) + (0,) * a)
        if a == 2:
            base = _CATALOG["zagreb"]
            return MomentCatalogEntry(key=key, mean=base.mean, variance=base.variance,
                                      limit=limit, clt=base.clt)
        if a == 3:
            base = _CATALOG["forgotten"]
            return MomentCatalogEntry(key=key, mean=base.mean, variance=base.variance,
                                      limit=limit, asymptotic=AsymptoticMoments(3))
        return MomentCatalogEntry(key=key, mean=None, variance=None, limit=limit,
                                  asymptotic=AsymptoticMoments(a))
    key = index.name
    try:
        return _CATALOG[key]
    except KeyError:
        raise UnknownIndexError(f"no moment catalog entry for index {key!r}") from None


def catalog_entry_json(entry: MomentCatalogEntry) -> dict:
    """JSON-friendly form of a catalog entry.

    Polynomial coefficients are listed in decreasing powers of n, each one a
    polynomial in p in decreasing powers; non-integer rationals are encoded
    as "numerator/denominator" strings.
    """
    return {
        "index": entry.key,
        "mean_coeffs": entry.mean.to_json() if entry.mean else None,
        "var_coeffs": entry.variance.to_json() if entry.variance else None,
        "limit": entry.limit.to_json() if entry.limit else None,
        "clt_center": entry.clt.center.to_json() if entry.clt else None,
        "clt_scale": entry.clt.to_json()["scale"] if entry.clt else None,
    }


def export_catalog_json() -> list[dict]:
    """All named catalog entries in JSON form."""
    return [catalog_entry_json(_CATALOG[key]) for key in CATALOG_KEYS]


def oracle_mean_variance(index: IndexSpec, n: int, p, order: int = 1) -> tuple:
    """Mean and variance of index**order by direct summation over the
    leaf-count support, from one pass: exact atom sums under
    ``support_weights``, or under the float ``support_pmf`` masses (scaled
    exactly to integers) rounded once, with the accuracy ``oracle_moment``
    states."""
    law = LeafLaw(n, p)
    values = [eval_reduced(n, k, index) ** order for k in law.support]
    if isinstance(p, Fraction):
        return exact_mean_variance(support_weights(law)[0], values)
    weights, _ = _integer_scaled(support_pmf(law))
    return tuple(map(float, exact_mean_variance(weights, values)))


def oracle_moment(index: IndexSpec, n: int, p, order: int = 1):
    """E[index**order] by direct summation over the leaf-count support.

    This is the verification oracle: it never uses the catalog polynomials,
    only the reduced closed form per leaf count weighted by the binomial
    pmf, summed exactly (``exact_mean_variance``).  Exact for Fraction p.
    For float p it is the exact moment of the float pmf, rounded once, so
    the only error is the pmf's (``support_pmf``): against the catalog at
    Fraction(p), every named index's mean and variance are within 4.4e-16
    relative for n in {1, 2, 3, 10, 57, 200, 1000, 5000, 10**4, 2 10**4, 5 10**4}
    and p in {0.01, 0.1, 0.3, 0.5, 0.77, 0.99} (worst 4.31e-16).
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    return oracle_mean_variance(index, n, p, order)[0]


def oracle_variance(index: IndexSpec, n: int, p):
    """Var[index] by direct summation over the leaf-count support.

    Exact for Fraction p; for float p the exact variance of the float pmf,
    rounded once, with the accuracy ``oracle_moment`` states.
    """
    return oracle_mean_variance(index, n, p)[1]
