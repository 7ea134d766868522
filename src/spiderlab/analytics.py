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
  constants and CLT normalizers that go with them; every polynomial in
  (n, p) here, the expansion included, is one ``RationalFormula``;
* ``oracle_moment``, ``oracle_variance`` and ``oracle_mean_variance`` (both
  from one pass), brute-force summations over the leaf-count support that
  never touch the closed forms and are used to verify all of them.

Passing ``p`` as a ``fractions.Fraction`` keeps any of these paths in
exact rational arithmetic; floats give ordinary binary64 results.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cache, cached_property
from typing import Optional, Union

from .indices import (
    GeneralizedZagreb,
    IndexSpec,
    UnknownIndexError,
    horner,
    integer_scaled,
    reduced_row,
)
from .tree import InvalidProbabilityError

__all__ = [
    "LeafLaw",
    "leaf_pmf",
    "support_pmf",
    "support_weights",
    "integer_scaled",
    "scaled_moments",
    "exact_mean_variance",
    "leaf_mgf",
    "affine_mgf",
    "coefficient_triangle",
    "leaf_raw_moment_exact",
    "leaf_moment_expansion",
    "FormulaAt",
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
    """P(leaf count = k), ``support_pmf``'s mass at k with its accuracy;
    zero outside the support {3, ..., n + 2}."""
    if k not in law.support:
        return 0
    return support_pmf(law)[k - 3]


def support_pmf(law: LeafLaw) -> list:
    """pmf over the whole support, in order k = 3, ..., n + 2.

    Exact for Fraction p: ``support_weights``' numerators over their total.
    For float p the masses are built by the binomial ratio recurrence run
    outward from the mode, starting at 1 there, and normalized by their
    ``math.fsum``, so a mass carries only the roundings of the steps
    between it and the mode.
    Against the exact masses at p = 0.3, every mass above 1e-6 of the
    modal one is within 7e-15 (n = 1000), 9.4e-15 (n = 2000) or 1.5e-14
    (n = 5000) relative, and every mass within 3e-17 absolute; masses far
    in the tails underflow to 0.
    """
    if isinstance(law.p, Fraction):
        weights, total = support_weights(law)
        return [Fraction(w, total) for w in weights]
    m = law.n - 1
    p = law.p
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

    They are running products: from (c - a)**m, each numerator is the one
    before times (m - j) a / ((j + 1) (c - a)), a division that is exact,
    so no power or binomial coefficient is computed twice.
    """
    a, c = law.p.numerator, law.p.denominator
    b, m = c - a, law.n - 1
    w = b ** m
    weights = [w]
    for j in range(m):
        w = w * (m - j) * a // ((j + 1) * b)
        weights.append(w)
    return weights, c ** m


def scaled_moments(weights: list[int], total: int, xs: list[int], squares: list[int],
                   d: int) -> tuple[int, int, int]:
    """(T, S1, V), ints, with mean S1 / T and population variance V / T**2
    of the values ``xs[i] / d`` under the non-negative integer
    ``weights[i]``, ``total = sum(weights)``: T = total d, S1 = sum w x
    and V = total sum w x**2 - S1**2.  ``squares[i]`` is ``xs[i] ** 2``,
    so a caller summing one row under many weightings squares it once."""
    s1 = sum(map(operator.mul, weights, xs))
    s2 = sum(map(operator.mul, weights, squares))
    return total * d, s1, total * s2 - s1 * s1


def exact_mean_variance(weights: list[int], xs: list[int], d: int) -> tuple[Fraction, Fraction]:
    """Exact mean and population variance of the values ``xs[i] / d`` under
    the non-negative integer ``weights[i]``.

    ``(xs, d)`` is ``integer_scaled(values)``, so both sums stay in
    integers (``scaled_moments``) and only the two results are
    ``Fraction``s.  A caller that reports floats rounds each once, its
    only rounding.
    """
    scale, s1, v = scaled_moments(weights, sum(weights), xs, [x * x for x in xs], d)
    return Fraction(s1, scale), Fraction(v, scale * scale)


def leaf_mgf(law: LeafLaw, t: float) -> float:
    """Moment generating function of the leaf count at t."""
    return affine_mgf(law, 1, 0, t)


def affine_mgf(law: LeafLaw, a: float, b: float, t: float) -> float:
    """MGF of a*leaf_count + b; ``leaf_mgf`` is the case (a, b) = (1, 0)."""
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
    the i-th u-derivative at 1 is a sum of four falling factorials.  For
    p = a/c the sum is taken in integers over the one denominator
    c**order * a**3; a float p is the case (a, c) = (p, 1), summed in
    floats.
    """
    if not 1 <= order <= MAX_MOMENT_ORDER:
        raise ValueError(f"order must be in [1, {MAX_MOMENT_ORDER}], got {order}")
    n, p = law.n, law.p
    row = coefficient_triangle(order)[order - 1]
    a, c = (p.numerator, p.denominator) if isinstance(p, Fraction) else (p, 1)
    d = a - c  # c (p - 1)
    weights = {2: c**3, 1: 3 * d * c**2, 0: 3 * d**2 * c, -1: d**3}
    total = sum(row[i - 1] * a**i * c ** (order - i)
                * sum(w * _falling(n + k, i) for k, w in weights.items())
                for i in range(1, order + 1))
    den = c**order * a**3
    return Fraction(total, den) if isinstance(p, Fraction) else total / den


@cache
def leaf_moment_expansion(order: int) -> RationalFormula:
    """Two-term large-n expansion of E[leaf_count**order], a = order:
    p**a n**a + (a/2)(a(1 - p) - p + 5) p**(a-1) n**(a-1).

    For order 1 it is the exact first moment, the leaves mean's rows."""
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    a = order
    zeros = (0,) * (a - 1)
    return RationalFormula(((1, 0) + zeros, (-a * (a + 1) // 2, a * (a + 5) // 2) + zeros)
                           + ((0,),) * (a - 1))


# -- polynomial plumbing for the catalog --------------------------------------

def _coeff_json(c):
    if isinstance(c, Fraction):
        if c.denominator == 1:
            return int(c)
        return f"{c.numerator}/{c.denominator}"
    return c


@dataclass(frozen=True)
class FormulaAt:
    """A catalog formula at one time n, as a function of p alone.

    ``values[j]``, j = 0, ..., D, is the coefficient of p**(D - j) at n,
    times s (``RationalFormula``'s integer columns), and ``den`` the
    integer s den(n) the whole formula is over at that n.  For p = a/c,
    ``scaled(p)`` is one homogeneous Horner pass over (a, c), in integers
    only."""

    values: tuple[int, ...]
    den: int

    def scaled(self, p) -> tuple[int, int]:
        """(num, den c**D), whose ratio is the value at p = a/c."""
        a, c = p.numerator, p.denominator
        num, c_power = self.values[0], 1
        for value in self.values[1:]:
            c_power *= c
            num = num * a + value * c_power
        return num, self.den * c_power


@dataclass(frozen=True)
class RationalFormula:
    """A catalog formula: a polynomial in n with coefficients polynomial in
    p, over a polynomial in n (default 1).

    ``rows[i]`` holds the p-coefficients (decreasing powers of p) of
    n**(deg - i); rows are listed in decreasing powers of n.  ``den``
    holds the denominator's coefficients in decreasing powers of n.
    Evaluation runs in integers, at an integer n (every caller's time is
    one).  The columns, each the coefficient of one power of p as a
    polynomial in n (a short row's missing leading coefficients are
    zeros), are scaled once to integers over the lcm s of their
    coefficients' denominators, each kept from its first non-zero entry.
    ``at(n)`` evaluates each column at n, once for every p, over
    s den(n); for p = a/c its ``scaled`` sums col_j(n) a**(D - j) c**j,
    the numerator times s c**D, so a call is one ``Fraction`` with one
    gcd.  A float p is lifted to its exact binary value first and the
    result rounded once, so identities that hold for every p (like
    variances vanishing at n = 1) hold on the float path with no residue.
    """

    rows: tuple[tuple, ...]
    den: tuple[int, ...] = (1,)

    def __call__(self, n, p):
        if isinstance(p, float):
            return float(self(n, Fraction(p)))
        return Fraction(*self.at(n).scaled(p))

    @cached_property
    def _integer_columns(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """The columns times s, as ints, and s (``integer_scaled``).  Only
        the given coefficients are scaled, and each column starts at its
        first non-zero entry: its leading zeros, padding or given, add
        nothing to its value at n, and an all-zero column is ()."""
        flat, s = integer_scaled([c for row in self.rows for c in row])
        width = max(map(len, self.rows))
        rows, first, start = [], {}, 0  # each row's non-zero entries by column
        for i, row in enumerate(self.rows):
            pad = width - len(row)
            rows.append({j: c for j, c in enumerate(flat[start:start + len(row)], pad) if c})
            start += len(row)
            for j in rows[-1]:
                first.setdefault(j, i)
        return tuple(tuple(row.get(j, 0) for row in rows[first[j]:]) if j in first else ()
                     for j in range(width)), s

    def at(self, n: int) -> FormulaAt:
        """The formula at time n, over s den(n)."""
        columns, s = self._integer_columns
        return FormulaAt(tuple(horner(column, n) for column in columns), s * horner(self.den, n))

    def to_json(self):
        return {"num": [[_coeff_json(c) for c in row] for row in self.rows],
                "den": list(self.den)}


@dataclass(frozen=True)
class LimitLaw:
    """index / n**exponent converges (in probability and r-mean) to
    c(p), the one-row (n**0) formula ``constant``."""

    exponent: int
    constant: RationalFormula

    def constant_value(self, p):
        return self.constant(0, p)

    def to_json(self):
        return {"exponent": self.exponent, "constant": self.constant.to_json()["num"][0]}


@dataclass(frozen=True)
class CltNormalizer:
    """(x - center(n, p)) / scale(n, p, k) is asymptotically standard normal,
    for every real shift k; scale = coeff * sqrt(p**a (1-p) (n+k)**m)."""

    center: RationalFormula
    coeff: int
    p_power: int
    nk_power: int

    def scale_value(self, n, p, k=0.0) -> float:
        p = float(p)
        return self.coeff * math.sqrt(p ** self.p_power * (1 - p) * (n + k) ** self.nk_power)

    def to_json(self):
        return {
            "center": self.center.to_json()["num"],
            "scale": {"coeff": self.coeff, "p_power": self.p_power, "nk_power": self.nk_power},
        }


@dataclass(frozen=True)
class AsymptoticMoments:
    """Two-term mean expansion (``leaf_moment_expansion(a)``) and leading
    variance term a**2 (1 - p) p**(2a-1) n**(2a-1) for power sums of
    exponent a >= 3, where no closed-form polynomial is cataloged.

    The affine part of the power sum is O(n), which the expansion's
    O(n**(a-2)) remainder absorbs for a >= 3.
    """

    mean: RationalFormula
    variance_leading: RationalFormula


def _power_sum_asymptotics(a: int) -> AsymptoticMoments:
    return AsymptoticMoments(leaf_moment_expansion(a), RationalFormula(
        ((-a * a, a * a) + (0,) * (2 * a - 1),) + ((0,),) * (2 * a - 1)))


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

# 2(n+3)(n+2) and 4(n+3)^2(n+2)^2 expanded in n.
_DEN_MEAN = (2, 10, 12)
_DEN_VAR = (4, 40, 148, 240, 144)

_LEAVES_MEAN = RationalFormula(((1, 0), (-1, 3)))
_ZAGREB_VAR = RationalFormula((
    (-4, 4, 0, 0, 0),
    (22, -40, 18, 0, 0),
    (-38, 92, -70, 16, 0),
    (20, -56, 52, -16, 0),
))
# The paper's CLT centre n**2 p**2 of the Zagreb and Platt indices, and
# their limit constant p**2.
_N2P2 = RationalFormula(((1, 0, 0), (0,), (0,)))
_P2 = RationalFormula(((1, 0, 0),))


_CATALOG: dict[str, MomentCatalogEntry] = {entry.key: entry for entry in (
    MomentCatalogEntry(
        key="leaves",
        mean=_LEAVES_MEAN,
        variance=RationalFormula(((-1, 1, 0), (1, -1, 0))),
        clt=CltNormalizer(center=_LEAVES_MEAN, coeff=1, p_power=1, nk_power=1),
    ),
    MomentCatalogEntry(
        key="zagreb",
        mean=RationalFormula(((1, 0, 0), (-3, 4, 4), (2, -4, 8))),
        variance=_ZAGREB_VAR,
        limit=LimitLaw(2, _P2),
        clt=CltNormalizer(center=_N2P2, coeff=2, p_power=3, nk_power=3),
    ),
    MomentCatalogEntry(
        key="gordon_scantlebury",
        mean=RationalFormula(((H, 0, 0), (-3 * H, 2, 1), (1, -2, 2))),
        variance=RationalFormula((
            (-1, 1, 0, 0, 0),
            (11 * H, -10, 9 * H, 0, 0),
            (-19 * H, 23, -35 * H, 4, 0),
            (5, -14, 13, -4, 0),
        )),
        limit=LimitLaw(2, RationalFormula(((H, 0, 0),))),
        clt=CltNormalizer(center=RationalFormula(((H, 0, 0), (0,), (0,))),
                          coeff=1, p_power=3, nk_power=3),
    ),
    MomentCatalogEntry(
        key="platt",
        mean=RationalFormula(((1, 0, 0), (-3, 4, 2), (2, -4, 4))),
        variance=_ZAGREB_VAR,
        limit=LimitLaw(2, _P2),
        clt=CltNormalizer(center=_N2P2, coeff=2, p_power=3, nk_power=3),
    ),
    MomentCatalogEntry(
        key="forgotten",
        mean=RationalFormula(((1, 0, 0, 0), (-6, 12, 0, 0), (11, -36, 30, 8), (-6, 24, -30, 22))),
        variance=RationalFormula((
            (-9, 9, 0, 0, 0, 0, 0),
            (117, -279, 162, 0, 0, 0, 0),
            (-591, 2061, -2376, 906, 0, 0, 0),
            (1431, -6201, 9918, -6876, 1728, 0, 0),
            (-1632, 8082, -15552, 14286, -6084, 900, 0),
            (684, -3672, 7848, -8316, 4356, -900, 0),
        )),
        limit=LimitLaw(3, RationalFormula(((1, 0, 0, 0),))),
    ),
    MomentCatalogEntry(
        key="gini",
        mean=RationalFormula(((-1, 2, 0), (3, -4, 4), (-2, 2, 2)), _DEN_MEAN),
        variance=RationalFormula((
            (-4, 12, -12, 4, 0),
            (22, -56, 46, -12, 0),
            (-38, 84, -58, 12, 0),
            (20, -40, 24, -4, 0),
        ), _DEN_VAR),
        limit=LimitLaw(0, RationalFormula(((-H, 1, 0),))),
    ),
    MomentCatalogEntry(
        key="hoover",
        mean=RationalFormula(((1, 0), (0, 3), (-1, 3)), _DEN_MEAN),
        variance=RationalFormula(((-1, 1, 0), (-1, 1, 0), (1, -1, 0), (1, -1, 0)), _DEN_VAR),
        limit=LimitLaw(0, RationalFormula(((H, 0),))),
    ),
)}

CATALOG_KEYS = tuple(_CATALOG)


def moment_catalog(index: IndexSpec) -> MomentCatalogEntry:
    """Catalog entry (mean/variance formulas, limit, CLT normalizer) for an
    index.

    Generalized Zagreb is cataloged for integer exponents: 1 is the
    deterministic edge/degree sum, 2 and 3 are the Zagreb and forgotten
    entries under their own key (3 adds the asymptotic expansion), and
    exponents >= 4 carry the asymptotic expansion and the limit constant only.
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
                mean=RationalFormula(((2,), (4,))),
                variance=RationalFormula(((0,),)),
            )
        if a == 2:
            return replace(_CATALOG["zagreb"], key=key)
        if a == 3:
            return replace(_CATALOG["forgotten"], key=key, asymptotic=_power_sum_asymptotics(3))
        return MomentCatalogEntry(key=key, mean=None, variance=None,
                                  limit=LimitLaw(a, RationalFormula(((1,) + (0,) * a,))),
                                  asymptotic=_power_sum_asymptotics(a))
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
    clt = entry.clt.to_json() if entry.clt else {"center": None, "scale": None}
    return {
        "index": entry.key,
        "mean_coeffs": entry.mean.to_json() if entry.mean else None,
        "var_coeffs": entry.variance.to_json() if entry.variance else None,
        "limit": entry.limit.to_json() if entry.limit else None,
        "clt_center": clt["center"],
        "clt_scale": clt["scale"],
    }


def export_catalog_json() -> list[dict]:
    """All named catalog entries in JSON form."""
    return [catalog_entry_json(_CATALOG[key]) for key in CATALOG_KEYS]


def oracle_mean_variance(index: IndexSpec, n: int, p, order: int = 1) -> tuple:
    """Mean and variance of index**order by direct summation over the
    leaf-count support, from one pass: the index's exact row
    (``reduced_row``), each value raised to ``order`` exactly, summed in
    integers under ``support_weights``, or under the float ``support_pmf``
    masses (scaled exactly to integers) and rounded once, with the accuracy
    ``oracle_moment`` states.  ``order`` is an int >= 1 (a bool is not)."""
    if type(order) is not int or order < 1:
        raise ValueError(f"order must be an int >= 1, got {order!r}")
    law = LeafLaw(n, p)
    xs, d = reduced_row(index, n)
    scaled = [x ** order for x in xs], d ** order
    if isinstance(p, Fraction):
        return exact_mean_variance(support_weights(law)[0], *scaled)
    weights, _ = integer_scaled(support_pmf(law))
    return tuple(map(float, exact_mean_variance(weights, *scaled)))


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
    return oracle_mean_variance(index, n, p, order)[0]


def oracle_variance(index: IndexSpec, n: int, p):
    """Var[index] by direct summation over the leaf-count support.

    Exact for Fraction p; for float p the exact variance of the float pmf,
    rounded once, with the accuracy ``oracle_moment`` states.
    """
    return oracle_mean_variance(index, n, p)[1]
