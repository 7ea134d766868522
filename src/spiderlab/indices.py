"""Degree-based topological indices of spider trees.

Most indices here belong to the power-sum family ``sum_v h(deg_v)**alpha``
for a positive degree function h; the named ones are the classical Zagreb
index (alpha = 2), the forgotten index (alpha = 3), the generalized Zagreb
index for arbitrary nonzero alpha, and the Gordon-Scantlebury and Platt
indices, which are affine in Zagreb.  Two inequality-style measures join
them: a degree-based Gini index (normalized pairwise absolute degree
differences) and a degree-based Hoover index (normalized absolute
deviations from the average degree).

A spider tree at time n with L leaves has the degree multiset
{L: 1, 1: L, 2: m - L}, m = n + 2 being the edge count, so each spec
carries its index once as a ``ReducedForm`` in (n, L).  One Horner routine
evaluates it, exactly for an integer L (``eval_reduced``: named indices and
integer exponents give ints/Fractions, real exponents floats) and in
float64 over an array of leaf counts (``reduced_values``, the engine's
path); ``reduced_row`` runs its steps exactly over a time's whole support,
the coefficients evaluated once, as integers over one denominator (the
oracle's rows).  Each spec also carries its definition, ``direct(degrees, n)``,
which reads only ``degrees.items()``, a tree's (degree, count) pairs, and
never the reduced form; ``eval_direct`` calls it, and it is the independent
oracle the table is checked against.  The one body runs the same two ways:
exactly on a tree's multiset {degree: count}, and in float64 on the degree
columns of a block of trees (``tree.spider_degrees`` of arrays, which
``verify`` builds once per block of (n, L) pairs and passes to
``eval_direct`` for each index).
A named index is one ``NamedIndex`` row: its name, its reduced form and its
definition; the power sums compute both from their exponent.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, reduce
from typing import Callable, Mapping, Optional, Union

import numpy as np

__all__ = [
    "UnknownIndexError",
    "Identity",
    "Affine",
    "Table",
    "ReducedForm",
    "NamedIndex",
    "GeneralizedZagreb",
    "Generic",
    "IndexSpec",
    "LEAVES",
    "ZAGREB",
    "GORDON_SCANTLEBURY",
    "PLATT",
    "FORGOTTEN",
    "GINI",
    "HOOVER",
    "NAMED_INDICES",
    "parse_index",
    "index_name",
    "eval_direct",
    "eval_reduced",
    "reduced_row",
    "reduced_values",
]


class UnknownIndexError(ValueError):
    """An index name or spec has no definition (or no catalog entry)."""


# -- degree functions for the generic power-sum family ----------------------
# Each one's ``tag`` names it in its ``Generic`` spec's name.

@dataclass(frozen=True)
class Identity:
    """h(d) = d."""

    tag = "identity"

    def __call__(self, d):
        return d


@dataclass(frozen=True)
class Affine:
    """h(d) = a*d + b."""

    a: float
    b: float

    @property
    def tag(self) -> str:
        return f"affine:{self.a}:{self.b}"

    def __call__(self, d):
        return self.a * d + self.b


@dataclass(frozen=True)
class Table:
    """Tabulated h: an explicit value per degree, as (degree, value) pairs;
    called on an array of degrees it returns a float64 array."""

    entries: tuple[tuple[int, float], ...]
    tag = "table"

    @classmethod
    def from_mapping(cls, mapping: Mapping[int, float]) -> "Table":
        return cls(tuple(sorted((int(k), v) for k, v in mapping.items())))

    @cached_property
    def _values(self) -> dict:
        return dict(self.entries)

    def __call__(self, d):
        if isinstance(d, np.ndarray):
            return np.array([float(self(int(k))) for k in d.tolist()])
        try:
            return self._values[d]
        except KeyError:
            raise UnknownIndexError(
                f"tabulated degree function has no value for degree {d}") from None


DegreeFunction = Union[Identity, Affine, Table]


# -- reduced forms -----------------------------------------------------------

def horner(coeffs, x):
    """Polynomial with ``coeffs`` in decreasing powers, evaluated at x."""
    out = 0
    for c in coeffs:
        out = out * x + c
    return out


@dataclass(frozen=True)
class ReducedForm:
    """(c_d(m) L**d + ... + c_1(m) L + head + c_0(m)) / den(m), m = n + 2.

    ``coeffs`` lists c_d, ..., c_0; they and ``den`` are polynomials in m,
    coefficients in decreasing powers.  ``head`` is (h, alpha, c) for a
    power sum with a general exponent, adding h(L)**alpha + c(m) (m - L),
    c a polynomial in m like the rest; None otherwise."""

    coeffs: tuple[tuple, ...]
    den: tuple[int, ...] = (1,)
    head: Optional[tuple] = None


# -- index specs: each ``reduced_form`` is a row of the one reduced-form table -

@dataclass(frozen=True)
class NamedIndex:
    """A named index, one row: its reduced form in (n, L) and ``direct``,
    its definition on the degree multiset {degree: count} at time n, read
    through ``items()`` only, so it runs on degree columns as well.

    ``direct`` is a module-level function, so a spec pickles by reference
    (a forked run inherits its config, so no spec crosses a process
    pickled); it is left out of the repr."""

    name: str
    reduced_form: ReducedForm
    direct: Callable[[Mapping[int, int], int], object] = field(repr=False)


def _leaves(degrees, n):
    """The leaf count itself (number of degree-1 nodes)."""
    return sum(c * (d == 1) for d, c in degrees.items())


def _zagreb(degrees, n):
    """Sum of squared degrees."""
    return sum(c * d * d for d, c in degrees.items())


def _gordon_scantlebury(degrees, n):
    """Number of paths of length two: sum of C(deg, 2) over nodes.  The
    sum of deg*(deg - 1) is even, so on columns a float64 true division
    halves it exactly; a scalar sum is floor-divided, to stay an int."""
    total = sum(c * d * (d - 1) for d, c in degrees.items())
    return total / 2 if isinstance(total, np.ndarray) else total // 2


def _platt(degrees, n):
    """Sum of deg*(deg - 1) over nodes (twice Gordon-Scantlebury)."""
    return sum(c * d * (d - 1) for d, c in degrees.items())


def _forgotten(degrees, n):
    """Sum of cubed degrees."""
    return sum(c * d ** 3 for d, c in degrees.items())


def _gini(degrees, n):
    """Pairwise absolute degree differences over unordered node pairs,
    normalized by (node count)^2 times the average degree."""
    items = list(degrees.items())
    total = sum(ca * cb * abs(b - a)
                for i, (a, ca) in enumerate(items) for b, cb in items[i + 1:])
    return _ratio(total, 2 * (n + 2) * (n + 3))


def _hoover(degrees, n):
    """Sum of |node_count*deg - degree_sum| over nodes, normalized by
    2 * node_count * degree_sum."""
    total = sum(c * abs((n + 3) * d - 2 * (n + 2)) for d, c in degrees.items())
    return _ratio(total, 4 * (n + 2) * (n + 3))


def _ratio(total, den):
    """total / den: a Fraction for ints, float64 (rounded once) for columns."""
    return total / den if isinstance(total, np.ndarray) else Fraction(total, den)


LEAVES = NamedIndex("leaves", ReducedForm(((1,), (0,))), _leaves)               # L
ZAGREB = NamedIndex("zagreb", ReducedForm(((1,), (-3,), (4, 0))), _zagreb)      # L^2 - 3L + 4m
GORDON_SCANTLEBURY = NamedIndex(                                  # (L^2 - 3L + 2m) / 2
    "gordon_scantlebury", ReducedForm(((1,), (-3,), (2, 0)), den=(2,)), _gordon_scantlebury)
PLATT = NamedIndex("platt", ReducedForm(((1,), (-3,), (2, 0))), _platt)         # L^2 - 3L + 2m
FORGOTTEN = NamedIndex(                                           # L^3 - 7L + 8m
    "forgotten", ReducedForm(((1,), (0,), (-7,), (8, 0))), _forgotten)
# (L - 1)(2m - L) / (2m(m + 1)): leaf-centroid pairs differ by L - 1,
# internal-centroid pairs by L - 2 and leaf-internal pairs by 1.
GINI = NamedIndex("gini", ReducedForm(((-1,), (2, 1), (-2, 0)), den=(2, 2, 0)), _gini)
HOOVER = NamedIndex(                                              # (m - 1)L / (2m(m + 1))
    "hoover", ReducedForm(((1, -1), (0,)), den=(2, 2, 0)), _hoover)

NAMED_INDICES: tuple[NamedIndex, ...] = (
    LEAVES, ZAGREB, GORDON_SCANTLEBURY, PLATT, FORGOTTEN, GINI, HOOVER,
)


# A power sum's |alpha| is bounded so that 2**alpha, the weight of a degree-2
# node, is a normal float64 (binary exponents -1022..1023); beyond the bound
# it overflows or loses precision, and the exact 2**alpha grows without limit.
MAX_ABS_ALPHA = 1022


@dataclass(frozen=True)
class Generic:
    """Sum of h(deg)**alpha for a user-supplied positive degree function."""

    h: DegreeFunction
    alpha: float

    def __post_init__(self):
        alpha = self.alpha
        if not abs(alpha) <= MAX_ABS_ALPHA:
            # A long int is shown by its size: past 4300 digits it has no decimal repr.
            got = (f"an integer of {alpha.bit_length()} bits"
                   if isinstance(alpha, int) and abs(alpha) >= 10**20 else repr(alpha))
            raise UnknownIndexError(f"exponent must be finite and |alpha| <= {MAX_ABS_ALPHA}, "
                                    f"got {got}")
        if isinstance(alpha, numbers.Integral) or (isinstance(alpha, float) and alpha.is_integer()):
            # One spec per exponent: 2.0 is 2, named, evaluated and cataloged as the int.
            object.__setattr__(self, "alpha", int(alpha))

    @property
    def name(self) -> str:
        return f"generic:{self.h.tag}:{self.alpha}"

    @cached_property
    def reduced_form(self) -> ReducedForm:
        # The centroid gives h(L)**alpha, the L leaves w1 = h(1)**alpha each and
        # the m - L degree-2 nodes w2 = h(2)**alpha: w1 L + w2 (m - L), a sum
        # of positive terms, which does not cancel as (w1 - w2) L + w2 m would.
        check_positive(self.h, (1, 2))
        w1, w2 = _power(self.h(1), self.alpha), _power(self.h(2), self.alpha)
        return ReducedForm(coeffs=((w1,), (0,)), head=(self.h, self.alpha, (w2,)))

    def direct(self, degrees, n):
        if not isinstance(self.h, Identity):  # the identity is positive on every degree
            check_positive(self.h, [d for d, _ in degrees.items()])
        return sum(c * _power(self.h(d), self.alpha) for d, c in degrees.items())


@dataclass(frozen=True)
class GeneralizedZagreb(Generic):
    """Sum of deg**alpha over nodes, alpha real and nonzero: the power sum
    with h the identity, whose reduced form and definition it inherits."""

    h: DegreeFunction = field(default=Identity(), init=False, repr=False)

    def __post_init__(self):
        if self.alpha == 0:
            raise UnknownIndexError("generalized Zagreb exponent must be nonzero")
        super().__post_init__()

    @property
    def name(self) -> str:
        return f"generalized_zagreb:{self.alpha}"


IndexSpec = Union[NamedIndex, GeneralizedZagreb, Generic]

_BY_NAME = {spec.name: spec for spec in NAMED_INDICES}


def index_name(spec: IndexSpec) -> str:
    return spec.name


def parse_index(text: str) -> IndexSpec:
    """Parse a CLI/config index name.

    Accepted: leaves, zagreb, gordon_scantlebury, platt, forgotten, gini,
    hoover, and generalized_zagreb:<alpha>.
    """
    key = text.strip().lower()
    if key in _BY_NAME:
        return _BY_NAME[key]
    if key.startswith("generalized_zagreb:"):
        raw = key.split(":", 1)[1]
        try:
            alpha = int(raw)
        except ValueError:
            try:
                alpha = float(raw)
            except ValueError:
                raise UnknownIndexError(f"bad generalized_zagreb exponent: {raw!r}") from None
        return GeneralizedZagreb(alpha)
    raise UnknownIndexError(
        f"unknown index {text!r}; expected one of "
        f"{', '.join(sorted(_BY_NAME))} or generalized_zagreb:<alpha>"
    )


# -- evaluation --------------------------------------------------------------

def _power(base, alpha):
    """base**alpha, exact for integer alpha when base is exact."""
    if isinstance(alpha, int):
        if alpha >= 0:
            return base ** alpha
        if isinstance(base, (int, Fraction)):
            return Fraction(base) ** alpha
        return base ** alpha
    return base ** float(alpha)


def check_positive(h: DegreeFunction, degrees) -> None:
    """h(d) > 0 for each d in ``degrees``, a degree or a column of them."""
    for d in degrees:
        value = h(d)
        if isinstance(value, np.ndarray):  # a column: its first non-positive entry, if any
            k = np.argmin(value > 0)
            d, value = int(d[k]), value[k].item()
        if not value > 0:
            raise UnknownIndexError(
                f"degree function must be positive on occurring degrees; h({d}) = {value!r}"
            )


def eval_direct(degrees: Mapping[int, int], n: int, index: IndexSpec):
    """Evaluate ``index`` by its definition on a tree's degree multiset
    {degree: count} at time ``n`` (``tree.spider_degrees(n, L)`` of a tree
    with L leaves), exactly where the index is, or in float64 on the
    degree columns of a block of trees (``tree.spider_degrees`` of an
    array of leaf counts, at one time ``n`` or at an ndarray of
    integer-valued times, one per leaf count, int64 or float64, with the
    same values either way), the twin of ``reduced_values``.

    On columns, a named index, or a power sum whose h is integer-valued on
    the degrees and whose exponent is a nonnegative integer, sums integer
    terms, so an entry equals ``float(eval_direct(spider_degrees(n, L), n,
    index))`` bit for bit while its terms and partial sums stay below 2**53
    (Gini and Hoover rounded once, by one division).  Otherwise an entry
    sums the three positive terms c * h(d)**alpha of the same float h
    values in the same order as the scalar path, each power within one
    ulp, so both lie within 5 * 2**-53 of the exact sum of those terms and
    within 10 * 2**-53 relative of each other."""
    direct = getattr(index, "direct", None)
    if direct is None:
        raise UnknownIndexError(f"cannot evaluate index spec {index!r}")
    return direct(degrees, n)


_NOT_POSITIVE = "degree function must be positive on occurring degrees"


def _reduced_form(index: IndexSpec) -> ReducedForm:
    form = getattr(index, "reduced_form", None)
    if form is None:
        raise UnknownIndexError(f"cannot evaluate index spec {index!r}")
    return form


def _evaluate(index: IndexSpec, n: int, L):
    """The one Horner routine: exact for an integer L, float64 for an array."""
    form = _reduced_form(index)
    real = isinstance(L, np.ndarray)
    # A float m rounds each coefficient once; n may be an array beside L.
    m = (n + 2.0 if isinstance(n, np.ndarray) else float(n + 2)) if real else n + 2
    at_m = _float_horner if real else horner
    # Horner in L down to the L**1 term; a power sum's head joins before the
    # constant: (w1 L + h(L)**alpha) + w2 (m - L).
    value = at_m(form.coeffs[0], m)
    for poly in form.coeffs[1:-1]:
        value = value * L + at_m(poly, m)
    value = value * L
    if form.head is not None:
        h, alpha, c = form.head
        hL = h(L)
        if not ((hL > 0).all() if real else hL > 0):
            raise UnknownIndexError(_NOT_POSITIVE)
        value = value + _power(hL, alpha) + at_m(c, m) * (m - L)
    value = value + at_m(form.coeffs[-1], m)
    if form.den == (1,):
        return value
    den = at_m(form.den, m)
    if real:
        return value / den
    return value // den if value % den == 0 else Fraction(value, den)


def reduced_row(index: IndexSpec, n: int) -> tuple[list[int], int]:
    """The closed form at time n over the whole support L = 3, ..., n + 2,
    exactly, in one pass: integers xs over one denominator d, the shape
    ``integer_scaled`` gives, with xs[L - 3] / d equal to ``eval_reduced(n,
    L, index)`` (d need not be in lowest terms).

    The coefficient polynomials are evaluated once, at m = n + 2, and
    Horner in L then runs over the whole support with ``_evaluate``'s
    operations in its order, so a float entry (a real exponent) is the
    same float.  A named index's numerators are ints over d = den(m), with
    no ``Fraction``; any other row is scaled by ``integer_scaled``."""
    if n < 1:
        raise ValueError(f"time must be >= 1, got {n}")
    form = _reduced_form(index)
    m = n + 2
    support = range(3, m + 1)
    cs = [horner(poly, m) for poly in form.coeffs]
    row = [cs[0]] * n
    for c in cs[1:-1]:
        row = [v * L + c for v, L in zip(row, support)]
    row = [v * L for v, L in zip(row, support)]
    if form.head is not None:
        h, alpha, c = form.head
        hs = [h(L) for L in support]
        if not all(hL > 0 for hL in hs):
            raise UnknownIndexError(_NOT_POSITIVE)
        w = horner(c, m)
        row = [v + _power(hL, alpha) + w * (m - L) for v, hL, L in zip(row, hs, support)]
    row = [v + cs[-1] for v in row]
    den = horner(form.den, m)
    if form.head is None and all(type(c) is int for c in cs):
        return row, den
    xs, d = integer_scaled(row)
    return xs, d * den


def integer_scaled(values) -> tuple[list[int], int]:
    """The values, ints, Fractions or floats, as integers x over the lcm d
    of their exact denominators: returns (x, d) with x[i] / d == values[i].

    Scaling depends on the values alone, so a caller that sums one list of
    values under many weightings scales it once."""
    ratios = [v.as_integer_ratio() for v in values]
    # Pairwise: math.lcm(*denominators) grew RSS on every call under CPython 3.11.
    d = reduce(math.lcm, (den for _, den in ratios), 1)
    return [num * (d // den) for num, den in ratios], d


def _float_horner(coeffs, m):
    """``horner`` at a float m or float64 array m, with the leading
    coefficient rounded to a float first: the same float64 operations, but
    a constant polynomial stays one float instead of an array of m's shape,
    an exact weight (an int past int64, a Fraction) never makes an object
    array, and an int too large for a float raises ``OverflowError``."""
    out = float(coeffs[0])
    for c in coeffs[1:]:
        out = out * m + c
    return out


def eval_reduced(n: int, leaf_count: int, index: IndexSpec):
    """Closed-form value in (time, leaf count), exact where the index is;
    equals ``eval_direct`` on any tree with that time and leaf count."""
    if n < 1:
        raise ValueError(f"time must be >= 1, got {n}")
    if not 3 <= leaf_count <= n + 2:
        raise ValueError(
            f"leaf count {leaf_count} outside the reachable range [3, {n + 2}] at time {n}"
        )
    return _evaluate(index, n, leaf_count)


def reduced_values(index: IndexSpec, n: int | np.ndarray, leaf_counts) -> np.ndarray:
    """Vectorised float64 closed-form evaluation over an array of leaf counts,
    at one time ``n`` or at an ndarray of integer-valued times, one per leaf
    count, int64 or float64 (float64 spares a conversion per call); an
    entry equals, bit for bit, its value at that scalar time.

    Named indices are exact (Gini and Hoover rounded once) while numerators
    stay below 2**53, i.e. to n of about 2e5 for the forgotten index.  A
    power sum, h(L)**alpha + w1 L + w2 (m - L) with w_d = h(d)**alpha, adds
    three positive terms, so with each power within one ulp its relative
    error is within 5 * 2**-53 whatever w2 / w1 (at most 2.5 such units
    over 1.5e4 random tables, w2 / w1 up to 1e6, against exact sums), as is
    ``eval_reduced``'s for real alpha.
    """
    return _evaluate(index, n, np.asarray(leaf_counts, dtype=np.float64))

