"""One-shot verification suites.

Four suites, run by ``run_level``, cross-check the package against routes
that do not share code with what they test:

* catalog formulas against the brute-force summation oracle, in exact
  arithmetic: the binomial masses and the reduced index values are summed
  as integers over one common denominator (``support_weights``), never
  through a catalog polynomial.  Whatever does not depend on p is done
  once per n: each index's reduced row, in one exact pass over the support
  (``reduced_row``: integers over den(m)), and its squares; each formula's
  columns at n.  Every p's masses are packed into lanes of one integer per
  support point, so each distinct row takes one sum, and its squares one
  more, for all p at once (``_lane_sums``).  Each equality is decided by
  cross-multiplying integers, with no ``Fraction`` unless it fails (a
  mismatch is reported as a formula flag with its (index, n, p) witness,
  never silently patched);
* direct degree-multiset evaluation against the reduced closed forms at
  every reachable (n, L), 1 <= n <= max_n and 3 <= L <= n + 2: every index
  is a function of (n, L) alone, so this covers every tree up to time
  max_n.  The pairs are taken in blocks of whole horizons of at most
  PAIR_BLOCK = 8192 pairs, each side in one float64 pass per index and
  block: ``eval_direct`` runs the index's definition on the block's degree
  columns, built once per block (``spider_degrees``), ``reduced_values``
  its closed form, and the engine audit's check weighs only an index
  whose two sides differ somewhere (``reachable_pairs_suite``;
  ``direct_reduced_suite`` samples the same check on randomly grown
  trees);
* the coefficient triangle against Stirling numbers of the second kind
  computed by inclusion-exclusion;
* degeneracy at time 1, where the tree is deterministic, so every catalog
  variance must vanish and every mean must equal the seed value.

None of the four draws a random number, so ``run_level``'s report does
not depend on the seed.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .analytics import (
    LeafLaw,
    RationalFormula,
    coefficient_triangle,
    moment_catalog,
    support_weights,
)
from .analytics import support_pmf  # noqa: F401  unused, but bench/run.py --trace 1 rebinds it here
from .indices import (
    NAMED_INDICES,
    Affine,
    GeneralizedZagreb,
    Generic,
    IndexSpec,
    eval_direct,
    reduced_row,
    reduced_values,
)
from .indices import eval_reduced  # noqa: F401  unused, but bench/run.py --trace 1 rebinds it here
from .montecarlo import direct_mismatches
from .tree import RngStream, grow_legs, new_seed, spider_degrees

__all__ = [
    "Failure",
    "stirling2",
    "catalog_oracle_suite",
    "direct_reduced_suite",
    "reachable_pairs_suite",
    "triangle_suite",
    "seed_degeneracy_suite",
    "run_level",
    "FULL_P_VALUES",
    "FULL_N_VALUES",
]

FULL_P_VALUES = tuple(Fraction(i, 10) for i in range(1, 10))
FULL_N_VALUES = tuple(range(1, 51))
QUICK_P_VALUES = (Fraction(1, 10), Fraction(1, 2), Fraction(9, 10))
QUICK_N_VALUES = tuple(range(1, 16))
TRIAL_BLOCK = 64  # random trees per stream in direct_reduced_suite
PAIR_BLOCK = 8192  # most (n, L) pairs per block in reachable_pairs_suite


@dataclass
class Failure:
    suite: str
    index: str
    witness: dict
    detail: str

    def __str__(self) -> str:
        parts = ", ".join(f"{k}={v}" for k, v in self.witness.items())
        return f"[{self.suite}] {self.index} ({parts}): {self.detail}"


def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind, by inclusion-exclusion.

    Independent of the triangle recurrence on purpose: it is the oracle the
    triangle is checked against.
    """
    if k < 0 or k > n:
        return 0
    total = sum((-1) ** j * math.comb(k, j) * (k - j) ** n for j in range(k + 1))
    return total // math.factorial(k)


def _default_catalog() -> dict:
    return {spec.name: moment_catalog(spec) for spec in NAMED_INDICES}


def catalog_oracle_suite(p_values=FULL_P_VALUES, n_values=FULL_N_VALUES,
                         catalog=None) -> list[Failure]:
    """Exact equality of every cataloged mean/variance with the summation
    oracle over the given (p, n) grid, reported in (n, p, key) order.

    Each n is one pass: each index's reduced row is taken exactly
    (``reduced_row``), each formula is bound to n (``RationalFormula.at``;
    any other callable is called at each (n, p)), and every p's
    ``support_weights`` are packed into lanes, so that one integer sum per
    distinct row gives S1 = sum w x under every p at once, and one more
    over its squares gives S2 (``_lane_sums``).  Under each p a formula
    num / den then takes one homogeneous Horner pass and equals the
    oracle's S1 / T (mean) or V / T**2 (variance), T = total d and V =
    total S2 - S1**2, iff the cross-products agree, in integers.
    ``Fraction``s are built only to print a failure."""
    if not p_values:  # nothing to check, and no lanes to pack
        return []
    if catalog is None:
        catalog = _default_catalog()
    failures = []
    for n in n_values:
        weights, totals = zip(*(support_weights(LeafLaw(n, p)) for p in p_values))
        rows = {spec.name: reduced_row(spec, n) for spec in NAMED_INDICES}
        sums = dict(zip(rows, _lane_sums(weights, totals, [xs for xs, _ in rows.values()])))
        bound = [(key, entry, sums[key], rows[key][1], _at(entry.mean, n), _at(entry.variance, n))
                 for key, entry in catalog.items()]
        for i, (p, total) in enumerate(zip(p_values, totals)):
            for key, entry, (s1s, s2s), d, mean, variance in bound:
                scale, s1 = total * d, s1s[i]
                num, den = mean(p)
                if num * scale != s1 * den:
                    failures.append(Failure(
                        "catalog-oracle", key, {"n": n, "p": p},
                        f"mean formula {entry.mean(n, p)} != oracle {Fraction(s1, scale)}"))
                v = total * s2s[i] - s1 * s1
                num, den = variance(p)
                if num * scale * scale != v * den:
                    failures.append(Failure(
                        "catalog-oracle", key, {"n": n, "p": p},
                        f"variance formula {entry.variance(n, p)} != oracle "
                        f"{Fraction(v, scale * scale)}"))
    return failures


def _lane_sums(weight_lists, totals, rows) -> list[tuple[list[int], list[int]]]:
    """For each row xs of ints, the lists [sum_j w[j] xs[j]] and [sum_j
    w[j] xs[j]**2] over ``weight_lists``, each list of non-negative int
    weights w summing to its ``totals`` entry and as long as every row.

    Kronecker substitution: weight j of list i is put in lane i, bits
    [i B, (i + 1) B), of one int per support point j, B = bits(max total)
    + bits(max x**2) + 1, so each lane's sum, at most total * max x**2 in
    size, stays within B - 1 bits and its sign bit.  One sum of those ints
    against a row then holds every list's sum, read back with a shift and
    a mask after adding 2**(B - 1) to each lane; a row that equals an
    earlier one is summed once, its lists shared."""
    squares = {xs: [x * x for x in xs] for xs in dict.fromkeys(map(tuple, rows))}
    width = max(totals).bit_length() + max(map(max, squares.values())).bit_length() + 1
    packed = []
    for column in zip(*weight_lists):
        lanes = 0
        for w in reversed(column):
            lanes = lanes << width | w
        packed.append(lanes)
    shifts = range(0, width * len(weight_lists), width)
    mask, half = (1 << width) - 1, 1 << (width - 1)
    bias = sum(half << shift for shift in shifts)

    def unpack(value):
        value += bias
        return [(value >> shift & mask) - half for shift in shifts]

    sums = {xs: (unpack(sum(map(operator.mul, packed, xs))),
                 unpack(sum(map(operator.mul, packed, x2)))) for xs, x2 in squares.items()}
    return [sums[tuple(xs)] for xs in rows]


def _at(formula, n: int):
    """``formula`` at time n as p -> (num, den), ints: a catalog formula's
    ``at(n).scaled``, or the exact ratio of any other callable's value."""
    if isinstance(formula, RationalFormula):
        return formula.at(n).scaled
    return lambda p: formula(n, p).as_integer_ratio()


def _trial_specs() -> tuple[IndexSpec, ...]:
    return NAMED_INDICES + (
        GeneralizedZagreb(2),
        GeneralizedZagreb(3),
        GeneralizedZagreb(4),
        GeneralizedZagreb(2.5),
        Generic(Affine(2, 1), 2),
    )


def direct_reduced_suite(trials: int, max_n: int, master_seed: int) -> list[Failure]:
    """Direct vs reduced evaluation on randomly grown trees: each trial draws
    n uniform on 1..max_n and grows a ``UniformLeaf(p)`` tree, p uniform on
    [0.05, 0.95) (``Preferential`` growth is the case p = 1/2).

    Trial t takes u = (u[2t], u[2t + 1]) of ``RngStream(master_seed, 0)``,
    n = 1 + floor(u[0] max_n) and p = 0.05 + 0.9 u[1].  Trials run in blocks
    of TRIAL_BLOCK = 64, this suite's own block, not the Monte Carlo
    engine's chunk: block b = t // 64 draws from the one stream
    ``RngStream(master_seed, 1 + b)``, which yields the 2 (n - 1) interleaved
    (decision, pick) uniforms of each of its trials in trial order, as
    ``tree.grow`` consumes them.  So a trial's tree depends only on
    (master_seed, t, max_n), not on the trial count.  A block draws all its
    uniforms in one ``doubles`` call and grows each trial's tree with one
    ``grow_legs`` call on the trial's slice of that draw, which checks the
    tree against ``TreeState``'s invariants; L is its leg count.

    Each block's (n, L) are checked as ``reachable_pairs_suite`` checks
    its pairs (``_mismatches``); failures are listed in (trial, spec) order
    with their (n, L, p) witness.  Only one block's trees are held at a
    time.
    """
    specs = _trial_specs()
    failures = []
    meta = RngStream(master_seed, 0).doubles(2 * trials).reshape(trials, 2)
    ns = 1 + (meta[:, 0] * max_n).astype(np.int64)
    ps = 0.05 + 0.9 * meta[:, 1]
    for first in range(0, trials, TRIAL_BLOCK):
        n_block = ns[first:first + TRIAL_BLOCK]
        stream = RngStream(master_seed, 1 + first // TRIAL_BLOCK)
        u = stream.doubles(2 * int((n_block - 1).sum())).reshape(-1, 2)
        draws = np.split(u, np.cumsum(n_block - 1)[:-1])  # one (decision, pick) slice per trial
        L_block = np.array([len(grow_legs(d[:, 0] < p, d[:, 1]))
                            for d, p in zip(draws, ps[first:first + TRIAL_BLOCK])], dtype=np.int64)
        for k, name, detail in _mismatches(specs, n_block, L_block):  # (trial, spec) order
            failures.append(Failure(
                "direct-reduced", name,
                {"n": int(n_block[k]), "L": int(L_block[k]), "p": round(float(ps[first + k]), 6)},
                detail))
    return failures


def reachable_pairs_suite(max_n: int) -> list[Failure]:
    """Direct vs reduced evaluation at every reachable (n, L), 1 <= n <=
    max_n and 3 <= L <= n + 2, max_n (max_n + 1) / 2 pairs: every index is a
    function of (n, L) alone, so this checks each spec on every tree up to
    time max_n, the all-legs tree L = n + 2 (no degree-2 node) included.

    The horizons are taken in order, in blocks of whole horizons holding at
    most PAIR_BLOCK pairs (a horizon of more pairs is a block alone), which
    bounds the float64 columns held at a time.  Each block is checked by
    ``_mismatches``; failures are listed in (n, L, spec) order with their
    (n, L) witness.
    """
    specs = _trial_specs()
    failures = []
    first = 1
    while first <= max_n:
        last, size = first, first
        while last < max_n and size + last + 1 <= PAIR_BLOCK:
            last += 1
            size += last
        ns = np.arange(first, last + 1)
        n_col = np.repeat(ns, ns)
        L_col = 3 + np.arange(size) - np.repeat(np.cumsum(ns) - ns, ns)  # 3..n + 2 per horizon
        for k, name, detail in _mismatches(specs, n_col, L_col):
            failures.append(Failure("direct-reduced", name,
                                    {"n": int(n_col[k]), "L": int(L_col[k])}, detail))
        first = last + 1
    return failures


def _mismatches(specs, n_col: np.ndarray, L_col: np.ndarray) -> list[tuple[int, str, str]]:
    """(row, spec name, detail) of every (n, L) row and spec whose direct
    and reduced values fail the engine audit's check
    (``montecarlo.direct_mismatches``), in (row, spec) order.  Both sides
    are float64, one pass per spec: its own definition run through
    ``eval_direct`` on the rows' degree columns (``spider_degrees``, built
    once; the same body runs exactly on one tree's multiset), and its
    reduced form (``reduced_values``, the engine's path), both on the one
    float64 copy of n and of L, integers well below 2**53, so no call
    converts them again.  A spec is weighed by the check only where its two
    sides differ at all, which on working code is nowhere."""
    n, L = n_col.astype(np.float64), L_col.astype(np.float64)
    columns = spider_degrees(n, L)
    found = []
    for j, spec in enumerate(specs):
        direct = eval_direct(columns, n, spec)
        reduced = reduced_values(spec, n, L)
        if (direct != reduced).any():
            found += [(k, j, f"direct={float(direct[k])!r} reduced={float(reduced[k])!r}")
                      for k, _ in direct_mismatches(direct[:, None], reduced[:, None])]
    return [(k, specs[j].name, detail) for k, j, detail in sorted(found)]


def triangle_suite(max_order: int = 20) -> list[Failure]:
    """Coefficient triangle against inclusion-exclusion Stirling numbers."""
    failures = []
    rows = coefficient_triangle(max_order)
    for a in range(1, max_order + 1):
        row = rows[a - 1]
        for i in range(1, a + 1):
            expected = stirling2(a, i)
            if row[i - 1] != expected:
                failures.append(Failure(
                    "triangle-stirling", "coefficient_triangle",
                    {"order": a, "i": i},
                    f"triangle {row[i - 1]} != stirling {expected}"))
    return failures


def seed_degeneracy_suite(p_values=FULL_P_VALUES, catalog=None) -> list[Failure]:
    """At time 1 the tree is the deterministic seed: every catalog variance
    must be exactly zero and every mean must equal the seed's index value."""
    if catalog is None:
        catalog = _default_catalog()
    seed = new_seed()
    specs = {spec.name: spec for spec in NAMED_INDICES}
    failures = []
    for key, entry in catalog.items():
        seed_value = eval_direct(spider_degrees(seed.time, seed.leaf_count), seed.time, specs[key])
        for p in p_values:
            mean = entry.mean(1, p)
            var = entry.variance(1, p)
            if mean != seed_value:
                failures.append(Failure(
                    "seed-degeneracy", key, {"n": 1, "p": p},
                    f"mean formula {mean} != seed value {seed_value}"))
            if var != 0:
                failures.append(Failure(
                    "seed-degeneracy", key, {"n": 1, "p": p},
                    f"variance formula {var} != 0"))
    return failures


def run_level(level: str) -> tuple[list[Failure], dict]:
    """Run every suite at the requested depth; returns (failures, counts).

    No suite draws a random number, so the result takes no seed; ``verify
    --seed`` and a config's ``master_seed`` are accepted and show only in
    the CLI's resolved config."""
    if level == "quick":
        p_values, n_values = QUICK_P_VALUES, QUICK_N_VALUES
        max_n, max_order = 120, 12
    elif level == "full":
        p_values, n_values = FULL_P_VALUES, FULL_N_VALUES
        max_n, max_order = 500, 20
    else:
        raise ValueError(f"unknown verification level {level!r}")
    failures = []
    failures += catalog_oracle_suite(p_values, n_values)
    failures += seed_degeneracy_suite(p_values)
    failures += triangle_suite(max_order)
    failures += reachable_pairs_suite(max_n)
    counts = {
        "level": level,
        "catalog_grid": f"{len(p_values)} p-values x {len(n_values)} horizons",
        "reachable_pairs": max_n * (max_n + 1) // 2,
        "triangle_order": max_order,
    }
    return failures, counts
