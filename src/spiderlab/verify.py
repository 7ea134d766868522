"""One-shot verification suites.

Four suites cross-check the package against routes that do not share code
with what they test:

* catalog formulas against the brute-force summation oracle, in exact
  arithmetic: the binomial masses and the reduced index values are summed
  as integers over one common denominator (``support_weights``,
  ``exact_mean_variance``), never through a catalog polynomial (a mismatch
  is reported as a formula flag with its (index, n, p) witness, never
  silently patched);
* direct degree-multiset evaluation against the reduced closed forms on
  randomly grown trees, grown in blocks of 64 that share one random stream
  (the layout the Monte Carlo engine uses), the reduced side taken in one
  float64 ``reduced_values`` pass per index and block;
* the coefficient triangle against Stirling numbers of the second kind
  computed by inclusion-exclusion;
* degeneracy at time 1, where the tree is deterministic, so every catalog
  variance must vanish and every mean must equal the seed value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .analytics import (
    LeafLaw,
    coefficient_triangle,
    exact_mean_variance,
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
    eval_reduced,
    reduced_values,
)
from .montecarlo import STREAM_BLOCK, direct_mismatches
from .tree import RngStream, TreeState, degree_multiset, grow_legs, new_seed

__all__ = [
    "Failure",
    "stirling2",
    "catalog_oracle_suite",
    "direct_reduced_suite",
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
    oracle over the given (p, n) grid."""
    if catalog is None:
        catalog = _default_catalog()
    failures = []
    for n in n_values:
        reduced = {spec.name: [eval_reduced(n, k, spec) for k in range(3, n + 3)]
                   for spec in NAMED_INDICES}
        for p in p_values:
            weights, _ = support_weights(LeafLaw(n, p))
            for key, entry in catalog.items():
                m1, oracle_var = exact_mean_variance(weights, reduced[key])
                mean_formula = entry.mean(n, p)
                var_formula = entry.variance(n, p)
                if mean_formula != m1:
                    failures.append(Failure(
                        "catalog-oracle", key, {"n": n, "p": p},
                        f"mean formula {mean_formula} != oracle {m1}"))
                if var_formula != oracle_var:
                    failures.append(Failure(
                        "catalog-oracle", key, {"n": n, "p": p},
                        f"variance formula {var_formula} != oracle {oracle_var}"))
    return failures


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
    of STREAM_BLOCK = 64: block b = t // 64 draws from the one stream
    ``RngStream(master_seed, 1 + b)``, which yields the 2 (n - 1) interleaved
    (decision, pick) uniforms of each of its trials in trial order, as
    ``tree.grow`` consumes them.  So a trial's tree depends only on
    (master_seed, t, max_n), not on the trial count.

    Every spec is evaluated directly (``eval_direct``) on each tree's one
    degree multiset; the reduced side is one float64 ``reduced_values`` pass
    per spec and block over the block's (n, L), the engine's path.  A pair fails by the engine
    audit's check, ``montecarlo.direct_mismatches``; failures are listed in
    (trial, spec) order with their (n, L, p) witness.  Only one block's
    trees are held at a time.
    """
    specs = _trial_specs()
    failures = []
    meta = RngStream(master_seed, 0).doubles(2 * trials).reshape(trials, 2)
    ns = 1 + (meta[:, 0] * max_n).astype(np.int64)
    ps = 0.05 + 0.9 * meta[:, 1]
    for first in range(0, trials, STREAM_BLOCK):
        n_block = ns[first:first + STREAM_BLOCK]
        stream = RngStream(master_seed, 1 + first // STREAM_BLOCK)
        L_block = np.empty(len(n_block), dtype=np.int64)
        direct = np.empty((len(n_block), len(specs)))
        for k, n in enumerate(n_block.tolist()):
            u = stream.doubles(2 * (n - 1)).reshape(n - 1, 2)
            legs = grow_legs(u[:, 0] < ps[first + k], u[:, 1])
            state = TreeState(time=n, legs=legs)
            L_block[k] = state.leaf_count
            degrees = degree_multiset(state)
            direct[k] = [float(eval_direct(degrees, n, spec)) for spec in specs]
        reduced = np.column_stack([reduced_values(spec, n_block, L_block) for spec in specs])
        for k, j in direct_mismatches(direct, reduced):  # (trial, spec) order
            failures.append(Failure(
                "direct-reduced", specs[j].name,
                {"n": int(n_block[k]), "L": int(L_block[k]), "p": round(float(ps[first + k]), 6)},
                f"direct={float(direct[k, j])!r} reduced={float(reduced[k, j])!r}"))
    return failures


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
        seed_value = eval_direct(degree_multiset(seed), seed.time, specs[key])
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


def run_level(level: str, master_seed: int = 20240917) -> tuple[list[Failure], dict]:
    """Run every suite at the requested depth; returns (failures, counts)."""
    if level == "quick":
        p_values, n_values = QUICK_P_VALUES, QUICK_N_VALUES
        trials, max_n, max_order = 500, 120, 12
    elif level == "full":
        p_values, n_values = FULL_P_VALUES, FULL_N_VALUES
        trials, max_n, max_order = 10_000, 500, 20
    else:
        raise ValueError(f"unknown verification level {level!r}")
    failures = []
    failures += catalog_oracle_suite(p_values, n_values)
    failures += seed_degeneracy_suite(p_values)
    failures += triangle_suite(max_order)
    failures += direct_reduced_suite(trials, max_n, master_seed)
    counts = {
        "level": level,
        "catalog_grid": f"{len(p_values)} p-values x {len(n_values)} horizons",
        "random_trees": trials,
        "triangle_order": max_order,
    }
    return failures, counts
