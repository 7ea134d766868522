"""Acceptance suite: one test (or parametrized group) per criterion, each
printing a pass/fail line.  Tolerances are pinned here and nowhere else.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines on passing runs too.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from spiderlab import (
    GINI,
    GORDON_SCANTLEBURY,
    HOOVER,
    LEAVES,
    NAMED_INDICES,
    ZAGREB,
    GeneralizedZagreb,
    LeafLaw,
    Preferential,
    SimConfig,
    UniformLeaf,
    coefficient_triangle,
    eval_direct,
    ks_normal,
    leaf_atoms,
    leaf_moment_expansion,
    leaf_pmf,
    leaf_raw_moment_exact,
    moment_catalog,
    new_seed,
    oracle_moment,
    reduced_values,
    run_experiment,
    spider_degrees,
    standardize,
    support_pmf,
)
from spiderlab.verify import (
    FULL_N_VALUES,
    FULL_P_VALUES,
    catalog_oracle_suite,
    direct_reduced_suite,
    stirling2,
)

MASTER_SEED = 20250808


def report(criterion, detail, passed):
    print(f"[criterion {criterion}] {detail}: {'PASS' if passed else 'FAIL'}")
    return passed


# -- 1. oracle equality, exact -------------------------------------------------

def test_c1_catalog_equals_oracle_exactly():
    start = time.perf_counter()
    failures = catalog_oracle_suite(FULL_P_VALUES, FULL_N_VALUES)
    elapsed = time.perf_counter() - start
    flags = "\n".join(str(f) for f in failures)
    ok = report(1, f"exact catalog-vs-oracle over 9 p x 50 n in {elapsed:.1f}s "
                   f"({len(failures)} formula flags)", not failures and elapsed < 60)
    assert ok, f"paper-formula flags:\n{flags}"


# -- 2. seed degeneracy ----------------------------------------------------------

def test_c2_seed_degeneracy():
    seed = new_seed()
    # Deterministic seed values, derived from the seed's degree multiset
    # {3: 1, 1: 3}: zagreb 9+3, forgotten 27+3, one length-2 path per leaf
    # pair for gordon_scantlebury, and gini = hoover = 1/4.
    expected = {
        "leaves": 3,
        "zagreb": 12,
        "gordon_scantlebury": 3,
        "platt": 6,
        "forgotten": 30,
        "gini": Fraction(1, 4),
        "hoover": Fraction(1, 4),
    }
    for spec in NAMED_INDICES:
        entry = moment_catalog(spec)
        seed_value = eval_direct(spider_degrees(seed.time, seed.leaf_count), 1, spec)
        assert seed_value == expected[entry.key]
        for p in FULL_P_VALUES:
            assert entry.mean(1, p) == seed_value, entry.key
            assert entry.variance(1, p) == 0, entry.key
    report(2, "catalog means/variances collapse to the deterministic seed at n=1", True)


# -- 3. direct vs reduced ---------------------------------------------------------

def test_c3_direct_equals_reduced_on_random_trees():
    failures = direct_reduced_suite(trials=10_000, max_n=500, master_seed=MASTER_SEED)
    ok = report(3, f"direct vs reduced on 10^4 random trees, n <= 500 "
                   f"({len(failures)} mismatches at 1e-12 relative)", not failures)
    assert ok, "\n".join(str(f) for f in failures)


# -- 4. Monte Carlo consistency ----------------------------------------------------

def test_c4_monte_carlo_means_within_four_se():
    n, p, replicates = 201, 0.4, 100_000
    config = SimConfig(model=UniformLeaf(p), horizon=n, replicates=replicates,
                       master_seed=MASTER_SEED, indices=NAMED_INDICES)
    summary = run_experiment(config)
    worst = 0.0
    for spec in NAMED_INDICES:
        entry = moment_catalog(spec)
        mean = float(entry.mean(n, p))
        se = math.sqrt(float(entry.variance(n, p)) / replicates)
        z = abs(summary.stats[entry.key].mean - mean) / se
        worst = max(worst, z)
        assert z <= 4.0, f"{entry.key}: {z:.2f} standard errors from catalog mean"
    report(4, f"all 7 empirical means within 4 SE at n=201, p=0.4, R=1e5 "
              f"(worst {worst:.2f} SE)", True)


# -- 5. CLT diagnostics -------------------------------------------------------------

CLT_INDICES = (LEAVES, ZAGREB, GORDON_SCANTLEBURY)


@pytest.fixture(scope="module")
def clt_samples():
    config = SimConfig(model=UniformLeaf(0.5), horizon=5000, replicates=20_000,
                       master_seed=MASTER_SEED, indices=CLT_INDICES)
    return run_experiment(config)


@pytest.mark.parametrize("spec", CLT_INDICES, ids=lambda s: s.name)
def test_c5_ks_of_standardized_indices(clt_samples, spec):
    n, p, k = 5000, 0.5, 0.0
    atoms, counts = leaf_atoms(clt_samples.leaf_counts)
    z = standardize(reduced_values(spec, n, atoms), spec, n, p, k)
    d = ks_normal(z, counts)
    # This index's own drift: (exact mean - catalog centre) / scale, in sigma.
    entry, exact_p = moment_catalog(spec), Fraction(p)
    drift = (float(entry.mean(n, exact_p) - entry.clt.center(n, exact_p))
             / entry.clt.scale_value(n, p, k))
    ok = report(5, f"KS of standardized {spec.name} at n=5000, R=2e4: D={d:.4f} < 0.02", d < 0.02)
    assert ok, (
        f"KS statistic {d:.4f} exceeds the 0.02 threshold for {spec.name}: the cataloged "
        f"center differs from the exact mean by a Theta(n) term, leaving a "
        f"Theta(n^-1/2) drift (~{drift:.3f} sigma at n=5000) that dominates the KS distance; "
        f"see the decisions ledger entry on this criterion"
    )


def test_c5_ks_shrinks_from_n_100_to_10000():
    distances = {100: [], 10_000: []}
    for seed_offset in range(5):
        for n in distances:
            config = SimConfig(model=UniformLeaf(0.5), horizon=n, replicates=10_000,
                               master_seed=MASTER_SEED + 1 + seed_offset, indices=(LEAVES,))
            atoms, counts = leaf_atoms(run_experiment(config).leaf_counts)
            z = standardize(reduced_values(LEAVES, n, atoms), LEAVES, n, 0.5, 0.0)
            distances[n].append(ks_normal(z, counts))
    low, high = np.mean(distances[10_000]), np.mean(distances[100])
    ok = report(5, f"mean KS over 5 seeds: D(n=1e4)={low:.4f} < D(n=100)={high:.4f}", low < high)
    assert ok


# -- 6. limit constants ---------------------------------------------------------------

@pytest.fixture(scope="module")
def limit_runs():
    uniform = run_experiment(
        SimConfig(model=UniformLeaf(0.5), horizon=10_000, replicates=10_000,
                  master_seed=MASTER_SEED, indices=(GINI, HOOVER, GeneralizedZagreb(3))))
    preferential = run_experiment(
        SimConfig(model=Preferential(), horizon=10_000, replicates=10_000,
                  master_seed=MASTER_SEED + 11, indices=(HOOVER,)))
    return uniform, preferential


def test_c6_gini_mean_near_limit(limit_runs):
    uniform, _ = limit_runs
    mean = uniform.stats["gini"].mean
    ok = report(6, f"mean gini at n=1e4: {mean:.5f} within 0.005 of 0.375",
                abs(mean - 0.375) < 0.005)
    assert ok


def test_c6_hoover_mean_near_quarter_both_models(limit_runs):
    uniform, preferential = limit_runs
    for label, run in (("uniform p=1/2", uniform), ("preferential", preferential)):
        mean = run.stats["hoover"].mean
        ok = report(6, f"mean hoover ({label}) at n=1e4: {mean:.5f} within 0.005 of 0.25",
                    abs(mean - 0.25) < 0.005)
        assert ok, label


def test_c6_scaled_power_sum_near_cube_limit(limit_runs):
    uniform, _ = limit_runs
    scaled = uniform.stats["generalized_zagreb:3"].mean / 10_000**3
    ok = report(6, f"mean Z^g(3)/n^3 at n=1e4: {scaled:.6f} within 1% of 0.125",
                abs(scaled - 0.125) <= 0.00125)
    assert ok


def test_c6_gini_exceedance_below_one_percent(limit_runs):
    uniform, _ = limit_runs
    samples = reduced_values(GINI, 10_000, uniform.leaf_counts)
    exceedance = float((np.abs(samples - 0.375) > 0.05).mean())
    ok = report(6, f"P(|gini - 0.375| > 0.05) at n=1e4: {exceedance:.4f} < 0.01",
                exceedance < 0.01)
    assert ok


# -- 7. coefficient triangle and exact moments -----------------------------------------

def test_c7_triangle_matches_stirling_to_order_20():
    rows = coefficient_triangle(20)
    for a in range(1, 21):
        for i in range(1, a + 1):
            assert rows[a - 1][i - 1] == stirling2(a, i), (a, i)
    report(7, "coefficient triangle == Stirling-2 for all orders <= 20", True)


def test_c7_exact_moments_match_oracle_to_order_6():
    p_dense, p_sparse = Fraction(1, 3), Fraction(7, 10)
    for n in range(1, 201):
        law = LeafLaw(n, p_dense)
        for order in range(1, 7):
            assert leaf_raw_moment_exact(law, order) == oracle_moment(LEAVES, n, p_dense, order)
    for n in (1, 2, 5, 17, 60, 128, 200):
        law = LeafLaw(n, p_sparse)
        for order in range(1, 7):
            assert leaf_raw_moment_exact(law, order) == oracle_moment(LEAVES, n, p_sparse, order)
    report(7, "triangle-based moments == summation oracle, orders <= 6, n <= 200, exact", True)


# -- 8. two-term expansion remainder ------------------------------------------------------

def test_c8_expansion_remainder_is_bounded():
    worst_ratio = 0.0
    for order in (2, 3, 4, 5):
        for p in (Fraction(1, 5), Fraction(1, 2), Fraction(4, 5)):
            tail = []
            for n in range(100, 2001):
                exact = leaf_raw_moment_exact(LeafLaw(n, p), order)
                approx = leaf_moment_expansion(order)(n, p)
                scaled = abs(float(exact - approx)) / n ** (order - 2)
                assert math.isfinite(scaled)
                if n >= 500:
                    tail.append(scaled)
            ratio = max(tail) / min(tail)
            worst_ratio = max(worst_ratio, ratio)
            assert ratio < 10, (order, p, ratio)
    report(8, f"remainder/n^(a-2) stable over n in [500, 2000] "
              f"(worst tail max/min {worst_ratio:.3f} < 10)", True)


def test_c8_expansion_exact_at_order_one():
    for p in (Fraction(1, 5), Fraction(1, 2), Fraction(4, 5)):
        for n in (1, 7, 100, 1234):
            assert leaf_moment_expansion(1)(n, p) == leaf_raw_moment_exact(LeafLaw(n, p), 1)
    report(8, "order-1 expansion equals the exact moment identically", True)


# -- 9. preferential leaf distribution ------------------------------------------------------

def test_c9_preferential_leaf_counts_match_binomial_half():
    n, replicates = 50, 100_000
    config = SimConfig(model=Preferential(), horizon=n, replicates=replicates,
                       master_seed=MASTER_SEED + 19, indices=(LEAVES,))
    samples = run_experiment(config).leaf_counts
    law = LeafLaw(n, Fraction(1, 2))
    support = list(law.support)
    probs = [float(leaf_pmf(law, k)) for k in support]
    counts = [int((samples == k).sum()) for k in support]

    # merge tails so every bin expects at least 10 observations
    bins = []
    acc_p, acc_c = 0.0, 0
    for prob, count in zip(probs, counts):
        acc_p += prob
        acc_c += count
        if acc_p * replicates >= 10:
            bins.append((acc_p, acc_c))
            acc_p, acc_c = 0.0, 0
    if acc_p > 0 and bins:
        last_p, last_c = bins.pop()
        bins.append((last_p + acc_p, last_c + acc_c))

    worst = 0.0
    for prob, count in bins:
        se = math.sqrt(replicates * prob * (1 - prob))
        z = abs(count - replicates * prob) / se
        worst = max(worst, z)
        assert z <= 5.0, f"bin with probability {prob:.5f}: {z:.2f} SE"
    report(9, f"preferential leaf counts match Binomial(49, 1/2) in {len(bins)} bins "
              f"(worst {worst:.2f} SE)", True)


# -- engine streams against the exact leaf law ----------------------------------------

DKW_ALPHA, DKW_REPLICATES = 1e-6, 20_000


@pytest.mark.parametrize("n,p", [(201, 0.4), (5000, 0.5), (2, 0.3)])
def test_engine_leaf_counts_within_dkw_band_of_binomial(n, p):
    # Dvoretzky-Kiefer-Wolfowitz with Massart's constant: for R iid draws,
    # P(sup |F_R - F| > eps) <= 2 exp(-2 R eps^2), so a correct engine
    # exceeds eps = sqrt(ln(2 / alpha) / (2R)) with probability <= alpha.
    eps = math.sqrt(math.log(2 / DKW_ALPHA) / (2 * DKW_REPLICATES))
    config = SimConfig(model=UniformLeaf(p), horizon=n, replicates=DKW_REPLICATES,
                       master_seed=MASTER_SEED + 23, indices=(LEAVES,))
    counts = run_experiment(config).leaf_counts
    # both CDFs are step functions jumping only on the support 3..n+2
    exact_cdf = np.cumsum(support_pmf(LeafLaw(n, p)))
    empirical_cdf = np.cumsum(np.bincount(counts - 3, minlength=n)) / DKW_REPLICATES
    d = float(np.abs(empirical_cdf - exact_cdf).max())
    ok = report("DKW", f"engine L at n={n}, p={p}, R=2e4: sup|F_R - F|={d:.4f} <= {eps:.4f}",
                d <= eps)
    assert ok
