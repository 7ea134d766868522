import dataclasses
import hashlib
import json
import math
from collections import defaultdict
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, strategies as st

from spiderlab import (
    FORGOTTEN,
    GINI,
    GORDON_SCANTLEBURY,
    HOOVER,
    LEAVES,
    NAMED_INDICES,
    PLATT,
    ZAGREB,
    GeneralizedZagreb,
    Generic,
    Identity,
    LeafLaw,
    UniformLeaf,
    UnknownIndexError,
    affine_mgf,
    catalog_entry_json,
    coefficient_triangle,
    export_catalog_json,
    leaf_mgf,
    leaf_moment_expansion,
    leaf_pmf,
    leaf_raw_moment_exact,
    moment_catalog,
    new_seed,
    oracle_mean_variance,
    oracle_moment,
    oracle_variance,
    step,
    support_pmf,
)
import spiderlab.analytics as analytics
from spiderlab.analytics import (
    RationalFormula,
    exact_mean_variance,
    integer_scaled,
    support_weights,
)
from spiderlab.indices import eval_reduced, horner, reduced_values
from spiderlab.verify import catalog_oracle_suite, stirling2

from conftest import ScriptedStream

P_GRID = tuple(Fraction(i, 10) for i in range(1, 10))


def enumerate_leaf_law(n, p):
    """Exact leaf-count distribution of the actual growth process.

    Walks every decision path through `step` with scripted streams and
    accumulates exact path probabilities; independent of the binomial
    closed form it is used to check.
    """
    model = UniformLeaf(float(p))
    dist = defaultdict(Fraction)
    for path in product((True, False), repeat=n - 1):
        state = new_seed()
        weight = Fraction(1)
        for centroid in path:
            if centroid:
                weight *= p
                state = step(state, model, ScriptedStream([0.0, 0.0]))
            else:
                weight *= 1 - p
                state = step(state, model, ScriptedStream([0.999999, 0.0]))
        dist[state.leaf_count] += weight
    return dict(dist)


# -- leaf law ------------------------------------------------------------------

def test_pmf_matches_process_enumeration():
    for n in (1, 2, 3, 5, 8):
        for p in (Fraction(3, 10), Fraction(1, 2), Fraction(4, 5)):
            law = LeafLaw(n, p)
            enumerated = enumerate_leaf_law(n, p)
            for k in law.support:
                assert leaf_pmf(law, k) == enumerated.get(k, Fraction(0))


def test_pmf_contract_examples():
    assert leaf_pmf(LeafLaw(1, 0.37), 3) == 1
    assert leaf_pmf(LeafLaw(3, Fraction(3, 10)), 4) == Fraction(42, 100)
    assert leaf_pmf(LeafLaw(3, 0.3), 4) == pytest.approx(0.42)
    assert leaf_pmf(LeafLaw(2, 0.5), 5) == 0
    assert leaf_pmf(LeafLaw(2, 0.5), 2) == 0


def test_pmf_normalizes():
    assert sum(support_pmf(LeafLaw(40, Fraction(2, 7)))) == 1
    assert sum(support_pmf(LeafLaw(40, 2 / 7))) == pytest.approx(1.0, abs=1e-12)
    # float path survives horizons where the tail masses underflow
    assert sum(support_pmf(LeafLaw(5000, 0.5))) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("n", [2000, 5000])
def test_float_pmf_where_the_binomial_coefficient_leaves_the_float_range(n):
    # C(n - 1, j) passes the float range near n = 1030; leaf_pmf reads
    # support_pmf's mass, with the accuracy support_pmf states.
    law = LeafLaw(n, 0.3)
    masses = support_pmf(law)
    a, c = (0.3).as_integer_ratio()
    for k in (3, 600, 3 * n // 10 - 100, 3 * n // 10 + 2, 3 * n // 10 + 60, n + 2):
        j = k - 3
        exact = math.comb(n - 1, j) * a ** j * (c - a) ** (n - 1 - j) / c ** (n - 1)
        assert leaf_pmf(law, k) == masses[j]
        assert abs(leaf_pmf(law, k) - exact) <= 3e-17
        if exact > 1e-6 * max(masses):
            assert leaf_pmf(law, k) == pytest.approx(exact, rel=2e-14)
    assert leaf_pmf(law, 2) == leaf_pmf(law, n + 3) == 0


def test_support_pmf_matches_pointwise():
    law = LeafLaw(17, Fraction(2, 5))
    assert support_pmf(law) == [leaf_pmf(law, k) for k in law.support]


def test_law_validation():
    with pytest.raises(ValueError):
        LeafLaw(0, 0.5)
    with pytest.raises(ValueError):
        LeafLaw(5, 0.0)
    with pytest.raises(ValueError):
        LeafLaw(5, Fraction(1))


# -- MGFs ----------------------------------------------------------------------

def test_mgf_at_zero_is_one():
    assert leaf_mgf(LeafLaw(25, 0.4), 0.0) == 1.0


def test_mgf_seed_time_is_pure_exponential():
    law = LeafLaw(1, 0.8)
    for t in (-1.0, 0.3, 2.0):
        assert leaf_mgf(law, t) == pytest.approx(math.exp(3 * t))


def test_mgf_plugin_value():
    # n=2, p=1/2, t=ln 2: E[2^L] with L uniform on {3, 4}
    assert leaf_mgf(LeafLaw(2, 0.5), math.log(2)) == pytest.approx((8 + 16) / 2)


def test_mgf_matches_enumeration():
    p = Fraction(2, 5)
    law = LeafLaw(6, float(p))
    dist = enumerate_leaf_law(6, p)
    for t in (-0.7, 0.0, 0.5):
        expected = sum(float(w) * math.exp(t * k) for k, w in dist.items())
        assert leaf_mgf(law, t) == pytest.approx(expected, rel=1e-12)


def test_affine_mgf_identity_case():
    law = LeafLaw(9, 0.35)
    for t in (-0.4, 0.9):
        assert affine_mgf(law, 1.0, 0.0, t) == pytest.approx(leaf_mgf(law, t), rel=1e-14)


def test_affine_mgf_constant_case():
    law = LeafLaw(9, 0.35)
    assert affine_mgf(law, 0.0, 2.5, 0.8) == pytest.approx(math.exp(2.5 * 0.8))


def test_affine_mgf_plugin():
    law = LeafLaw(2, 0.5)
    for t in (-0.3, 0.2):
        expected = (0.5 + 0.5 * math.exp(2 * t)) * math.exp(7 * t)
        assert affine_mgf(law, 2.0, 1.0, t) == pytest.approx(expected, rel=1e-14)


def central_difference(f, order, h):
    if order == 1:
        return (f(h) - f(-h)) / (2 * h)
    if order == 2:
        return (f(h) - 2 * f(0.0) + f(-h)) / h**2
    return (f(2 * h) - 2 * f(h) + 2 * f(-h) - f(-2 * h)) / (2 * h**3)


def test_mgf_derivatives_match_exact_moments():
    law = LeafLaw(6, 0.4)

    def mgf(t):
        return leaf_mgf(law, t)

    for order, h in ((1, 1e-5), (2, 1e-4), (3, 3e-4)):
        numeric = central_difference(mgf, order, h)
        exact = float(leaf_raw_moment_exact(LeafLaw(6, Fraction(2, 5)), order))
        assert abs(numeric - exact) <= 1e-6 * abs(exact)


# -- coefficient triangle ------------------------------------------------------

def test_triangle_small_rows():
    rows = coefficient_triangle(4)
    assert rows[0] == [1]
    assert rows[1] == [1, 1]
    assert rows[2] == [1, 3, 1]
    assert rows[3] == [1, 7, 6, 1]


def test_triangle_boundaries():
    rows = coefficient_triangle(20)
    for a in range(1, 21):
        assert rows[a - 1][0] == 1
        assert rows[a - 1][a - 1] == 1


def test_triangle_matches_independent_stirling():
    rows = coefficient_triangle(20)
    for a in range(1, 21):
        for i in range(1, a + 1):
            assert rows[a - 1][i - 1] == stirling2(a, i)


def test_triangle_rejects_bad_order():
    with pytest.raises(ValueError):
        coefficient_triangle(0)


# -- exact and asymptotic moments ----------------------------------------------

@given(st.integers(1, 120), st.sampled_from(P_GRID))
def test_first_two_moments_closed_forms(n, p):
    law = LeafLaw(n, p)
    mean = 3 + (n - 1) * p
    assert leaf_raw_moment_exact(law, 1) == mean
    assert leaf_raw_moment_exact(law, 2) == mean**2 + (n - 1) * p * (1 - p)


def test_exact_moments_match_oracle():
    for n in (1, 2, 3, 7, 19, 64):
        for p in (Fraction(1, 3), Fraction(7, 10)):
            law = LeafLaw(n, p)
            for order in range(1, 7):
                assert leaf_raw_moment_exact(law, order) == oracle_moment(LEAVES, n, p, order)


def test_moment_order_bounds():
    with pytest.raises(ValueError):
        leaf_raw_moment_exact(LeafLaw(5, 0.5), 0)
    with pytest.raises(ValueError):
        leaf_raw_moment_exact(LeafLaw(5, 0.5), 31)


def test_asymptotic_order_one_is_exact():
    for n in (1, 10, 1000):
        for p in (Fraction(1, 4), Fraction(9, 10)):
            assert leaf_moment_expansion(1)(n, p) == leaf_raw_moment_exact(LeafLaw(n, p), 1)


def test_asymptotic_second_moment_accuracy():
    exact = float(leaf_raw_moment_exact(LeafLaw(1000, Fraction(1, 2)), 2))
    approx = leaf_moment_expansion(2)(1000, 0.5)
    assert abs(approx - exact) / exact < 1e-4


def test_expansion_leading_coefficient():
    for order in range(1, 8):
        expansion = leaf_moment_expansion(order)
        assert horner(expansion.rows[0], Fraction(2, 5)) == Fraction(2, 5) ** order


EXPANSION_N = (1, 2, 7, 100, 12345)


@pytest.mark.parametrize("a", range(1, 11))
def test_expansion_and_leading_variance_are_their_closed_forms(a):
    expansion = leaf_moment_expansion(a)
    asymptotic = moment_catalog(GeneralizedZagreb(a)).asymptotic if a >= 3 else None
    for n, p in product(EXPANSION_N, P_GRID + (Fraction(2, 7), Fraction(1, 3 ** 20))):
        closed = p ** a * n ** a + Fraction(a, 2) * (a * (1 - p) - p + 5) * p ** (a - 1) * n ** (a - 1)
        assert expansion(n, p) == closed
        if asymptotic:
            assert asymptotic.mean(n, p) == closed
            assert asymptotic.variance_leading(n, p) == a * a * (1 - p) * p ** (2 * a - 1) * n ** (2 * a - 1)


def test_every_p_polynomial_of_the_catalog_is_a_rational_formula():
    assert leaf_moment_expansion(1).rows == moment_catalog(LEAVES).mean.rows == ((1, 0), (-1, 3))
    for a in range(3, 11):
        entry = moment_catalog(GeneralizedZagreb(a))
        assert isinstance(entry.asymptotic.mean, RationalFormula)
        assert isinstance(entry.asymptotic.variance_leading, RationalFormula)
        assert isinstance(entry.limit.constant, RationalFormula)
    for spec in NAMED_INDICES:
        limit = moment_catalog(spec).limit
        assert limit is None or isinstance(limit.constant, RationalFormula)


# -- catalog -------------------------------------------------------------------

def test_catalog_seed_means():
    for p in (0.17, Fraction(1, 2), 0.93):
        assert moment_catalog(ZAGREB).mean(1, p) == 12
        assert moment_catalog(FORGOTTEN).variance(1, p) == 0
        assert moment_catalog(GINI).mean(1, p) == Fraction(1, 4)
        assert moment_catalog(HOOVER).mean(1, p) == Fraction(1, 4)


def test_catalog_limits():
    assert moment_catalog(GINI).limit.constant_value(Fraction(1, 2)) == Fraction(3, 8)
    assert moment_catalog(HOOVER).limit.constant_value(0.5) == 0.25
    assert moment_catalog(ZAGREB).limit.constant_value(Fraction(1, 2)) == Fraction(1, 4)
    assert moment_catalog(GeneralizedZagreb(3)).limit.constant_value(0.5) == 0.125


def test_hoover_mean_tends_to_quarter():
    entry = moment_catalog(HOOVER)
    assert float(entry.mean(10**6, 0.5)) == pytest.approx(0.25, abs=1e-5)


def test_catalog_variances_nonnegative_and_degenerate_at_seed():
    for spec in NAMED_INDICES:
        entry = moment_catalog(spec)
        for p in P_GRID:
            assert entry.variance(1, p) == 0
            for n in (2, 3, 10, 41):
                assert entry.variance(n, p) >= 0


def test_catalog_against_oracle_spot_grid():
    for spec in NAMED_INDICES:
        entry = moment_catalog(spec)
        for n in (1, 2, 6, 13):
            for p in (Fraction(1, 10), Fraction(1, 2), Fraction(9, 10)):
                m1 = oracle_moment(spec, n, p, 1)
                m2 = oracle_moment(spec, n, p, 2)
                assert entry.mean(n, p) == m1
                assert entry.variance(n, p) == m2 - m1 * m1


@pytest.mark.parametrize("spec", NAMED_INDICES, ids=lambda spec: spec.name)
def test_reduced_table_moments_match_catalog(spec):
    # The reduced form is a polynomial in L over den, so its mean and variance
    # follow from the triangle's exact raw moments E[L^k], k <= 2 * degree.
    form = spec.reduced_form
    entry = moment_catalog(spec)
    for n in (1, 2, 7, 50):
        coeffs = [horner(poly, n + 2) for poly in form.coeffs]  # decreasing powers of L
        den = Fraction(horner(form.den, n + 2))
        degree = len(coeffs) - 1
        square = [sum(coeffs[i] * coeffs[j - i] for i in range(len(coeffs)) if 0 <= j - i <= degree)
                  for j in range(2 * degree + 1)]
        for p in (Fraction(1, 10), Fraction(1, 2), Fraction(9, 10)):
            law = LeafLaw(n, p)
            raw = [1] + [leaf_raw_moment_exact(law, k) for k in range(1, 2 * degree + 1)]
            mean = sum(c * raw[degree - i] for i, c in enumerate(coeffs)) / den
            second = sum(c * raw[2 * degree - i] for i, c in enumerate(square)) / den ** 2
            assert entry.mean(n, p) == mean
            assert entry.variance(n, p) == second - mean ** 2


def test_generalized_zagreb_catalog_aliases():
    z = moment_catalog(ZAGREB)
    gz2 = moment_catalog(GeneralizedZagreb(2))
    assert gz2.mean is z.mean and gz2.variance is z.variance
    f = moment_catalog(FORGOTTEN)
    gz3 = moment_catalog(GeneralizedZagreb(3))
    assert gz3.mean is f.mean and gz3.variance is f.variance


def test_generalized_zagreb_degree_sum_case():
    entry = moment_catalog(GeneralizedZagreb(1))
    for n in (1, 5, 100):
        assert entry.mean(n, Fraction(1, 3)) == 2 * n + 4
        assert entry.variance(n, Fraction(1, 3)) == 0


def test_generalized_zagreb_asymptotic_entries():
    entry = moment_catalog(GeneralizedZagreb(5))
    assert entry.mean is None and entry.variance is None
    assert entry.limit.exponent == 5
    p = Fraction(1, 2)
    assert entry.asymptotic.mean(100, p) == leaf_moment_expansion(5)(100, p)
    # leading variance term agrees with the closed forms where those exist
    assert moment_catalog(GeneralizedZagreb(3)).asymptotic.variance_leading(1, p) \
        == 9 * p**5 * (1 - p)


def test_catalog_rejects_uncataloged_specs():
    with pytest.raises(UnknownIndexError):
        moment_catalog(GeneralizedZagreb(2.5))
    with pytest.raises(UnknownIndexError):
        moment_catalog(GeneralizedZagreb(-2))
    with pytest.raises(UnknownIndexError):
        moment_catalog(Generic(Identity(), 2))


def test_clt_normalizers_present_where_stated():
    assert moment_catalog(LEAVES).clt is not None
    assert moment_catalog(ZAGREB).clt is not None
    assert moment_catalog(GORDON_SCANTLEBURY).clt is not None
    assert moment_catalog(PLATT).clt is not None
    assert moment_catalog(GINI).clt is None
    assert moment_catalog(HOOVER).clt is None
    assert moment_catalog(FORGOTTEN).clt is None


def test_clt_normalizer_values():
    clt = moment_catalog(ZAGREB).clt
    assert clt.center(100, Fraction(1, 2)) == 2500
    assert clt.scale_value(100, 0.5, 0.0) == pytest.approx(2 * math.sqrt(0.5**3 * 0.5 * 100**3))
    k_shift = moment_catalog(LEAVES).clt
    assert k_shift.scale_value(50, 0.5, 14.0) == pytest.approx(math.sqrt(0.25 * 64))


# -- oracle --------------------------------------------------------------------

def test_oracle_contract_examples():
    assert oracle_moment(ZAGREB, 1, Fraction(9, 10), 1) == 12
    assert oracle_moment(LEAVES, 2, Fraction(1, 2), 1) == Fraction(7, 2)
    for n in (1, 4, 9):
        for p in (Fraction(2, 10), Fraction(5, 10)):
            assert moment_catalog(GINI).mean(n, p) == oracle_moment(GINI, n, p, 1)


def test_oracle_float_mode_close_to_exact():
    exact = oracle_moment(ZAGREB, 30, Fraction(2, 5), 2)
    approx = oracle_moment(ZAGREB, 30, 0.4, 2)
    assert approx == pytest.approx(float(exact), rel=1e-12)


def test_float_pmf_matches_exact_masses():
    p = 0.3
    floats = support_pmf(LeafLaw(400, p))
    exact = support_pmf(LeafLaw(400, Fraction(p)))  # the float's exact binary value
    peak = max(floats)
    for a, b in zip(floats, exact):
        assert abs(a - float(b)) <= 3e-17
        if b > 1e-6 * peak:
            assert a == pytest.approx(float(b), rel=1e-14)


def test_oracle_variance_exact_and_float():
    for spec in NAMED_INDICES:
        entry = moment_catalog(spec)
        assert oracle_variance(spec, 12, Fraction(2, 5)) == entry.variance(12, Fraction(2, 5))
        for n in (1000, 5000):
            expected = float(entry.variance(n, 0.3))
            assert oracle_variance(spec, n, 0.3) == pytest.approx(expected, rel=2e-15), spec


@pytest.mark.parametrize("p", [Fraction(2, 5), 0.3])
def test_oracle_mean_variance_is_both_oracles_in_one_pass(p):
    for spec in NAMED_INDICES:
        for n in (1, 7, 300):
            both = oracle_mean_variance(spec, n, p)
            assert both == (oracle_moment(spec, n, p), oracle_variance(spec, n, p))
            assert all(type(x) is type(p) for x in both)


def rowwise(poly, n, p):
    """Reference evaluation: a Horner pass in p per row, then one in n, over
    the denominator's Horner pass in n, in exact rationals (a float p lifted
    to its exact value, rounded once)."""
    value = horner([horner(row, Fraction(p)) for row in poly.rows], n) / horner(poly.den, n)
    return float(value) if isinstance(p, float) else value


def test_poly_np_matches_row_by_row_horner():
    polys = [RationalFormula(((1, 0), (3,))),
             RationalFormula(((Fraction(1, 2), 0, 0), (2,), (-1, 5))),
             # Unlike denominators, within one column and across columns.
             RationalFormula(((Fraction(1, 3), Fraction(-5, 4), 0), (Fraction(1, 6),),
                              (Fraction(-5, 4), Fraction(1, 3), Fraction(1, 6))))]
    for spec in NAMED_INDICES:
        entry = moment_catalog(spec)
        polys += [entry.mean, entry.variance] + ([entry.clt.center] if entry.clt else [])
    # 0.1 lifts to a Fraction over 2**55; 1/3**40 has a 64-bit denominator.
    p_values = (Fraction(2, 5), Fraction(1, 3), Fraction(1, 3 ** 40), 0.3, 0.5, 0.1)
    for poly in polys:
        for n in (1, 2, 9, 5000, 10 ** 6):
            for p in p_values:
                value = poly(n, p)
                assert value == rowwise(poly, n, p) and type(value) is type(rowwise(poly, n, p))


def _catalog_formulas():
    """Every RationalFormula the catalog holds, for the named indices and
    generalized Zagreb exponents 1-12."""
    entries = [moment_catalog(spec) for spec in NAMED_INDICES]
    entries += [moment_catalog(GeneralizedZagreb(a)) for a in range(1, 13)]
    for entry in entries:
        yield from (f for f in (entry.mean, entry.variance) if f is not None)
        if entry.limit:
            yield entry.limit.constant
        if entry.clt:
            yield entry.clt.center
        if entry.asymptotic:
            yield from (entry.asymptotic.mean, entry.asymptotic.variance_leading)


def test_integer_columns_equal_the_pad_then_scale_reference():
    # The reference pads every row to full width, scales all of it and runs
    # Horner down every column; the formula keeps each column from its first
    # non-zero entry, so an all-zero column is () and evaluates to 0.
    count = 0
    leading = moment_catalog(GeneralizedZagreb(300)).asymptotic
    for formula in (*_catalog_formulas(), leading.mean, leading.variance_leading):
        width = max(map(len, formula.rows))
        columns = list(zip(*((0,) * (width - len(row)) + tuple(row) for row in formula.rows)))
        flat, s = integer_scaled([c for column in columns for c in column])
        height = len(formula.rows)
        padded = [tuple(flat[j:j + height]) for j in range(0, len(flat), height)]
        stripped = tuple(column[next((i for i, c in enumerate(column) if c), height):]
                         for column in padded)
        assert formula._integer_columns == (stripped, s), formula.rows
        for n in (0, 1, 2, 17, 5000):
            at = formula.at(n)
            assert at.values == tuple(horner(column, n) for column in padded), (formula.rows, n)
            assert at.den == s * horner(formula.den, n)
        count += 1
    assert count > 50


def test_integer_columns_keep_only_the_non_zero_columns_of_a_sparse_formula():
    # The leading variance at a = 1022 has 2044 rows over 2045 powers of p
    # but two non-zero coefficients, both in its top row: two columns of
    # 2044 entries are kept, and the other 2043 are empty.
    leading = moment_catalog(GeneralizedZagreb(1022)).asymptotic.variance_leading
    columns, s = leading._integer_columns
    assert (len(columns), s) == (2045, 1)
    assert [len(column) for column in columns if column] == [2044, 2044]
    assert (columns[0][0], columns[1][0]) == (-1022 ** 2, 1022 ** 2)
    assert leading(2, Fraction(1, 3)) == Fraction(1022 ** 2 * 2 ** 2044, 3 ** 2044)


def test_integer_columns_scale_only_the_given_coefficients(monkeypatch):
    # The leading variance at a = 300 has 600 rows over 601 powers of p, but
    # only 601 + 599 given coefficients: the padding is not scaled.
    seen = []

    def counting(values):
        seen.append(len(values))
        return integer_scaled(values)

    monkeypatch.setattr(analytics, "integer_scaled", counting)
    leading = moment_catalog(GeneralizedZagreb(300)).asymptotic.variance_leading
    formula = RationalFormula(leading.rows, leading.den)  # a fresh, unscaled copy
    columns, s = formula._integer_columns
    assert seen == [sum(map(len, formula.rows))] == [1200]
    assert (len(columns), len(columns[0]), s) == (601, 600, 1)


@pytest.mark.parametrize("spec", NAMED_INDICES + (GeneralizedZagreb(1),), ids=lambda s: s.name)
def test_catalog_formulas_equal_the_row_wise_reference_over_their_denominator(spec):
    entry = moment_catalog(spec)
    for formula in (entry.mean, entry.variance):
        for n in (1, 2, 17, 50):
            for p in (Fraction(1, 10), Fraction(2, 7), Fraction(9, 10)):
                value = formula(n, p)
                assert type(value) is Fraction
                assert value == rowwise(formula, n, p)


@pytest.mark.parametrize("n", [1, 2, 13, 50])
@pytest.mark.parametrize("p", [Fraction(1, 10), Fraction(2, 7), Fraction(1, 2), Fraction(9, 10)])
def test_support_weights_are_the_exact_masses(n, p):
    law = LeafLaw(n, p)
    weights, total = support_weights(law)
    assert all(isinstance(w, int) for w in weights)
    a, c, m = p.numerator, p.denominator, n - 1
    assert weights == [math.comb(m, j) * a ** j * (c - a) ** (m - j) for j in range(m + 1)]
    assert total == p.denominator ** (n - 1)
    assert sum(weights) == total
    assert [Fraction(w, total) for w in weights] == support_pmf(law)


@pytest.mark.parametrize("values", [
    [],
    [3, -7, 0, True],                           # one denominator, 1
    [1.0, -2.0],
    [0.25, -1.75, 3.25, 0.25],                  # one denominator, 2**2
    [0.1, 0.5, 3.0, -2.75, 0.1],                # mixed powers of 2
    [1e-300, 1e300, 5e-324],
    [Fraction(1, 3), Fraction(-5, 6), 2, 0.5],  # mixed, not only powers of 2
    [Fraction(7, 9), Fraction(-2, 9)],
    reduced_values(ZAGREB, 201, np.arange(60, 110)).tolist(),  # a run's atom values
    reduced_values(GINI, 201, np.arange(60, 110)).tolist(),
])
def test_integer_scaled_puts_the_values_over_the_lcm_of_their_denominators(values):
    exact = [Fraction(v) for v in values]
    d = math.lcm(*(f.denominator for f in exact))  # 1 for no values
    xs, s = integer_scaled(values)
    assert s == d and xs == [int(f * d) for f in exact]
    assert all(type(x) is int for x in xs)


def test_exact_mean_variance_matches_fraction_sums():
    law = LeafLaw(9, Fraction(3, 7))
    pmf = support_pmf(law)
    for spec in NAMED_INDICES + (GeneralizedZagreb(2.5),):
        values = [eval_reduced(law.n, k, spec) for k in law.support]
        m1 = sum(w * Fraction(v) for w, v in zip(pmf, values))
        m2 = sum(w * Fraction(v) ** 2 for w, v in zip(pmf, values))
        xs, d = integer_scaled(values)
        assert all(type(x) is int for x in xs) and [Fraction(x, d) for x in xs] == values
        assert exact_mean_variance(support_weights(law)[0], xs, d) == (m1, m2 - m1 * m1)


@pytest.mark.parametrize("field", ["mean", "variance"])
@pytest.mark.parametrize("key", ["zagreb", "gini"])
def test_catalog_oracle_suite_reports_a_tiny_perturbation(field, key):
    # A formula off by 1e-100 at one grid point must be flagged there, and
    # only there: the oracle is exact, not merely close.
    n_bad, p_bad = 7, Fraction(3, 10)
    catalog = {spec.name: moment_catalog(spec) for spec in NAMED_INDICES}
    formula = getattr(catalog[key], field)

    def perturbed(n, p):
        value = formula(n, p)
        return value + Fraction(1, 10 ** 100) if (n, p) == (n_bad, p_bad) else value

    catalog[key] = dataclasses.replace(catalog[key], **{field: perturbed})
    failures = catalog_oracle_suite(P_GRID, range(1, 11), catalog)
    assert len(failures) == 1
    failure = failures[0]
    assert (failure.suite, failure.index, failure.witness) == (
        "catalog-oracle", key, {"n": n_bad, "p": p_bad})
    assert failure.detail.startswith(f"{field} formula ")


# The oracle's exact value at (n, p) = (7, 3/10), as the suite prints it.
ORACLE_AT_7_3_10 = {("zagreb", "mean"): "459/10", ("zagreb", "variance"): "32193/500",
                    ("gini", "mean"): "163/600", ("gini", "variance"): "1939/600000"}


@pytest.mark.parametrize("key, field", list(ORACLE_AT_7_3_10))
def test_catalog_oracle_suite_prints_the_formula_and_the_reduced_oracle(key, field):
    catalog = {spec.name: moment_catalog(spec) for spec in NAMED_INDICES}
    formula = getattr(catalog[key], field)
    off = Fraction(1, 10 ** 100)

    def perturbed(n, p):
        return formula(n, p) + off if (n, p) == (7, Fraction(3, 10)) else formula(n, p)

    catalog[key] = dataclasses.replace(catalog[key], **{field: perturbed})
    [failure] = catalog_oracle_suite(P_GRID, range(1, 11), catalog)
    oracle = ORACLE_AT_7_3_10[key, field]
    assert failure.detail == f"{field} formula {Fraction(oracle) + off} != oracle {oracle}"
    assert str(failure) == f"[catalog-oracle] {key} (n=7, p=3/10): {failure.detail}"


def _plus_p_minus_p2(row, e):
    """A row of p-coefficients (decreasing powers) plus e (p - p**2)."""
    row = (0,) * max(0, 3 - len(row)) + tuple(row)
    return row[:-3] + (row[-3] - e, row[-2] + e, row[-1])


@pytest.mark.parametrize("key, field", [("zagreb", "mean"), ("gini", "variance")])
def test_catalog_oracle_suite_cross_multiplies_a_catalog_formula_bound_to_n(key, field):
    # A RationalFormula goes through its own at(n), not a call: off by
    # 1e-30 (n - 1) p (1 - p) / den(n), it must be flagged at every n >= 2
    # and p, and print its value and the oracle's as Fractions.
    catalog = {spec.name: moment_catalog(spec) for spec in NAMED_INDICES}
    formula = getattr(catalog[key], field)
    e = Fraction(1, 10 ** 30)
    rows = formula.rows
    wrong = RationalFormula(rows[:-2] + (_plus_p_minus_p2(rows[-2], e),
                                         _plus_p_minus_p2(rows[-1], -e)), formula.den)
    catalog[key] = dataclasses.replace(catalog[key], **{field: wrong})
    failures = catalog_oracle_suite(P_GRID, range(1, 4), catalog)
    assert [(f.index, f.witness) for f in failures] == [
        (key, {"n": n, "p": p}) for n in (2, 3) for p in P_GRID]
    spec = {spec.name: spec for spec in NAMED_INDICES}[key]
    for failure in failures:
        n, p = failure.witness["n"], failure.witness["p"]
        assert wrong(n, p) - formula(n, p) == e * (n - 1) * p * (1 - p) / horner(formula.den, n)
        oracle = oracle_mean_variance(spec, n, p)[field == "variance"]
        assert failure.detail == f"{field} formula {wrong(n, p)} != oracle {oracle}"


def test_oracle_rejects_bad_order():
    with pytest.raises(ValueError):
        oracle_moment(ZAGREB, 5, 0.5, 0)


@pytest.mark.parametrize("order", [-1, 0, 1.5, True])
def test_oracle_mean_variance_takes_only_an_int_order_of_at_least_one(order):
    for oracle in (oracle_mean_variance, oracle_moment):
        with pytest.raises(ValueError, match="order must be an int >= 1"):
            oracle(ZAGREB, 5, Fraction(1, 2), order)


# -- JSON export ---------------------------------------------------------------

def test_catalog_json_schema():
    entries = {entry["index"]: entry for entry in export_catalog_json()}
    assert set(entries) == {
        "leaves", "zagreb", "gordon_scantlebury", "platt", "forgotten", "gini", "hoover",
    }
    zagreb = entries["zagreb"]
    assert zagreb["mean_coeffs"] == {"num": [[1, 0, 0], [-3, 4, 4], [2, -4, 8]], "den": [1]}
    assert zagreb["clt_scale"] == {"coeff": 2, "p_power": 3, "nk_power": 3}
    assert zagreb["limit"] == {"exponent": 2, "constant": [1, 0, 0]}
    gs = entries["gordon_scantlebury"]
    assert gs["var_coeffs"]["num"][1][0] == "11/2"
    hoover = entries["hoover"]
    assert hoover["mean_coeffs"]["den"] == [2, 10, 12]
    assert hoover["var_coeffs"]["den"] == [4, 40, 148, 240, 144]
    assert entries["gini"]["clt_center"] is None


# The sha256 of each JSON dump.  A pin changes only with a change to a
# catalog formula or to the JSON form, which is then a contract change.
CATALOG_JSON_SHA256 = "2e26db63fa0dd0d8783e206a227545c27c5573f69e2352cab19a279979c84e28"
GENERALIZED_JSON_SHA256 = "1efb4b51ddfb46e68ac24b991c006963e117495e67de9879faa7f773da26a898"


def _sha256_of_json(payload) -> str:
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


def test_catalog_json_is_pinned():
    assert _sha256_of_json(export_catalog_json()) == CATALOG_JSON_SHA256
    entries = [catalog_entry_json(moment_catalog(GeneralizedZagreb(k))) for k in (1, 2, 3, 6)]
    assert _sha256_of_json(entries) == GENERALIZED_JSON_SHA256


def test_catalog_json_for_generalized_entry():
    payload = catalog_entry_json(moment_catalog(GeneralizedZagreb(6)))
    assert payload["mean_coeffs"] is None
    assert payload["limit"]["exponent"] == 6
