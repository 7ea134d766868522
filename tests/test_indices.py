import math
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import spiderlab
import spiderlab.indices as indices
from spiderlab import (
    FORGOTTEN,
    GINI,
    GORDON_SCANTLEBURY,
    HOOVER,
    LEAVES,
    NAMED_INDICES,
    PLATT,
    ZAGREB,
    Affine,
    GeneralizedZagreb,
    Generic,
    Identity,
    RngStream,
    Table,
    UniformLeaf,
    UnknownIndexError,
    eval_direct,
    eval_reduced,
    grow,
    index_name,
    new_seed,
    parse_index,
    reduced_row,
    reduced_values,
    spider_degrees,
)
from spiderlab.indices import MAX_ABS_ALPHA
from spiderlab.verify import _trial_specs

SEED = new_seed()


def direct_on(state, spec):
    """``eval_direct`` on a tree's degree multiset."""
    return eval_direct(spider_degrees(state.time, state.leaf_count), state.time, spec)


def test_seed_values_from_definitions():
    # seed degrees are {3, 1, 1, 1}; sums worked out term by term
    assert direct_on(SEED, ZAGREB) == 3**2 + 3 * 1**2 == 12
    assert direct_on(SEED, FORGOTTEN) == 3**3 + 3 * 1**3 == 30
    # three unordered (centroid, leaf) pairs each differing by 2
    assert direct_on(SEED, GINI) == Fraction(3 * 2, 2 * 3 * 4) == Fraction(1, 4)
    # |4*3 - 6| + 3*|4*1 - 6| over 4*(n+2)*(n+3) = 12/48
    assert direct_on(SEED, HOOVER) == Fraction(6 + 3 * 2, 4 * 3 * 4) == Fraction(1, 4)
    # paths of length two through the centroid: C(3, 2)
    assert direct_on(SEED, GORDON_SCANTLEBURY) == 3
    assert direct_on(SEED, PLATT) == 6
    assert direct_on(SEED, LEAVES) == 3


def test_reduced_contract_examples():
    assert eval_reduced(1, 3, ZAGREB) == 12
    # degrees {5,1,1,1,1,1,2}: 25 + 5 + 4
    assert eval_reduced(4, 5, ZAGREB) == 34
    assert eval_reduced(1, 3, FORGOTTEN) == 30
    assert eval_reduced(1, 3, GINI) == Fraction(1, 4)
    assert eval_reduced(1, 3, HOOVER) == Fraction(1, 4)


def test_reduced_rejects_out_of_range_leaf_counts():
    with pytest.raises(ValueError):
        eval_reduced(1, 4, ZAGREB)
    with pytest.raises(ValueError):
        eval_reduced(5, 2, ZAGREB)
    with pytest.raises(ValueError):
        eval_reduced(0, 3, ZAGREB)


@given(st.integers(1, 300), st.floats(0.05, 0.95), st.integers(0, 10**6))
def test_direct_equals_reduced_on_grown_trees(n, p, seed):
    state = grow(UniformLeaf(p), n, RngStream(seed))
    for spec in NAMED_INDICES + (GeneralizedZagreb(4), GeneralizedZagreb(2.5)):
        direct = float(direct_on(state, spec))
        reduced = float(eval_reduced(n, state.leaf_count, spec))
        assert abs(direct - reduced) <= 1e-12 * max(1.0, abs(reduced))


@given(st.integers(1, 200), st.floats(0.05, 0.95), st.integers(0, 10**6), st.data())
def test_reduced_table_equals_direct_for_real_exponents(n, p, seed, data):
    state = grow(UniformLeaf(p), n, RngStream(seed))
    L = state.leaf_count
    alpha = data.draw(st.floats(-3, 5).filter(lambda a: not a.is_integer()), label="alpha")
    affine = Affine(data.draw(st.floats(0.1, 3), label="a"), data.draw(st.floats(0, 2), label="b"))
    values = data.draw(st.lists(st.floats(0.5, 2), min_size=n + 2, max_size=n + 2), label="table")
    table = Table.from_mapping(dict(enumerate(values, start=1)))
    for spec in (GeneralizedZagreb(alpha), Generic(affine, alpha), Generic(table, alpha)):
        direct = float(direct_on(state, spec))
        assert eval_reduced(n, L, spec) == pytest.approx(direct, rel=1e-12, abs=0)
        assert reduced_values(spec, n, [L])[0] == pytest.approx(direct, rel=1e-12, abs=0)


@given(st.integers(1, 200), st.integers(0, 10**6))
def test_direct_equals_reduced_exactly_in_rational_mode(n, seed):
    state = grow(UniformLeaf(0.5), n, RngStream(seed))
    for spec in NAMED_INDICES + (GeneralizedZagreb(2), GeneralizedZagreb(3)):
        assert direct_on(state, spec) == eval_reduced(n, state.leaf_count, spec)


@given(st.integers(1, 200), st.integers(0, 10**6))
def test_linear_relations_between_indices(n, seed):
    state = grow(UniformLeaf(0.3), n, RngStream(seed))
    L = state.leaf_count
    zagreb = eval_reduced(n, L, ZAGREB)
    gs = eval_reduced(n, L, GORDON_SCANTLEBURY)
    platt = eval_reduced(n, L, PLATT)
    edges = n + 2
    assert zagreb == 2 * (gs + edges)
    assert platt == 2 * gs


@given(st.integers(1, 200), st.integers(0, 10**6))
def test_generalized_zagreb_special_cases(n, seed):
    state = grow(UniformLeaf(0.7), n, RngStream(seed))
    assert direct_on(state, GeneralizedZagreb(2)) == direct_on(state, ZAGREB)
    assert direct_on(state, GeneralizedZagreb(3)) == direct_on(state, FORGOTTEN)


@given(st.integers(1, 400), st.integers(0, 10**6))
def test_gini_hoover_in_unit_interval(n, seed):
    state = grow(UniformLeaf(0.6), n, RngStream(seed))
    for spec in (GINI, HOOVER):
        value = direct_on(state, spec)
        assert 0 <= value < 1


def test_power_family_values_positive():
    state = grow(UniformLeaf(0.5), 50, RngStream(3))
    for spec in (ZAGREB, FORGOTTEN, GeneralizedZagreb(0.5), GeneralizedZagreb(-1),
                 Generic(Affine(1, 1), 2)):
        assert float(direct_on(state, spec)) > 0


def test_generalized_zagreb_rejects_zero_alpha():
    with pytest.raises(UnknownIndexError):
        GeneralizedZagreb(0)


@pytest.mark.parametrize("alpha", [float("nan"), float("inf"), float("-inf")])
def test_power_sums_reject_a_non_finite_alpha(alpha):
    with pytest.raises(UnknownIndexError, match="finite"):
        GeneralizedZagreb(alpha)
    with pytest.raises(UnknownIndexError, match="finite"):
        Generic(Identity(), alpha)


def test_power_sums_bound_the_exponent():
    # 2**alpha, a degree-2 node's weight, is a normal float64 for |alpha| <= 1022
    for alpha in (MAX_ABS_ALPHA, -MAX_ABS_ALPHA, -700):
        assert GeneralizedZagreb(alpha).alpha == Generic(Identity(), alpha).alpha == alpha
    for alpha in (MAX_ABS_ALPHA + 1, -1022.5, 5000, 10**400):
        with pytest.raises(UnknownIndexError, match=f"<= {MAX_ABS_ALPHA}, got"):
            GeneralizedZagreb(alpha)
        with pytest.raises(UnknownIndexError, match=f"<= {MAX_ABS_ALPHA}, got"):
            Generic(Identity(), alpha)


def test_an_exponent_too_long_to_print_is_a_config_error():
    # past 4300 digits Python will not turn an int into a decimal string
    for alpha in (10**5000, -(10**5000)):
        with pytest.raises(UnknownIndexError, match="got an integer of 16610 bits$"):
            GeneralizedZagreb(alpha)
        with pytest.raises(UnknownIndexError, match="got an integer of 16610 bits$"):
            Generic(Identity(), alpha)


def test_only_a_degree_function_other_than_the_identity_is_checked_per_call(monkeypatch):
    checked = []
    real = indices.check_positive
    monkeypatch.setattr(indices, "check_positive", lambda h, d: checked.append(h) or real(h, d))
    degrees = spider_degrees(30, 9)
    for spec in (GeneralizedZagreb(2), GeneralizedZagreb(2.5), Generic(Identity(), 3)):
        assert eval_direct(degrees, 30, spec) == sum(c * d ** spec.alpha for d, c in degrees.items())
    assert checked == []
    eval_direct(degrees, 30, Generic(Affine(1, 1), 2))
    assert checked == [Affine(1, 1)]


@pytest.mark.parametrize("n", [1, 2, 7, 60])
def test_direct_on_every_spider_multiset_equals_reduced(n):
    for L in range(3, n + 3):
        degrees = spider_degrees(n, L)
        for spec in NAMED_INDICES + (GeneralizedZagreb(2), GeneralizedZagreb(3)):
            assert eval_direct(degrees, n, spec) == eval_reduced(n, L, spec)


def test_a_non_spec_has_no_evaluation():
    class NotASpec:
        name = "not_a_spec"

    for index in (NotASpec(), "zagreb", None):
        with pytest.raises(UnknownIndexError, match="cannot evaluate"):
            direct_on(SEED, index)
        with pytest.raises(UnknownIndexError, match="cannot evaluate"):
            eval_reduced(1, 3, index)


DISPATCH_SPECS = NAMED_INDICES + (GeneralizedZagreb(2.5), Generic(Affine(2, 1), 2))


def test_specs_survive_a_pickle_round_trip():
    # a forked run inherits its specs, but a spec still pickles whole
    n = 80
    state = grow(UniformLeaf(0.4), n, RngStream(5))
    L = np.arange(3, n + 3)
    for spec in DISPATCH_SPECS:
        copy = pickle.loads(pickle.dumps(spec))
        assert copy == spec and hash(copy) == hash(spec)
        assert direct_on(state, copy) == direct_on(state, spec)
        assert eval_reduced(n, state.leaf_count, copy) == eval_reduced(n, state.leaf_count, spec)
        assert reduced_values(copy, n, L).tobytes() == reduced_values(spec, n, L).tobytes()


def test_spec_reprs_are_the_same_in_another_interpreter():
    # no repr carries a function's address
    code = ("from spiderlab import *; print('\\n'.join(map(repr, NAMED_INDICES + "
            "(GeneralizedZagreb(2.5), Generic(Affine(2, 1), 2)))))")
    env = dict(os.environ, PYTHONPATH=str(Path(spiderlab.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.splitlines() == [repr(spec) for spec in DISPATCH_SPECS]


def test_generic_rejects_nonpositive_h():
    bad = Generic(Affine(1, -2), 2)  # h(1) = -1
    with pytest.raises(UnknownIndexError):
        direct_on(SEED, bad)
    with pytest.raises(UnknownIndexError):
        eval_reduced(5, 4, bad)


def test_a_reduced_row_rejects_what_eval_reduced_rejects():
    # h is positive on degrees 1 and 2, so only the centroid's degree 4 fails.
    spec = Generic(Table.from_mapping({1: 1.0, 2: 1.0, 3: 2.0, 4: -1.0}), 2)
    assert reduced_row(spec, 1) == ([7], 1)  # h(3)**2 + h(1)**2 * 3, no degree-2 node
    for call in (lambda: eval_reduced(2, 4, spec), lambda: reduced_row(spec, 2)):
        with pytest.raises(UnknownIndexError, match="must be positive on occurring degrees"):
            call()
    with pytest.raises(ValueError, match="time must be >= 1"):
        reduced_row(ZAGREB, 0)
    with pytest.raises(UnknownIndexError, match="cannot evaluate"):
        reduced_row("zagreb", 1)


def test_generic_identity_matches_generalized_zagreb():
    state = grow(UniformLeaf(0.4), 60, RngStream(12))
    via_generic = direct_on(state, Generic(Identity(), 2))
    assert via_generic == direct_on(state, ZAGREB)


def test_generic_table_h():
    table = Table.from_mapping({1: 2.0, 2: 1.0, 3: 5.0})
    value = direct_on(SEED, Generic(table, 1))
    assert value == 5.0 + 3 * 2.0
    with pytest.raises(UnknownIndexError):
        direct_on(grow(UniformLeaf(0.5), 10, RngStream(0)), Generic(table, 1))


def test_table_looks_degrees_up_by_value():
    table = Table.from_mapping({3: 5.0, 1: 2.0, 2: 1.0})
    same = Table(((1, 2.0), (2, 1.0), (3, 5.0)))
    assert table == same and hash(table) == hash(same)
    assert table(3) == 5.0 and table(1) == 2.0
    assert table(np.array([3.0, 1.0, 3.0, 2.0])).tolist() == [5.0, 2.0, 5.0, 1.0]
    with pytest.raises(UnknownIndexError, match="degree 4"):
        table(4)
    with pytest.raises(UnknownIndexError, match="degree 4"):
        table(np.array([3.0, 4.0]))


@pytest.mark.parametrize("ratio", [1e-6, 1.0, 10.0, 1e3, 1e6])
@pytest.mark.parametrize("alpha", [1, 2, -1])
def test_power_sum_does_not_cancel(alpha, ratio):
    # w2 / w1 = ratio; the float result must stay within 5 * 2**-53 of the
    # exact sum of the float table's powers, at any ratio.
    rng = np.random.default_rng(2024)
    h1 = float(rng.uniform(0.5, 2))
    h2 = h1 * ratio ** (1 / alpha)
    for n in (1, 40, 3000):
        values = {1: h1, 2: h2}
        values.update({d: float(rng.uniform(0.5, 2)) for d in range(3, n + 3)})
        spec = Generic(Table.from_mapping(values), alpha)
        leaf_counts = np.arange(3, n + 3)
        got = reduced_values(spec, n, leaf_counts)
        for L in leaf_counts[:: max(1, n // 50)].tolist():
            exact = (Fraction(values[L]) ** alpha + Fraction(h1) ** alpha * L
                     + Fraction(h2) ** alpha * (n + 2 - L))
            for value in (got[L - 3], eval_reduced(n, L, spec)):
                assert abs(Fraction(value) - exact) <= 5 * Fraction(1, 2**53) * exact, (n, L)


def test_reduced_values_vectorised_matches_scalar():
    n = 37
    L = np.arange(3, n + 3)
    for spec in NAMED_INDICES + (GeneralizedZagreb(3), GeneralizedZagreb(1.5),
                                 Generic(Affine(2, 1), 2)):
        vec = reduced_values(spec, n, L)
        scalar = np.array([float(eval_reduced(n, int(k), spec)) for k in L])
        assert np.allclose(vec, scalar, rtol=1e-13, atol=0)


def test_reduced_values_array_n_matches_scalar_n_bit_for_bit():
    rng = np.random.default_rng(77)
    ns = np.concatenate([[1, 1, 2, 500, 5000], rng.integers(1, 5000, size=300)])
    Ls = np.array([3 + int(rng.integers(0, n)) for n in ns.tolist()])
    Ls[:5] = [3, 3, 4, 502, 5002]
    for spec in _trial_specs():
        vec = reduced_values(spec, ns, Ls)
        per = np.concatenate([reduced_values(spec, int(n), [L]) for n, L in zip(ns, Ls)])
        assert vec.tobytes() == per.tobytes(), index_name(spec)


# Exact weights a float64 holds: the ints 2**400 and 6**200 (past int64) and,
# for a negative integer exponent, Fractions.
@pytest.mark.parametrize("spec", [GeneralizedZagreb(400), Generic(Affine(3, 0), 200),
                                  GeneralizedZagreb(-2), Generic(Affine(3, 0), -3)],
                         ids=index_name)
def test_reduced_values_of_exact_weights_are_float64_at_a_scalar_or_an_array_time(spec):
    n, Ls = 10, np.arange(3, 13)
    with np.errstate(over="ignore"):  # h(L)**alpha is inf at the largest L for alpha >= 200
        per = reduced_values(spec, n, Ls)
        vec = reduced_values(spec, np.full(Ls.shape, n), Ls)
    assert per.dtype == vec.dtype == np.float64
    assert vec.tobytes() == per.tobytes()
    for L, value in zip(Ls.tolist(), per.tolist()):
        if math.isfinite(value):
            exact = Fraction(eval_reduced(n, L, spec))
            assert abs(Fraction(value) - exact) <= 5 * Fraction(1, 2**53) * exact, L


def test_reduced_values_raise_overflow_for_an_int_weight_past_float64():
    # w1 = 3**600 is finite in float64, w2 = 6**600 is not: montecarlo's
    # _overflows turns the OverflowError into a config error.
    for n in (10, np.full(10, 10)):
        with pytest.raises(OverflowError), np.errstate(over="ignore"):
            reduced_values(Generic(Affine(3, 0), 600), n, np.arange(3, 13))



# Every reachable (n, L) with n <= 60, L = n + 2 (no degree-2 node) included.
GRID_N = np.repeat(np.arange(1, 61), np.arange(1, 61))
GRID_L = np.concatenate([np.arange(3, n + 3) for n in range(1, 61)])
# Integer terms: each direct value is exact until one rounding.
INTEGER_SPECS = NAMED_INDICES + (GeneralizedZagreb(2), GeneralizedZagreb(3), GeneralizedZagreb(4),
                                 Generic(Identity(), 5), Generic(Affine(2, 1), 2))
# Real powers or non-integer h: within eval_direct's stated bound on columns of the scalar path.
REAL_SPECS = (GeneralizedZagreb(2.5), GeneralizedZagreb(-1.5), GeneralizedZagreb(-2),
              Generic(Affine(0.5, 0.25), 3), Generic(Affine(0.3, 1.1), 1.7),
              Generic(Table.from_mapping({d: 1 + 0.37 * d ** 0.5 for d in range(1, 63)}), 2.5))


def _on_columns(spec, n, Ls):
    """``eval_direct`` in float64 on the degree columns of the trees with
    leaf counts ``Ls`` at time ``n`` (one time, or one per leaf count)."""
    return eval_direct(spider_degrees(n, Ls), n, spec)


def _by_definition(spec, ns, Ls):
    """``float(eval_direct(...))`` on each (n, L)'s spider multiset."""
    return np.array([float(eval_direct(spider_degrees(n, L), n, spec))
                     for n, L in zip(ns.tolist(), Ls.tolist())])


@pytest.mark.parametrize("spec", INTEGER_SPECS, ids=index_name)
def test_direct_values_equal_the_exact_definition_bit_for_bit(spec):
    expected = _by_definition(spec, GRID_N, GRID_L)
    assert _on_columns(spec, GRID_N, GRID_L).tobytes() == expected.tobytes()
    for n in (1, 2, 37, 60):  # a scalar time beside an array of leaf counts
        got = _on_columns(spec, n, np.arange(3, n + 3))
        assert got.tobytes() == expected[GRID_N == n].tobytes()


@pytest.mark.parametrize("spec", REAL_SPECS, ids=index_name)
def test_direct_values_of_a_real_power_sum_are_within_the_stated_bound(spec):
    expected = _by_definition(spec, GRID_N, GRID_L)
    got = _on_columns(spec, GRID_N, GRID_L)
    assert np.all(np.abs(got - expected) <= 10 * 2.0**-53 * expected)
    assert _on_columns(spec, 60, GRID_L[GRID_N == 60]).tobytes() == got[GRID_N == 60].tobytes()


def test_direct_values_reject_a_nonpositive_h_as_the_scalar_path_does():
    n, Ls = 5, np.arange(3, 8)
    # h(1) = -1 on every tree; h(L) = 6 - L on the trees with L >= 6
    for spec, first_bad in ((Generic(Affine(1, -2), 2), r"h\(1\.0\) = -1\.0$"),
                            (Generic(Affine(-1, 6), 2), r"h\(6\) = 0\.0$")):
        with pytest.raises(UnknownIndexError, match=first_bad):
            _on_columns(spec, n, Ls)
        with pytest.raises(UnknownIndexError):
            eval_direct(spider_degrees(n, 6), n, spec)
    spec = Generic(Affine(-1, 6), 2)
    assert _on_columns(spec, n, Ls[:3]).tolist() == [
        float(eval_direct(spider_degrees(n, L), n, spec)) for L in (3, 4, 5)]


def test_parse_index_round_trip():
    for spec in NAMED_INDICES:
        assert parse_index(index_name(spec)) == spec
    assert parse_index("generalized_zagreb:3") == GeneralizedZagreb(3)
    assert parse_index("generalized_zagreb:2.5") == GeneralizedZagreb(2.5)
    assert parse_index("ZAGREB") == ZAGREB


def test_an_integral_float_exponent_is_the_int_exponent():
    n = 40
    L = np.arange(3, n + 3)
    int_spec = GeneralizedZagreb(2)
    for spec in (GeneralizedZagreb(2.0), parse_index("generalized_zagreb:2.0"),
                 pickle.loads(pickle.dumps(GeneralizedZagreb(2.0)))):
        assert type(spec.alpha) is int
        assert spec == int_spec and hash(spec) == hash(int_spec)
        assert spec.name == int_spec.name == "generalized_zagreb:2"
        assert reduced_values(spec, n, L).tobytes() == reduced_values(int_spec, n, L).tobytes()
        for leaves in (3, 17, n + 2):
            value = eval_reduced(n, leaves, spec)
            assert type(value) is int and value == eval_reduced(n, leaves, int_spec)
        assert spiderlab.moment_catalog(spec).key == "generalized_zagreb:2"
    assert Generic(Affine(2, 1), 3.0).name == Generic(Affine(2, 1), 3).name == "generic:affine:2:1:3"


def test_parse_index_unknown():
    with pytest.raises(UnknownIndexError):
        parse_index("wiener")
    with pytest.raises(UnknownIndexError):
        parse_index("generalized_zagreb:x")
