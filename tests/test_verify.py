"""The direct-vs-reduced suites: each reports planted faults with the right
witness; the exhaustive suite reaches every reachable (n, L) whatever its
block size, and a sampled trial's tree depends only on the seed and the
trial.  The catalog suite evaluates each oracle row once per (n, index),
in one exact pass that equals the scalar closed form value for value, and
sums it once under every p's packed weights, each lane that p's sums."""

from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from spiderlab import verify
from spiderlab.analytics import LeafLaw, scaled_moments, support_weights
from spiderlab.indices import (
    LEAVES,
    PLATT,
    ZAGREB,
    ReducedForm,
    eval_direct,
    eval_reduced,
    reduced_row,
)
from spiderlab.tree import RngStream, UniformLeaf, grow, spider_degrees
from spiderlab.verify import (
    FULL_N_VALUES,
    FULL_P_VALUES,
    catalog_oracle_suite,
    direct_reduced_suite,
    reachable_pairs_suite,
)

SEED = 4242


# Evaluated directly as Zagreb and Platt; their reduced forms' constants are off by one.
ZAGREB_PLUS_ONE = replace(ZAGREB, name="zagreb_plus_one",
                          reduced_form=ReducedForm(((1,), (-3,), (4, 1))))    # L^2 - 3L + 4m + 1
PLATT_MINUS_ONE = replace(PLATT, name="platt_minus_one",
                          reduced_form=ReducedForm(((1,), (-3,), (2, -1))))   # L^2 - 3L + 2m - 1


def _zagreb_plus_one(degrees, n):
    """Zagreb's definition, off by one."""
    return sum(c * d * d for d, c in degrees.items()) + 1


# Reduced as Zagreb; its definition is off by one.
ZAGREB_DIRECT_PLUS_ONE = replace(ZAGREB, name="zagreb_direct_plus_one", direct=_zagreb_plus_one)


def _zagreb_plus_one_on_all_legs(degrees, n):
    """Zagreb's definition, off by one only on the all-legs tree, L = n + 2,
    the one tree at each time with no degree-2 node."""
    leaves = sum(c * (d == 1) for d, c in degrees.items())
    return sum(c * d * d for d, c in degrees.items()) + (leaves == n + 2)


# Reduced as Zagreb; its definition is off by one where the degree-2 count is 0.
ZAGREB_ALL_LEGS_PLUS_ONE = replace(ZAGREB, name="zagreb_all_legs_plus_one",
                                   direct=_zagreb_plus_one_on_all_legs)


def _trees(trials, max_n, seed):
    """(n, tree, p) of each trial, read off the documented stream layout:
    (n, p) from stream 0, two uniforms per trial, and trial t's growth
    uniforms from stream 1 + t // 64, in trial order, as ``grow`` draws them."""
    meta = RngStream(seed, 0).doubles(2 * trials)
    out, stream = [], None
    for t in range(trials):
        if t % 64 == 0:
            stream = RngStream(seed, 1 + t // 64)
        n = 1 + int(meta[2 * t] * max_n)
        p = 0.05 + 0.9 * float(meta[2 * t + 1])
        out.append((n, grow(UniformLeaf(p), n, stream), p))
    return out


def _count_calls(monkeypatch, *names):
    """Rebind each of ``verify``'s ``names`` to a wrapper that counts its
    calls, as ``bench/run.py --trace 1`` does; returns the live counts."""
    calls = dict.fromkeys(names, 0)

    def counting(name):
        inner = getattr(verify, name)

        def wrapper(*args):
            calls[name] += 1
            return inner(*args)
        return wrapper

    for name in names:
        monkeypatch.setattr(verify, name, counting(name))
    return calls


@pytest.fixture
def planted(monkeypatch):
    monkeypatch.setattr(verify, "_trial_specs",
                        lambda: (LEAVES, ZAGREB_PLUS_ONE, ZAGREB, PLATT_MINUS_ONE))


def test_planted_faults_reported_with_witnesses_in_trial_spec_order(planted):
    trials, max_n = 150, 90
    failures = direct_reduced_suite(trials, max_n, SEED)
    expected = []
    for n, tree, p in _trees(trials, max_n, SEED):
        witness = {"n": n, "L": tree.leaf_count, "p": round(p, 6)}
        degrees = spider_degrees(tree.time, tree.leaf_count)
        zagreb, platt = eval_direct(degrees, n, ZAGREB), eval_direct(degrees, n, PLATT)
        expected.append(("zagreb_plus_one", witness,
                         f"direct={float(zagreb)!r} reduced={float(zagreb + 1)!r}"))
        expected.append(("platt_minus_one", witness,
                         f"direct={float(platt)!r} reduced={float(platt - 1)!r}"))
    assert [(f.index, f.witness, f.detail) for f in failures] == expected
    assert {f.suite for f in failures} == {"direct-reduced"}


def test_a_planted_fault_in_a_definition_is_reported_like_one_in_a_reduced_form(monkeypatch):
    monkeypatch.setattr(verify, "_trial_specs",
                        lambda: (LEAVES, ZAGREB_DIRECT_PLUS_ONE, ZAGREB, PLATT_MINUS_ONE))
    trials, max_n = 150, 90
    failures = direct_reduced_suite(trials, max_n, SEED)
    expected = []
    for n, tree, p in _trees(trials, max_n, SEED):
        witness = {"n": n, "L": tree.leaf_count, "p": round(p, 6)}
        degrees = spider_degrees(tree.time, tree.leaf_count)
        zagreb, platt = eval_direct(degrees, n, ZAGREB), eval_direct(degrees, n, PLATT)
        expected.append(("zagreb_direct_plus_one", witness,
                         f"direct={float(zagreb + 1)!r} reduced={float(zagreb)!r}"))
        expected.append(("platt_minus_one", witness,
                         f"direct={float(platt)!r} reduced={float(platt - 1)!r}"))
    assert [(f.index, f.witness, f.detail) for f in failures] == expected


def test_trial_trees_do_not_depend_on_trial_count(planted):
    # Neither count is a multiple of 64: the last block is partial in both.
    short = direct_reduced_suite(100, 300, SEED)
    long = direct_reduced_suite(300, 300, SEED)
    assert len(short) == 200 and len(long) == 600
    assert [f.witness for f in short] == [f.witness for f in long[:200]]
    assert len({(f.witness["n"], f.witness["L"]) for f in long}) > 250


def test_each_block_builds_its_columns_once_and_calls_eval_direct_through_verify(monkeypatch):
    # bench/run.py --trace 1 counts the direct pass by rebinding verify's
    # names, so the suite must reach both through them.
    specs = verify._trial_specs()[:10] + (ZAGREB_PLUS_ONE, ZAGREB_DIRECT_PLUS_ONE)
    monkeypatch.setattr(verify, "_trial_specs", lambda: specs)
    unwrapped = direct_reduced_suite(130, 60, SEED)  # blocks of 64, 64 and 2 trees
    calls = _count_calls(monkeypatch, "eval_direct", "spider_degrees")
    failures = direct_reduced_suite(130, 60, SEED)
    assert calls == {"eval_direct": 3 * 12, "spider_degrees": 3}
    assert [str(f) for f in failures] == [str(f) for f in unwrapped]
    assert {f.index for f in failures} == {"zagreb_plus_one", "zagreb_direct_plus_one"}


def _pairs(max_n):
    """Every reachable (n, L) with n <= max_n, in (n, L) order."""
    return [(n, L) for n in range(1, max_n + 1) for L in range(3, n + 3)]


def test_reachable_pairs_report_planted_faults_at_every_pair_in_n_L_spec_order(planted):
    max_n = 45  # 1035 pairs, one block
    expected = []
    for n, L in _pairs(max_n):
        degrees = spider_degrees(n, L)
        zagreb, platt = eval_direct(degrees, n, ZAGREB), eval_direct(degrees, n, PLATT)
        expected.append(("zagreb_plus_one", {"n": n, "L": L},
                         f"direct={float(zagreb)!r} reduced={float(zagreb + 1)!r}"))
        expected.append(("platt_minus_one", {"n": n, "L": L},
                         f"direct={float(platt)!r} reduced={float(platt - 1)!r}"))
    failures = reachable_pairs_suite(max_n)
    assert [(f.index, f.witness, f.detail) for f in failures] == expected
    assert {f.suite for f in failures} == {"direct-reduced"}


def test_reachable_pairs_report_a_planted_definition_fault_at_every_pair(monkeypatch):
    monkeypatch.setattr(verify, "_trial_specs",
                        lambda: (LEAVES, ZAGREB_DIRECT_PLUS_ONE, ZAGREB))
    max_n = 130  # 8515 pairs: horizons 1-127 (8128 pairs), then 128-130
    expected = []
    for n, L in _pairs(max_n):
        zagreb = eval_direct(spider_degrees(n, L), n, ZAGREB)
        expected.append(("zagreb_direct_plus_one", {"n": n, "L": L},
                         f"direct={float(zagreb + 1)!r} reduced={float(zagreb)!r}"))
    assert [(f.index, f.witness, f.detail) for f in reachable_pairs_suite(max_n)] == expected


def test_reachable_pairs_reach_the_all_legs_tree_at_every_horizon(monkeypatch):
    # A tree grown at n = 500 has L = 502 with probability p**499, at most
    # 0.95**499 < 1e-11 over the sampled suite's p range: only enumeration
    # reaches that pair at large n.
    monkeypatch.setattr(verify, "_trial_specs", lambda: (ZAGREB, ZAGREB_ALL_LEGS_PLUS_ONE))
    max_n = 500
    failures = reachable_pairs_suite(max_n)
    assert [f.witness for f in failures] == [{"n": n, "L": n + 2} for n in range(1, max_n + 1)]
    assert {f.index for f in failures} == {"zagreb_all_legs_plus_one"}


@pytest.mark.parametrize("block", [1, 7, 10**6])
def test_reachable_pairs_do_not_depend_on_the_block_size(planted, monkeypatch, block):
    max_n = 80
    default = reachable_pairs_suite(max_n)
    monkeypatch.setattr(verify, "PAIR_BLOCK", block)
    assert [str(f) for f in reachable_pairs_suite(max_n)] == [str(f) for f in default]
    assert len(default) == 2 * len(_pairs(max_n))


@pytest.mark.parametrize("block, blocks", [(1, 30), (10**6, 1), (100, 6)])
def test_each_pair_block_builds_its_columns_once_and_calls_through_verify(
        monkeypatch, block, blocks):
    # bench/run.py --trace 1 counts the direct pass by rebinding verify's
    # names, so the suite must reach all three through them.  With max_n = 30,
    # blocks of at most 100 pairs hold horizons 1-13, 14-19, 20-23, 24-26,
    # 27-29 and 30; a block of 1 pair holds one horizon, a block of 10**6 all.
    specs = verify._trial_specs()[:10] + (ZAGREB_PLUS_ONE, ZAGREB_DIRECT_PLUS_ONE)
    monkeypatch.setattr(verify, "_trial_specs", lambda: specs)
    monkeypatch.setattr(verify, "PAIR_BLOCK", block)
    unwrapped = reachable_pairs_suite(30)
    calls = _count_calls(monkeypatch, "eval_direct", "reduced_values", "spider_degrees")
    failures = reachable_pairs_suite(30)
    assert calls == {"eval_direct": 12 * blocks, "reduced_values": 12 * blocks,
                     "spider_degrees": blocks}
    assert [str(f) for f in failures] == [str(f) for f in unwrapped]
    assert {f.index for f in failures} == {"zagreb_plus_one", "zagreb_direct_plus_one"}


def test_a_full_grid_catalog_suite_evaluates_each_n_index_L_once(monkeypatch):
    # The oracle rows do not depend on p: one reduced_row call per (n, index),
    # which evaluates each L of the support once, 7 * 50 = 350 calls, none per
    # p and no scalar eval_reduced call, all through verify's names.  The
    # weights are made once per (n, p), 9 * 50 = 450 calls, and packed.
    calls = _count_calls(monkeypatch, "reduced_row", "eval_reduced", "support_weights")
    assert catalog_oracle_suite() == []
    assert calls == {"reduced_row": 7 * len(FULL_N_VALUES), "eval_reduced": 0,
                     "support_weights": len(FULL_P_VALUES) * len(FULL_N_VALUES)}
    assert (calls["reduced_row"], calls["support_weights"]) == (350, 450)


def test_an_empty_p_grid_checks_nothing():
    assert catalog_oracle_suite((), FULL_N_VALUES) == []


P_EDGES = (Fraction(1, 1000), Fraction(999, 1000), Fraction(2, 7), Fraction(1, 2))


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_packed_lanes_hold_every_p_s_moments(data):
    # Each lane of the packed sums is that p's S1 and S2, as scaled_moments
    # takes them one p at a time, for rows with zeros and negative entries
    # (an all-zero row and a negated row always among them), an equal row
    # shared, not summed again.  A constant row of the largest magnitude,
    # either sign, brings a lane's sum nearest the lane's bound.
    n = data.draw(st.integers(1, 300), label="n")
    drawn = st.fractions(0, 1, max_denominator=10**4).filter(lambda p: 0 < p < 1)
    p_values = data.draw(st.lists(st.sampled_from(P_EDGES) | drawn, min_size=1, max_size=9),
                         label="p")
    entries = st.integers(-2**70, 2**70) | st.integers(-3, 3)
    rows = data.draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=1, max_size=3),
                     label="rows")
    rows += [[0] * n, [-x for x in rows[0]], [2**71 - 1] * n, [1 - 2**71] * n, list(rows[0])]
    weights, totals = zip(*(support_weights(LeafLaw(n, p)) for p in p_values))
    sums = verify._lane_sums(weights, totals, rows)
    assert len(sums) == len(rows) and sums[-1] is sums[0]
    for xs, (s1s, s2s) in zip(rows, sums):
        squares = [x * x for x in xs]
        for w, total, s1, s2 in zip(weights, totals, s1s, s2s):
            assert s1 == sum(a * x for a, x in zip(w, xs))
            assert (total, s1, total * s2 - s1 * s1) == scaled_moments(w, total, xs, squares, 1)


def test_a_reduced_row_equals_the_scalar_closed_form_value_for_value():
    # Every spec the suites check, exact and real exponents alike: ints over
    # one int denominator, equal to eval_reduced at each L of the support.
    for spec in verify._trial_specs():
        for n in range(1, 61):
            xs, d = reduced_row(spec, n)
            assert {type(x) for x in xs} | {type(d)} == {int}
            assert [Fraction(x, d) for x in xs] == [eval_reduced(n, L, spec)
                                                    for L in range(3, n + 3)], (spec.name, n)
