"""The direct-vs-reduced suite: it reports planted faults with the right
witness, and a trial's tree depends only on the seed and the trial."""

from dataclasses import replace

import pytest

from spiderlab import verify
from spiderlab.indices import LEAVES, PLATT, ZAGREB, ReducedForm, eval_direct
from spiderlab.tree import RngStream, UniformLeaf, degree_multiset, grow
from spiderlab.verify import direct_reduced_suite

SEED = 4242


# Evaluated directly as Zagreb and Platt; their reduced forms' constants are off by one.
ZAGREB_PLUS_ONE = replace(ZAGREB, name="zagreb_plus_one",
                          reduced_form=ReducedForm(((1,), (-3,), (4, 1))))    # L^2 - 3L + 4m + 1
PLATT_MINUS_ONE = replace(PLATT, name="platt_minus_one",
                          reduced_form=ReducedForm(((1,), (-3,), (2, -1))))   # L^2 - 3L + 2m - 1


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
        degrees = degree_multiset(tree)
        zagreb, platt = eval_direct(degrees, n, ZAGREB), eval_direct(degrees, n, PLATT)
        expected.append(("zagreb_plus_one", witness,
                         f"direct={float(zagreb)!r} reduced={float(zagreb + 1)!r}"))
        expected.append(("platt_minus_one", witness,
                         f"direct={float(platt)!r} reduced={float(platt - 1)!r}"))
    assert [(f.index, f.witness, f.detail) for f in failures] == expected
    assert {f.suite for f in failures} == {"direct-reduced"}


def test_trial_trees_do_not_depend_on_trial_count(planted):
    # Neither count is a multiple of 64: the last block is partial in both.
    short = direct_reduced_suite(100, 300, SEED)
    long = direct_reduced_suite(300, 300, SEED)
    assert len(short) == 200 and len(long) == 600
    assert [f.witness for f in short] == [f.witness for f in long[:200]]
    assert len({(f.witness["n"], f.witness["L"]) for f in long}) > 250
