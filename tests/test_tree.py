import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from spiderlab import (
    InvalidProbabilityError,
    Preferential,
    RngStream,
    TreeState,
    UniformLeaf,
    block_leaf_counts,
    degree_multiset,
    grow,
    grow_legs,
    new_seed,
    spider_degrees,
    step,
)

import spiderlab.tree as tree
from spiderlab.tree import DRAW_PIECE, ONE_BIT, decision_threshold

from conftest import ScriptedStream, ScriptedWords, reference_block

FORCE_CENTROID = [0.0, 0.0]
FORCE_LEG0 = [0.999999, 0.0]


def test_seed_structure():
    seed = new_seed()
    assert seed.time == 1
    assert seed.legs == (1, 1, 1)
    assert seed.leaf_count == 3
    assert seed.node_count == 4
    assert seed.internal_count == 0


def test_seed_degree_multiset():
    assert degree_multiset(new_seed()) == {3: 1, 1: 3}


def test_degree_multiset_mixed_tree():
    state = TreeState(time=4, legs=(1, 1, 1, 1, 2))
    assert degree_multiset(state) == {5: 1, 1: 5, 2: 1}


@given(st.integers(1, 40), st.integers(0, 10**6))
def test_degree_multiset_handshake(n, seed):
    state = grow(UniformLeaf(0.4), n, RngStream(seed))
    counts = degree_multiset(state)
    assert sum(counts.values()) == n + 3
    assert sum(d * c for d, c in counts.items()) == 2 * (n + 2)


def test_step_centroid_selected():
    out = step(new_seed(), UniformLeaf(0.5), ScriptedStream(FORCE_CENTROID))
    assert out.time == 2
    assert out.legs == (1, 1, 1, 1)


def test_step_leg_zero_selected():
    out = step(new_seed(), UniformLeaf(0.5), ScriptedStream(FORCE_LEG0))
    assert out.time == 2
    assert out.legs == (2, 1, 1)


def test_step_picks_any_leg():
    # second uniform in [2/3, 1) extends the last leg
    out = step(new_seed(), UniformLeaf(0.5), ScriptedStream([0.9, 0.7]))
    assert out.legs == (1, 1, 2)


def test_tree_state_invariants_enforced():
    for wrap in (tuple, lambda legs: np.array(legs, dtype=np.int64)):
        with pytest.raises(ValueError, match="at least 3 legs, got 2"):
            TreeState(time=1, legs=wrap((1, 1)))  # fewer than 3 legs
        with pytest.raises(ValueError, match="sum to 3, expected time"):
            TreeState(time=2, legs=wrap((1, 1, 1)))  # sum != time + 2
        with pytest.raises(ValueError, match="sum to 6, expected time"):
            TreeState(time=5, legs=wrap((2, 2, 1, 1)))  # a leg too short for the time
        with pytest.raises(ValueError, match="must be positive"):
            TreeState(time=3, legs=wrap((0, 2, 3)))  # empty leg
        with pytest.raises(ValueError, match="must be positive"):
            TreeState(time=3, legs=wrap((-1, 3, 3)))  # negative leg


def test_spider_degrees_is_the_multiset_at_every_reachable_leaf_count():
    assert spider_degrees(1, 3) == degree_multiset(new_seed()) == {3: 1, 1: 3}
    assert spider_degrees(4, 6) == {6: 1, 1: 6}  # every leg of length one
    assert spider_degrees(4, 5) == {5: 1, 1: 5, 2: 1}
    for n, L in ((1, 2), (1, 4), (5, 8), (0, 3)):
        with pytest.raises(ValueError, match="outside the reachable range"):
            spider_degrees(n, L)


def construction_outcome(time, legs):
    """The legs a TreeState stores, or the text of the ValueError it raises."""
    try:
        return TreeState(time=time, legs=legs).legs
    except ValueError as exc:
        return f"ValueError: {exc}"


@given(st.integers(-2, 40), st.lists(st.integers(-3, 12), max_size=8))
def test_an_int64_leg_array_builds_the_tree_a_tuple_builds(time, legs):
    from_tuple = construction_outcome(time, tuple(legs))
    from_array = construction_outcome(time, np.array(legs, dtype=np.int64))
    assert from_array == from_tuple
    if not isinstance(from_array, str):
        assert all(type(x) is int for x in from_array)


def test_an_int64_leg_array_whose_sum_overflows_is_summed_exactly():
    big = 2**62
    legs = (big, big, big)  # sums to 3 * 2**62, past the int64 range
    assert construction_outcome(3 * big - 2, np.array(legs, dtype=np.int64)) == legs
    wrong = construction_outcome(3 * big - 1, np.array(legs, dtype=np.int64))
    assert wrong == construction_outcome(3 * big - 1, legs)
    assert wrong == f"ValueError: leg lengths sum to {3 * big}, expected time + 2 = {3 * big + 1}"


@given(st.integers(1, 2000), st.integers(0, 10**6), st.floats(0.01, 0.99))
def test_grow_legs_applies_the_floor_rule(n, seed, p):
    # picks[k] * leaves-before-k, floored, names the leg of every leaf step
    draws = RngStream(seed).doubles(2 * (n - 1)).reshape(n - 1, 2)
    centroid, picks = draws[:, 0] < p, draws[:, 1]
    before = 3 + np.cumsum(centroid) - centroid
    chosen = np.floor(picks[~centroid] * before[~centroid]).astype(np.int64)
    want = 1 + np.bincount(chosen, minlength=3 + int(centroid.sum()))
    got = grow_legs(centroid, picks)
    assert got.dtype == np.int64 and np.array_equal(got, want)


@given(st.integers(1, 300), st.integers(0, 10**6), st.floats(0.05, 0.95))
def test_counts_follow_the_legs_on_grown_trees(n, seed, p):
    model = UniformLeaf(p)
    draws = RngStream(seed).doubles(2 * (n - 1)).reshape(n - 1, 2)
    grown = TreeState(time=n, legs=grow_legs(draws[:, 0] < p, draws[:, 1]))
    stepped = new_seed()
    rng = RngStream(seed)
    for _ in range(min(n, 60) - 1):
        stepped = step(stepped, model, rng)
    for state in (grown, stepped):
        legs = state.legs
        assert all(type(x) is int for x in legs)
        assert state.internal_count == sum(legs) - len(legs)
        expected = {len(legs): 1, 1: len(legs)}
        if sum(legs) > len(legs):
            expected[2] = sum(legs) - len(legs)
        assert degree_multiset(state) == expected


def test_boundary_probabilities_rejected():
    with pytest.raises(InvalidProbabilityError):
        UniformLeaf(0.0)
    with pytest.raises(InvalidProbabilityError):
        UniformLeaf(1.0)
    with pytest.raises(InvalidProbabilityError):
        UniformLeaf(1.5)


def test_grow_rejects_zero_horizon():
    with pytest.raises(ValueError):
        grow(UniformLeaf(0.5), 0, RngStream(1))


def test_grow_zero_steps_is_seed():
    assert grow(UniformLeaf(0.5), 1, RngStream(123)) == new_seed()
    assert grow(Preferential(), 1, RngStream(99)) == new_seed()


@pytest.mark.parametrize("model", [UniformLeaf(0.3), UniformLeaf(0.8), Preferential()])
def test_grow_equals_repeated_steps(model):
    horizon = 87
    grown = grow(model, horizon, RngStream(2024, 3))
    state = new_seed()
    rng = RngStream(2024, 3)
    for _ in range(horizon - 1):
        state = step(state, model, rng)
    assert grown == state


def test_grow_bit_reproducible():
    a = grow(UniformLeaf(0.25), 400, RngStream(5, 17))
    b = grow(UniformLeaf(0.25), 400, RngStream(5, 17))
    assert a == b
    c = grow(UniformLeaf(0.25), 400, RngStream(5, 18))
    assert a != c  # distinct streams diverge


def test_preferential_matches_uniform_half_trees():
    for i in range(20):
        a = grow(Preferential(), 150, RngStream(77, i))
        b = grow(UniformLeaf(0.5), 150, RngStream(77, i))
        assert a == b


@given(st.lists(st.booleans(), min_size=0, max_size=60))
def test_invariants_along_any_path(path):
    # drive the process through every scripted decision sequence
    state = new_seed()
    model = UniformLeaf(0.5)
    leaves = state.leaf_count
    for go_centroid in path:
        state = step(state, model, ScriptedStream(FORCE_CENTROID if go_centroid else FORCE_LEG0))
        assert sum(state.legs) == state.time + 2
        assert state.leaf_count >= leaves  # never decreases
        assert state.leaf_count - leaves == (1 if go_centroid else 0)
        leaves = state.leaf_count
    assert state.time == 1 + len(path)


@pytest.mark.parametrize("model,expected", [
    (UniformLeaf(0.3), 0.3),
    (UniformLeaf(0.7), 0.7),
    (Preferential(), 0.5),
])
def test_centroid_selection_frequency(model, expected):
    replicates = 20_000
    hits = 0
    for i in range(replicates):
        out = step(new_seed(), model, RngStream(31337, i))
        hits += out.leaf_count == 4
    freq = hits / replicates
    assert abs(freq - expected) <= 4 * math.sqrt(expected * (1 - expected) / replicates)


def test_leaf_count_mean_matches_binomial():
    # mean leaf count at n=101, p=0.3 is 3 + 100*0.3 = 33
    replicates = 4000
    total = 0
    for i in range(replicates):
        total += grow(UniformLeaf(0.3), 101, RngStream(8, i)).leaf_count
    mean = total / replicates
    sigma = math.sqrt(100 * 0.3 * 0.7 / replicates)
    assert abs(mean - 33.0) <= 4 * sigma


def test_rng_stream_validation():
    with pytest.raises(ValueError):
        RngStream(-1)
    with pytest.raises(ValueError):
        RngStream(1, -2)


def test_rng_streams_independent_and_replayable():
    a = RngStream(10, 0).doubles(5)
    b = RngStream(10, 0).doubles(5)
    c = RngStream(10, 1).doubles(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


# -- leaf-count engine -------------------------------------------------------

models = st.one_of(
    st.floats(0.01, 0.99, exclude_min=True, exclude_max=True).map(UniformLeaf),
    st.just(Preferential()),
)


@given(models, st.integers(1, 5), st.integers(0, 600), st.integers(0, 2**63 - 1),
       st.integers(0, 10**9), st.data())
def test_leaf_count_equals_grown_leg_count(model, rows, steps, master_seed, stream_index, data):
    audit_row = data.draw(st.integers(0, rows - 1))
    stream = RngStream(master_seed, stream_index)
    (counts,), (centroid,) = block_leaf_counts(model, [stream], rows, steps, [audit_row])
    want_counts, want_centroid = reference_block(RngStream(master_seed, stream_index), rows,
                                                 steps, model.centroid_probability)
    assert counts.tolist() == want_counts.tolist()
    assert np.array_equal(centroid, want_centroid[audit_row])
    legs = grow_legs(centroid, stream.doubles(steps))
    assert len(legs) == counts[audit_row]
    assert legs.sum() == steps + 3


def test_leaf_count_at_seed_is_three_and_draws_nothing():
    model = UniformLeaf(0.5)
    stream = RngStream(4, 2)
    (counts,), (centroid,) = block_leaf_counts(model, [stream], 4, 0, [1])
    assert counts.tolist() == [3, 3, 3, 3] and centroid.tolist() == []
    assert np.array_equal(stream.words(3), RngStream(4, 2).words(3))
    assert grow_legs(np.zeros(0, dtype=bool), np.empty(0)).tolist() == [1, 1, 1]
    rng = RngStream(4, 2)
    assert grow(model, 1, rng) == new_seed()
    assert np.array_equal(rng.doubles(3), RngStream(4, 2).doubles(3))


def octet_words(rows, pad):
    """Raw words holding each row's bytes in order, byte j of a word being
    ``(w >> 8j) & 0xFF``, one word per 8 steps of each row, row after row; a
    row's last word is filled up with ``pad``."""
    out = []
    for row in rows:
        for first in range(0, len(row), 8):
            chunk = list(row[first:first + 8])
            chunk += [pad] * (8 - len(chunk))
            out.append(sum(b << (8 * j) for j, b in enumerate(chunk)))
    return out


def tail(b):
    """A tail word whose top 45 bits are b (its low 19 bits set, and ignored)."""
    return (b << 19) | ((1 << 19) - 1)


def test_leaf_count_scripted_decisions(monkeypatch):
    model = UniformLeaf(0.4)
    A, T = decision_threshold(model)
    assert (A, T) == (102, 14073748835533)  # ceil(0.4 * 2**53) = 102 * 2**45 + T
    # 13 steps per row: each row owns two words, and 3 high bytes go unused;
    # they hold ties, which would take tail words if they were read
    rows = [
        [0, A + 1, A, 255, A, 101, 200, A, 0, 1, 2, 3, 4],  # three ties
        [A + 1] * 13,                                        # no recruit
        [A, 7, A + 1, A - 1, A, A, 9, 250, 251, 252, 253, 254, A],  # four ties, audited
    ]
    tails = [tail(T - 1), tail(T), tail(0),        # row 0: recruit, no, recruit
             tail(T), tail(2**45 - 1), tail(T - 1), tail(5)]  # row 2: no, no, recruit, recruit
    words = octet_words(rows, pad=A)
    stream = ScriptedWords(words + tails + [0xFFFF])
    (counts,), (centroid,) = block_leaf_counts(model, [stream], 3, 13, [2])
    assert counts.tolist() == [3 + 7 + 2, 3, 3 + 3 + 2]  # below A + recruiting ties
    assert centroid.tolist() == [False, True, False, True, False, True, True,
                                 False, False, False, False, False, True]
    assert stream.left == 1  # exactly the decision words and one tail word per tie
    # the same words in pieces of one to three rows, and the rule spelled out
    for piece, draws in ((1, [2, 2, 2]), (2, [2, 2, 2]), (6, [6]), (DRAW_PIECE, [6])):
        monkeypatch.setattr(tree, "DRAW_PIECE", piece)
        again = ScriptedWords(words + tails)
        got = [result[0] for result in block_leaf_counts(model, [again], 3, 13, [2])]
        assert again.draws == draws + [len(tails)]
        assert got[0].tolist() == counts.tolist() and np.array_equal(got[1], centroid)
    want_counts, want_centroid = reference_block(ScriptedWords(words + tails), 3, 13, 0.4)
    assert want_counts.tolist() == counts.tolist()
    assert np.array_equal(want_centroid[2], centroid)


# The ids keep each p's case name from when p = 1/2 and Preferential (model0,
# model1) ran here too; they moved to test_bit_rule_has_the_float_comparison_law.
@pytest.mark.parametrize("model", [
    pytest.param(UniformLeaf(0.4), id="model2"),
    pytest.param(UniformLeaf(1e-3), id="model3"),
    pytest.param(UniformLeaf(1 - 2**-53), id="model4"),
])
def test_byte_rule_is_the_float_comparison(model):
    # Every 53-bit k, split into the step's byte and a tie's tail, must give
    # the decision k * 2**-53 < p: the step law is Bernoulli(ceil(p 2**53) / 2**53).
    p = model.centroid_probability
    K = math.ceil(p * 2**53)
    A, T = decision_threshold(model)
    assert A * 2**45 + T == K and 0 <= A <= 255
    rng = np.random.default_rng(2024)
    edges = [K - 1, K, K + 1, 0, 2**45 - 1, 255 << 45, 2**53 - 1, A << 45,
             (A << 45) + T - 1, (A << 45) + T]
    ks = [k for k in edges if 0 <= k < 2**53] + rng.integers(0, 2**53, 3000).tolist()
    ks += ((A << 45) + rng.integers(0, 2**45, 500)).tolist()  # ties
    noise = rng.integers(0, 2**19, len(ks)).tolist()
    other = rng.integers(0, 256, len(ks)).tolist()
    for k, low, filler in zip(ks, noise, other):
        byte, b = k >> 45, k & (2**45 - 1)
        word = byte | (filler << 8)  # the step's byte is byte 0; the rest is unused
        stream = ScriptedWords([word, (b << 19) | low])
        (counts,), (centroid,) = block_leaf_counts(model, [stream], 1, 1, [0])
        assert bool(counts[0] - 3) == (k * 2.0**-53 < p) == bool(centroid[0]), k
        assert stream.left == (0 if byte == A else 1), k


@pytest.mark.parametrize("model", [UniformLeaf(0.5), Preferential()])
def test_bit_rule_has_the_float_comparison_law(model):
    # At p = 1/2, K = 2**52: the float comparison k * 2**-53 < p recruits iff
    # the top bit of the 53-bit k is 0, i.e. with probability exactly 1/2,
    # which is the byte rule's A = 128, T = 0.  The bit rule decides step s
    # on one other fair bit, bit s % 64 of its word, and draws nothing else.
    p = model.centroid_probability
    assert math.ceil(p * 2**53) == 2**52 == p * 2**53
    assert decision_threshold(model) == ONE_BIT == (128, 0)
    rng = np.random.default_rng(2024)
    ks = [0, 2**52 - 1, 2**52, 2**53 - 1] + rng.integers(0, 2**53, 1000).tolist()
    assert all((k * 2.0**-53 < p) == (k >> 52 == 0) for k in ks)
    for word in rng.integers(0, 2**64, 200, dtype=np.uint64).tolist():
        for steps in (1, 13, 64):
            stream = ScriptedWords([word, 0])
            (counts,), (centroid,) = block_leaf_counts(model, [stream], 1, steps, [0])
            want = [(word >> s) & 1 == 0 for s in range(steps)]
            assert centroid.tolist() == want and counts[0] == 3 + sum(want)
            assert stream.draws == [1] and stream.left == 1


@given(st.sampled_from([UniformLeaf(0.5), Preferential()]), st.integers(1, 5),
       st.integers(0, 300), st.integers(0, 2**63 - 1), st.integers(0, 10**9))
def test_bit_rule_counts_and_schedules_equal_the_reference(model, rows, steps, master_seed,
                                                           stream_index):
    want_counts, want_centroid = reference_block(RngStream(master_seed, stream_index), rows,
                                                 steps, 0.5)
    for audit_row in range(rows):
        (counts,), (centroid,) = block_leaf_counts(model, [RngStream(master_seed, stream_index)],
                                                   rows, steps, [audit_row])
        assert counts.tolist() == want_counts.tolist()
        assert np.array_equal(centroid, want_centroid[audit_row])


def bit_words(rows, width):
    """Raw words holding each row's steps as bits, bit s % 64 of the row's
    word s // 64 being 1 where the row holds 1, row after row; the bits of a
    row's last word past its steps are all 1."""
    out = []
    for row in rows:
        for first in range(0, 64 * width, 64):
            chunk = list(row[first:first + 64])
            chunk += [1] * (64 - len(chunk))
            out.append(sum(bit << s for s, bit in enumerate(chunk)))
    return out


@pytest.mark.parametrize("n", [2, 65, 66, 130])
def test_bit_rule_reads_only_the_used_bits_and_draws_no_tail(monkeypatch, n):
    steps = n - 1
    width = -(-steps // 64)
    rng = np.random.default_rng(n)
    rows = [[0] * steps, [1] * steps] + [rng.integers(0, 2, steps).tolist() for _ in range(3)]
    words = bit_words(rows, width)
    want = [3 + row.count(0) for row in rows]
    # one row per piece, two, and the whole block
    for piece, draws in ((1, [width] * 5), (2 * width, [2 * width, 2 * width, width]),
                         (DRAW_PIECE, [5 * width])):
        monkeypatch.setattr(tree, "DRAW_PIECE", piece)
        stream = ScriptedWords(words + [2**64 - 1])
        (counts,), (centroid,) = block_leaf_counts(Preferential(), [stream], 5, steps, [4])
        assert counts.tolist() == want
        assert centroid.tolist() == [bit == 0 for bit in rows[4]]
        assert stream.draws == draws and stream.left == 1  # no tail word
    want_counts, want_centroid = reference_block(ScriptedWords(words), 5, steps, 0.5)
    assert want_counts.tolist() == want
    assert want_centroid[4].tolist() == [bit == 0 for bit in rows[4]]
