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
    seed = new_seed()
    assert spider_degrees(seed.time, seed.leaf_count) == {3: 1, 1: 3}


def test_degree_multiset_mixed_tree():
    state = TreeState(time=4, legs=(1, 1, 1, 1, 2))
    assert spider_degrees(state.time, state.leaf_count) == {5: 1, 1: 5, 2: 1}


@given(st.integers(1, 40), st.integers(0, 10**6))
def test_degree_multiset_handshake(n, seed):
    state = grow(UniformLeaf(0.4), n, RngStream(seed))
    counts = spider_degrees(state.time, state.leaf_count)
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
    seed = new_seed()
    assert spider_degrees(1, 3) == spider_degrees(seed.time, seed.leaf_count) == {3: 1, 1: 3}
    assert spider_degrees(4, 6) == {6: 1, 1: 6}  # every leg of length one
    assert spider_degrees(4, 5) == {5: 1, 1: 5, 2: 1}
    for n, L in ((1, 2), (1, 4), (5, 8), (0, 3), (500, 503)):
        with pytest.raises(ValueError, match="outside the reachable range"):
            spider_degrees(n, L)
        range_error = rf"count {L} outside the reachable range \[3, {n + 2}\]"
        # One tree per entry; the range is named in integers whatever the times' dtype.
        for dtype in (np.int64, np.float64):
            with pytest.raises(ValueError, match=range_error):
                spider_degrees(np.array([n, 1], dtype=dtype), np.array([L, 3]))


def test_spider_degrees_of_a_block_are_its_trees_multisets_as_columns():
    # the pairs of {L: 1, 1: L, 2: n + 2 - L}, one tree per entry, a zero count kept
    for ns in (np.array([4, 4, 4, 9]), 4):
        columns = spider_degrees(ns, np.array([3, 6, 5, 5])).items()
        (centroid, one), (leaf, leaves), (internal, internals) = columns
        assert centroid.dtype == leaves.dtype == internals.dtype == np.float64
        assert (centroid.tolist(), one, leaf, leaves.tolist(), internal) == (
            [3, 6, 5, 5], 1, 1, [3, 6, 5, 5], 2)
        assert internals.tolist() == ([3, 0, 1, 6] if np.ndim(ns) else [3, 0, 1, 1])


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
    assert [len(got)] == [len(want)]


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
        assert spider_degrees(state.time, state.leaf_count) == expected


@pytest.mark.parametrize("p", [0.05, 0.5, 0.9499])
def test_blocks_of_64_with_a_partial_last_block_equal_per_tree_growth(p):
    # verify's layout: block b of 64 trials draws all its uniforms from stream
    # 1 + b in one call, and each trial's tree grows from its slice of that
    # draw; 87 trials, so the last block holds 23, and n = 1 and n = 2 trees
    # sit among the others
    ns = np.random.default_rng(3).integers(1, 300, 87)
    ns[:6] = [1, 2, 1, 2, 2, 1]
    ns[64:66] = [2, 1]
    for first in range(0, len(ns), 64):
        n_block = ns[first:first + 64]
        u = RngStream(9, 1 + first // 64).doubles(2 * int((n_block - 1).sum())).reshape(-1, 2)
        legs = [grow_legs(d[:, 0] < p, d[:, 1]) for d in np.split(u, np.cumsum(n_block - 1)[:-1])]
        stream = RngStream(9, 1 + first // 64)
        grown = [grow(UniformLeaf(p), int(n), stream) for n in n_block]
        assert [len(x) for x in legs] == [t.leaf_count for t in grown]
        assert [x.tolist() for x in legs] == [list(t.legs) for t in grown]
        assert all(x.dtype == np.int64 for x in legs)


def test_leaf_picks_past_the_last_leg_fail_with_tree_states_error():
    # 15 steps, 6 at the centroid: the tree ends with 9 legs.  Shifted by
    # one, each leaf pick names a leg past those its step sees, the last
    # step's past all 9.
    centroid = np.zeros(15, dtype=bool)
    centroid[[0, 2, 5, 7, 10, 12]] = True
    picks = np.random.default_rng(5).random(15)
    legs = grow_legs(centroid, picks)
    assert len(legs) == 9 and legs.sum() == 18
    shifted = picks + ~centroid
    seen = 3 + np.cumsum(centroid)
    chosen = np.floor(shifted[~centroid] * seen[~centroid]).astype(np.int64)
    assert chosen.max() >= 9
    with pytest.raises(ValueError) as want:
        TreeState(time=16, legs=1 + np.bincount(chosen, minlength=9))
    with pytest.raises(ValueError, match="^leg lengths sum to \\d+, expected time \\+ 2 = 18$") as got:
        grow_legs(centroid, shifted)
    assert str(got.value) == str(want.value)


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
    counts, (centroid,) = block_leaf_counts(model, stream, rows, steps, [audit_row], rows)
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
    counts, (centroid,) = block_leaf_counts(model, stream, 4, 0, [1], 4)
    assert counts.tolist() == [3, 3, 3, 3] and centroid.tolist() == []
    assert np.array_equal(stream.words(3), RngStream(4, 2).words(3))
    assert grow_legs(np.zeros(0, dtype=bool), np.empty(0)).tolist() == [1, 1, 1]
    rng = RngStream(4, 2)
    assert grow(model, 1, rng) == new_seed()
    assert np.array_equal(rng.doubles(3), RngStream(4, 2).doubles(3))


def test_schedules_follow_the_audited_rows_which_must_lie_in_the_block():
    model, stream_words = UniformLeaf(0.4), RngStream(6, 1).words(4 * 3 + 64)
    want_counts, want_centroid = reference_block(RngStream(6, 1), 4, 20, 0.4)
    for audit_rows in ([], [3], [2, 0], [1, 1]):
        counts, schedules = block_leaf_counts(model, ScriptedWords(stream_words), 4, 20,
                                              audit_rows, 4)
        assert counts.tolist() == want_counts.tolist()
        assert len(schedules) == len(audit_rows)
        for row, centroid in zip(audit_rows, schedules):
            assert np.array_equal(centroid, want_centroid[row])
    for audit_rows in ([4], [-1], [0, 4]):
        with pytest.raises(ValueError, match=r"outside 0\.\.3"):
            block_leaf_counts(model, RngStream(6, 1), 4, 20, audit_rows, 4)


@pytest.mark.parametrize("p, n, audit_rows", [(0.4, 201, [1000, 3, 3, 700]),
                                                (0.5, 5000, [900, 5, 5])])
def test_unsorted_repeated_audit_rows_across_pieces_get_their_own_schedules(p, n, audit_rows):
    # A chunk is counted in pieces of 655 rows at n = 201 (byte rule) and of
    # 207 at n = 5000 (bit rule); these rows lie in two pieces, out of order
    # and repeated, and at p = 0.4 each of them holds ties.
    model, rows, steps = UniformLeaf(p), 1024, n - 1
    width = -(-steps // (64 if p == 0.5 else 8))
    assert len({row // (DRAW_PIECE // width) for row in audit_rows}) == 2
    if p != 0.5:
        octets = RngStream(5, 0).words(rows * width).astype("<u8").view(np.uint8)
        tied = octets.reshape(rows, 8 * width)[audit_rows, :steps] == decision_threshold(model)[0]
        assert tied.any(axis=1).all()
    want_counts, want_centroid = reference_block(RngStream(5, 0), rows, steps, p)
    counts, schedules = block_leaf_counts(model, RngStream(5, 0), rows, steps, audit_rows, rows)
    assert counts.tolist() == want_counts.tolist()
    assert len(schedules) == len(audit_rows)
    for row, centroid in zip(audit_rows, schedules):
        assert np.array_equal(centroid, want_centroid[row])


@pytest.mark.parametrize("p", [0.4, 0.5])
@pytest.mark.parametrize("steps", [0, 1, 64, 200])
@pytest.mark.parametrize("audit_rows", [[], [2], [3, 0, 3]])
def test_schedules_are_one_bool_array_in_audit_order(p, steps, audit_rows):
    want_counts, want_centroid = reference_block(RngStream(9, 4), 4, steps, p)
    counts, schedules = block_leaf_counts(UniformLeaf(p), RngStream(9, 4), 4, steps,
                                          audit_rows, 4)
    assert counts.tolist() == want_counts.tolist()
    assert type(schedules) is np.ndarray and schedules.dtype == bool
    assert np.array_equal(schedules, want_centroid[audit_rows])


class SkipRecorder(RngStream):
    """An ``RngStream`` that records each ``words`` and ``advance`` call."""

    def __init__(self, *args):
        super().__init__(*args)
        self.calls = []

    def words(self, count):
        self.calls.append(("words", count))
        return super().words(count)

    def advance(self, count):
        self.calls.append(("advance", count))
        super().advance(count)


@pytest.mark.parametrize("p", [0.4, 0.5])
def test_a_block_counts_only_its_first_rows_and_draws_no_other_row(p):
    model, rows, steps = UniformLeaf(p), 40, 100
    byte_rule = p != 0.5
    width = -(-steps // (8 if byte_rule else 64))
    words = RngStream(6, 2).words(rows * width)
    octets = words.astype("<u8").view(np.uint8).reshape(rows, 8 * width)[:, :steps]
    ties = (octets == decision_threshold(model)[0]).sum(axis=1) if byte_rule else [0] * rows
    assert not byte_rule or ties[:17].sum() > 0  # the counted rows of 17 hold ties
    want_counts, want_centroid = reference_block(RngStream(6, 2), rows, steps, p)
    for counted in (0, 1, 17, 39, 40):
        audit_rows = [row for row in (16, 0, 38) if row < counted]
        stream = SkipRecorder(6, 2)
        counts, schedules = block_leaf_counts(model, stream, rows, steps, audit_rows, counted)
        assert counts.tolist() == want_counts[:counted].tolist()
        for row, centroid in zip(audit_rows, schedules):
            assert np.array_equal(centroid, want_centroid[row])
        # the counted rows' decision words, a skip past the other rows' (byte
        # rule), then the counted rows' tail words
        want = [("words", counted * width)] * bool(counted)
        if byte_rule:
            want += [("advance", (rows - counted) * width)] * (counted < rows)
            want += [("words", int(sum(ties[:counted])))]
        assert stream.calls == want
    for counted in (-1, 41):
        with pytest.raises(ValueError, match=f"^{counted} counted rows outside 0\\.\\.40$"):
            block_leaf_counts(model, RngStream(6, 2), rows, steps, [], counted)
    with pytest.raises(ValueError, match=r"outside 0\.\.16"):
        block_leaf_counts(model, RngStream(6, 2), rows, steps, [17], 17)


def test_advance_skips_the_words_it_is_given():
    stream = RngStream(3, 1)
    stream.words(5)
    stream.advance(10**6)
    stream.advance(0)
    skipped = RngStream(3, 1)
    skipped.words(5)
    for _ in range(10):
        skipped.words(10**5)
    assert np.array_equal(stream.words(4), skipped.words(4))


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
    counts, (centroid,) = block_leaf_counts(model, stream, 3, 13, [2], 3)
    assert counts.tolist() == [3 + 7 + 2, 3, 3 + 3 + 2]  # below A + recruiting ties
    assert centroid.tolist() == [False, True, False, True, False, True, True,
                                 False, False, False, False, False, True]
    assert stream.left == 1  # exactly the decision words and one tail word per tie
    # the same words in pieces of one to three rows, and the rule spelled out
    for piece, draws in ((1, [2, 2, 2]), (2, [2, 2, 2]), (6, [6]), (DRAW_PIECE, [6])):
        monkeypatch.setattr(tree, "DRAW_PIECE", piece)
        again = ScriptedWords(words + tails)
        got, (schedule,) = block_leaf_counts(model, again, 3, 13, [2], 3)
        assert again.draws == draws + [len(tails)]
        assert got.tolist() == counts.tolist() and np.array_equal(schedule, centroid)
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
        counts, (centroid,) = block_leaf_counts(model, stream, 1, 1, [0], 1)
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
            counts, (centroid,) = block_leaf_counts(model, stream, 1, steps, [0], 1)
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
        counts, (centroid,) = block_leaf_counts(model, RngStream(master_seed, stream_index),
                                                   rows, steps, [audit_row], rows)
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
        counts, (centroid,) = block_leaf_counts(Preferential(), stream, 5, steps, [4], 5)
        assert counts.tolist() == want
        assert centroid.tolist() == [bit == 0 for bit in rows[4]]
        assert stream.draws == draws and stream.left == 1  # no tail word
    want_counts, want_centroid = reference_block(ScriptedWords(words), 5, steps, 0.5)
    assert want_counts.tolist() == want
    assert want_centroid[4].tolist() == [bit == 0 for bit in rows[4]]


class OnesWords:
    """Stand-in for RngStream whose every raw word has all 64 bits set,
    served as a zero-stride view of one word, so a row of 2**26 words
    costs 8 bytes."""

    def words(self, count):
        one = np.full(1, 2**64 - 1, dtype=np.uint64)
        return np.lib.stride_tricks.as_strided(one, shape=(count,), strides=(0,))


def test_bit_rule_raises_rather_than_miscount_from_two_to_the_32_steps():
    # A row of 2**32 leaf steps has popcount 2**32, one past what the uint32
    # lane holds, and 2**32 steps do not fit the lane either: the count
    # raises instead of wrapping.  Only the row's 2**26 per-word popcounts
    # (64 MiB of uint8) are allocated.
    with pytest.raises(OverflowError):
        block_leaf_counts(Preferential(), OnesWords(), 1, 2**32, [], 1)
