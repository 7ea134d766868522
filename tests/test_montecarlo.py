import math
import os
import time
from fractions import Fraction
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from spiderlab import (
    FORGOTTEN,
    GINI,
    HOOVER,
    LEAVES,
    NAMED_INDICES,
    ZAGREB,
    GeneralizedZagreb,
    Preferential,
    SimConfig,
    UniformLeaf,
    UnknownIndexError,
    convergence_probe,
    ks_normal,
    leaf_atoms,
    moment_catalog,
    run_experiment,
    standardize,
)
import spiderlab.montecarlo as montecarlo
import spiderlab.tree as tree
from spiderlab.indices import Affine, Generic, Table, eval_reduced, index_name, reduced_values
from spiderlab.montecarlo import CHUNK_SIZE, KS_MIN_SAMPLES, SPOT_CHECK_STRIDE
from spiderlab.tree import DRAW_PIECE, RngStream, decision_threshold

from conftest import reference_block


def test_seed_horizon_experiment_is_deterministic():
    config = SimConfig(model=UniformLeaf(0.5), horizon=1, replicates=1,
                       master_seed=5, indices=NAMED_INDICES)
    summary = run_experiment(config)
    means = {key: stats.mean for key, stats in summary.stats.items()}
    assert means == {"leaves": 3.0, "zagreb": 12.0, "gordon_scantlebury": 3.0,
                     "platt": 6.0, "forgotten": 30.0, "gini": 0.25, "hoover": 0.25}
    assert all(stats.variance == 0.0 for stats in summary.stats.values())
    assert all(stats.count == 1 for stats in summary.stats.values())


def test_rerun_is_bit_identical():
    config = SimConfig(model=UniformLeaf(0.4), horizon=101, replicates=3000,
                       master_seed=99, indices=NAMED_INDICES)
    a = run_experiment(config)
    b = run_experiment(config)
    assert a.to_json() == b.to_json()
    assert np.array_equal(a.leaf_counts, b.leaf_counts)


def test_parallel_run_matches_serial(monkeypatch):
    monkeypatch.setattr(montecarlo, "POOL_MIN_WORK", 0)  # fork at any size
    many_chunks = SimConfig(model=UniformLeaf(0.6), horizon=80, replicates=4000,
                            master_seed=123, indices=(LEAVES, ZAGREB, GINI))
    assert many_chunks.replicates > 3 * CHUNK_SIZE
    partial_chunk = SimConfig(model=UniformLeaf(0.4), horizon=201, replicates=1100,
                              master_seed=11, indices=(LEAVES, ZAGREB, GINI))
    assert partial_chunk.replicates % CHUNK_SIZE and partial_chunk.replicates > CHUNK_SIZE
    half = SimConfig(model=UniformLeaf(0.5), horizon=150, replicates=3 * CHUNK_SIZE + 37,
                     master_seed=5, indices=(LEAVES, ZAGREB, GINI))  # the bit rule
    for config in (many_chunks, partial_chunk, half):
        serial = run_experiment(config, threads=1)
        for threads in (2, 3):
            parallel = run_experiment(config, threads=threads)
            assert serial.to_json_str() == parallel.to_json_str()
            assert np.array_equal(serial.leaf_counts, parallel.leaf_counts)


def test_audit_rejects_a_counted_leaf_count_that_disagrees_with_the_tree(monkeypatch):
    real = montecarlo.block_leaf_counts

    def one_too_many(*args):
        counts, centroid = real(*args)
        return counts + 1, centroid

    monkeypatch.setattr(montecarlo, "block_leaf_counts", one_too_many)
    config = SimConfig(model=UniformLeaf(0.5), horizon=40, replicates=5,
                       master_seed=3, indices=(LEAVES,))
    with pytest.raises(RuntimeError, match="leaf-count mismatch"):
        run_experiment(config)


def test_audit_checks_the_values_that_are_merged(monkeypatch):
    # The statistics evaluate each index once per distinct L.  Corrupting the
    # atom at an audited replicate's L must fail the audit: it sees exactly
    # what enters the mean and variance, not a fresh evaluation.
    config = SimConfig(model=UniformLeaf(0.4), horizon=60, replicates=150,
                       master_seed=9, indices=(LEAVES, GINI))
    clean = run_experiment(config)
    L = clean.leaf_counts
    real = montecarlo.reduced_values

    def corrupt_at(target, change):
        def corrupted(spec, n, leaf_counts):
            values = real(spec, n, leaf_counts)
            if spec == GINI:
                at = np.asarray(leaf_counts) == target
                assert at.sum() == 1  # one atom per distinct L
                values[at] = change(values[at])
            return values
        return corrupted

    monkeypatch.setattr(montecarlo, "reduced_values", corrupt_at(L[100], lambda v: v * (1 + 1e-9)))
    # the values print as Python floats, not as np.float64(...)
    with pytest.raises(RuntimeError, match=rf"direct/reduced mismatch for gini at n=60, "
                                           rf"L={L[100]}: direct=[-+.e\d]+ reduced=[-+.e\d]+$"):
        run_experiment(config)
    # an atom no audited replicate (0 and 100) holds passes the audit, and is
    # what the mean weighs: it moves by its count over R
    unaudited = next(v for v in L.tolist() if v not in (L[0], L[100]))
    monkeypatch.setattr(montecarlo, "reduced_values", corrupt_at(unaudited, lambda v: v + 1))
    shifted = run_experiment(config)
    assert shifted.spot_checks == 2
    count = int((L == unaudited).sum())
    assert shifted.stats["gini"].mean == pytest.approx(clean.stats["gini"].mean + count / 150)
    assert shifted.stats["leaves"] == clean.stats["leaves"]


def test_direct_mismatches_weigh_each_difference_against_the_tolerance_in_row_major_order():
    reduced = np.array([[0.5, 1e6, 3.0], [-2e6, 0.25, 7.0]])
    direct = reduced.copy()
    direct[0, 0] += 0.9e-12          # within 1e-12 * max(1, |0.5|)
    direct[0, 1] *= 1 + 0.9e-12      # within 1e-12 * 1e6
    direct[1, 0] *= 1 + 1.1e-12      # beyond 1e-12 * 2e6
    direct[1, 1] += 1.1e-12          # beyond 1e-12 * max(1, 0.25)
    direct[0, 2] = np.nan            # compares false, as before the check
    assert montecarlo.direct_mismatches(direct, reduced) == [[1, 0], [1, 1]]
    # a transposed view reads in its own row-major order
    assert montecarlo.direct_mismatches(direct.T, reduced.T) == [[0, 1], [1, 1]]
    assert montecarlo.direct_mismatches(reduced, reduced.copy()) == []


@pytest.mark.parametrize("p,flipped", [(0.5, 0), (0.4, 20), (0.4, -1)])
def test_audit_rejects_a_flipped_step_in_the_audited_schedule(monkeypatch, p, flipped):
    # The audit recounts L from the audited row's schedule, which is read
    # back apart from the popcount or byte sums that count the block.
    real = montecarlo.block_leaf_counts

    def one_step_flipped(*args):
        counts, schedules = real(*args)
        for centroid in schedules:
            centroid[flipped] = ~centroid[flipped]
        return counts, schedules

    monkeypatch.setattr(montecarlo, "block_leaf_counts", one_step_flipped)
    config = SimConfig(model=UniformLeaf(p), horizon=40, replicates=5,
                       master_seed=3, indices=(LEAVES,))
    with pytest.raises(RuntimeError, match="leaf-count mismatch at n=40: counted L=\\d+, "
                                           "its schedule has L=\\d+$"):
        run_experiment(config)


def test_a_bit_rule_horizon_past_two_to_the_32_is_a_config_error():
    # The bit rule sums a row's popcounts in uint32 lanes, exact up to 2**32 - 1
    # steps; the byte rule sums in int64 and takes any horizon.
    for model in (UniformLeaf(0.5), Preferential()):
        with pytest.raises(ValueError, match=r"^horizon must be <= 2\*\*32 at p = 1/2, .* "
                                             r"got 4294967297$"):
            SimConfig(model=model, horizon=2**32 + 1, replicates=1, master_seed=0,
                      indices=(LEAVES,))
        SimConfig(model=model, horizon=2**32, replicates=1, master_seed=0, indices=(LEAVES,))
    SimConfig(model=UniformLeaf(0.4), horizon=2**32 + 1, replicates=1, master_seed=0,
              indices=(LEAVES,))


@pytest.mark.parametrize("p", [0.5, 0.4])
def test_audit_checks_every_audited_replicate_not_only_the_first(monkeypatch, p):
    # Replicate 1400 is row 376 of chunk 1 and past the first piece under
    # both rules; it is the only audited replicate whose schedule is wrong.
    n, R, target = 5000, 2125, 1400
    chunk, row = divmod(target, CHUNK_SIZE)
    width = -(-(n - 1) // (64 if p == 0.5 else 8))
    assert target % SPOT_CHECK_STRIDE == 0 and row >= DRAW_PIECE // width
    config = SimConfig(model=UniformLeaf(p), horizon=n, replicates=R,
                       master_seed=2, indices=(LEAVES,))
    L = run_experiment(config).leaf_counts
    audited = L[::SPOT_CHECK_STRIDE].tolist()
    assert audited.count(L[target]) == 1  # the message names this replicate alone
    real = montecarlo.block_leaf_counts

    def one_step_flipped(model, stream, rows, steps, audit_rows, counted):
        counts, schedules = real(model, stream, rows, steps, audit_rows, counted)
        if stream.stream_index == chunk:
            centroid = schedules[list(audit_rows).index(row)]
            centroid[2500] = ~centroid[2500]
        return counts, schedules

    monkeypatch.setattr(montecarlo, "block_leaf_counts", one_step_flipped)
    with pytest.raises(RuntimeError, match=f"^leaf-count mismatch at n={n}: counted "
                                           f"L={L[target]}, its schedule has "
                                           f"L=({L[target] - 1}|{L[target] + 1})$"):
        run_experiment(config)


def test_a_faulty_byte_sum_is_named_as_a_leaf_count_mismatch(monkeypatch):
    # A byte sum that misses byte 0 of each word undercounts row 0's ties;
    # the audit names it before the row's tail words are scattered.
    monkeypatch.setattr(tree, "_BYTE_SUM", 0x0001010101010101)
    config = SimConfig(model=UniformLeaf(0.4), horizon=201, replicates=1,
                       master_seed=1, indices=(LEAVES,))
    with pytest.raises(RuntimeError, match="^leaf-count mismatch at n=201: row 0 holds 1 ties, "
                                           "counted 0$"):
        run_experiment(config)


def test_a_faulty_byte_sum_names_the_first_audited_row_it_miscounts(monkeypatch):
    # The faulty sum misses the ties in byte 0 of a word.  At seed 12, the
    # first audited row holding one is row 500 of chunk 0; rows 0 and 300
    # hold ties in other bytes only, which it counts.  Audited in reverse,
    # the first audited row it miscounts is the last such row.
    model, n, seed = UniformLeaf(0.4), 201, 12
    width = -(-(n - 1) // 8)
    octets = RngStream(seed, 0).words(CHUNK_SIZE * width).astype("<u8").view(np.uint8)
    tied = octets.reshape(CHUNK_SIZE, 8 * width)[:, :n - 1] == decision_threshold(model)[0]
    missed = tied[:, ::8].sum(axis=1)
    audited = range(0, CHUNK_SIZE, SPOT_CHECK_STRIDE)
    wrong = [row for row in audited if missed[row]]
    assert wrong[0] == 500 and len(wrong) > 1 and tied[[0, 300]].any(axis=1).all()
    monkeypatch.setattr(tree, "_BYTE_SUM", 0x0001010101010101)

    def message(row):
        held = int(tied[row].sum())
        return (f"^leaf-count mismatch at n={n}: row {row} holds {held} ties, "
                f"counted {held - missed[row]}$")

    config = SimConfig(model=model, horizon=n, replicates=CHUNK_SIZE, master_seed=seed,
                       indices=(LEAVES,))
    with pytest.raises(RuntimeError, match=message(wrong[0])):
        run_experiment(config)
    with pytest.raises(RuntimeError, match=message(wrong[-1])):
        tree.block_leaf_counts(model, RngStream(seed, 0), CHUNK_SIZE, n - 1, audited[::-1],
                               CHUNK_SIZE)


# -- stream contract -------------------------------------------------------------

def leaf_samples(n, p, replicates, master_seed, threads=1):
    config = SimConfig(model=UniformLeaf(p), horizon=n, replicates=replicates,
                       master_seed=master_seed, indices=(LEAVES,))
    return run_experiment(config, threads=threads).leaf_counts


@pytest.mark.parametrize("seed,i,n,p,expected", [
    (11, 0, 201, 0.4, 81),  # holds a tie its tail word resolves to no recruit
    (11, 63, 201, 0.4, 80),
    (11, 64, 201, 0.4, 86),  # holds a tie its tail word resolves to a recruit
    (11, 1099, 201, 0.4, 95),  # row 75 of chunk 1
    (1, 6, 13, 0.3, 8),  # 12 steps, so half a word unused, and a tie resolved to a recruit
    (7, 5, 1, 0.5, 3),
    (7, 3, 2, 0.3, 4),
    (7, 4, 2, 0.3, 4),
    (7, 128, 2, 0.3, 3),
    (20250808, 3, 5000, 0.5, 2465),  # the bit rule: 207 rows per piece
    (7, 65, 8 * DRAW_PIECE + 2, 0.5, 65609),  # the bit rule: seven rows per piece
    (7, 65, 8 * DRAW_PIECE + 2, 0.4, 52536),  # the byte rule: a row longer than DRAW_PIECE words
    (7, 65, 64 * DRAW_PIECE + 2, 0.5, 525226),  # the bit rule: a row longer than DRAW_PIECE words
])
def test_golden_leaf_counts(seed, i, n, p, expected):
    assert leaf_samples(n, p, i + 1, seed)[i] == expected


class RecordingStream(RngStream):
    """An ``RngStream`` that records every stream it keys, in ``made``, and
    the kind and size of each of its draws, in ``draws``."""

    made = []

    def __init__(self, *args):
        super().__init__(*args)
        self.draws = []
        RecordingStream.made.append(self)

    def doubles(self, count):
        self.draws.append(("doubles", count))
        return super().doubles(count)

    def words(self, count):
        self.draws.append(("words", count))
        return super().words(count)

    def advance(self, count):
        self.draws.append(("advance", count))
        super().advance(count)


@pytest.fixture
def recording(monkeypatch):
    """The streams the engine keys, recorded."""
    monkeypatch.setattr(montecarlo, "RngStream", RecordingStream)
    monkeypatch.setattr(RecordingStream, "made", [])
    return RecordingStream.made


def test_block_layout_matches_hand_drawn_streams():
    n, p, seed = 201, 0.4, 11
    replicates = CHUNK_SIZE + 130  # a whole chunk and a partial one
    expected = []
    for c in range(2):
        counts, _ = reference_block(RngStream(seed, c), CHUNK_SIZE, n - 1, p)
        expected += counts.tolist()
    assert leaf_samples(n, p, replicates, seed).tolist() == expected[:replicates]
    # chunk 0 holds ties, so tail words are read as well
    octets = RngStream(seed, 0).words(CHUNK_SIZE * (n - 1) // 8).astype("<u8").view(np.uint8)
    assert (octets == decision_threshold(UniformLeaf(p))[0]).any()


def test_pieces_equal_a_one_shot_block_draw_at_large_n(monkeypatch):
    n, p, seed = 5000, 0.5, 3
    width = -(-(n - 1) // 64)  # the bit rule's words per row
    chunk = CHUNK_SIZE * width
    assert DRAW_PIECE // width == 207  # the engine counts a chunk in pieces of 207 rows, then 196
    audit_rows = [0, 36, 206, 207, 1023]  # 206 ends the first default piece, 207 begins the next
    expected, centroid = reference_block(RngStream(seed, 0), CHUNK_SIZE, n - 1, p)
    assert np.array_equal(leaf_samples(n, p, CHUNK_SIZE, seed), expected)
    # pieces of 5 and 43 rows leave a shorter last piece (4 and 35 rows)
    # that holds the audited row 1023
    for piece in (1, width, 3 * width - 1, 5 * width, 43 * width, DRAW_PIECE, chunk):
        monkeypatch.setattr(tree, "DRAW_PIECE", piece)
        counts, got = tree.block_leaf_counts(UniformLeaf(p), RngStream(seed, 0), CHUNK_SIZE,
                                             n - 1, audit_rows, CHUNK_SIZE)
        assert np.array_equal(counts, expected)
        assert len(got) == len(audit_rows)
        for schedule, row in zip(got, audit_rows):
            assert np.array_equal(schedule, centroid[row])
    stream = RngStream(seed, 0)
    pieces = [stream.words(size) for size in (DRAW_PIECE, 1, DRAW_PIECE - 1, 12345)]
    assert np.array_equal(np.concatenate(pieces),
                          RngStream(seed, 0).words(2 * DRAW_PIECE + 12345))


@pytest.mark.parametrize("n", [2, 9, 201, 5000])
def test_blocks_counted_together_equal_blocks_counted_alone(monkeypatch, recording, n):
    # A run counts its chunks together, each a block of CHUNK_SIZE rows from
    # its own stream, in pieces of whole rows; counted alone, block by block,
    # they give the same counts at any piece size, and draw exactly their
    # decision words, piece by piece, then their tail words.
    model, steps, p, seed = UniformLeaf(0.4), n - 1, 0.4, 3
    width = -(-steps // 8)
    alone, ties = [], []
    for c in range(2):
        counts, centroid = reference_block(RngStream(seed, c), CHUNK_SIZE, steps, p)
        ties.append(int((RngStream(seed, c).words(CHUNK_SIZE * width).astype("<u8")
                         .view(np.uint8).reshape(CHUNK_SIZE, 8 * width)[:, :steps]
                         == decision_threshold(model)[0]).sum()))
        alone.append((counts, centroid[[0, 517, 1023]]))
    passes = []
    real_row_sums = tree._row_sums
    monkeypatch.setattr(tree, "_row_sums", lambda *args: passes.append(1) or real_row_sums(*args))
    for piece in (1, width, 5 * width, 43 * width, DRAW_PIECE, CHUNK_SIZE * width):
        monkeypatch.setattr(tree, "DRAW_PIECE", piece)
        height = max(1, piece // width)
        heights = [height] * (CHUNK_SIZE // height) + [CHUNK_SIZE % height] * bool(
            CHUNK_SIZE % height)
        for c, (want_counts, want_schedules) in enumerate(alone):
            stream = RecordingStream(seed, c)
            passes.clear()
            counts, schedules = tree.block_leaf_counts(model, stream, CHUNK_SIZE, steps,
                                                       [0, 517, 1023], CHUNK_SIZE)
            assert np.array_equal(counts, want_counts)
            assert np.array_equal(np.stack(schedules), want_schedules)
            assert len(passes) == 2 * len(heights)  # below and at A, once per piece
            assert stream.draws == [("words", h * width) for h in heights] + [("words", ties[c])]
        # the engine over a whole and a partial chunk, at this piece size
        replicates = CHUNK_SIZE + 17
        expected = np.concatenate([counts for counts, _ in alone])[:replicates]
        assert np.array_equal(leaf_samples(n, p, replicates, seed), expected)


@pytest.mark.parametrize("p", [0.4, 0.5])
def test_an_audited_block_draws_its_decision_and_tail_words_only(recording, p):
    n, seed = 50, 5
    replicates = CHUNK_SIZE + 130  # replicates 0, 100, ..., 1000 audited in chunk 0, 1100 in 1
    leaf_samples(n, p, replicates, seed)
    assert [(s.master_seed, s.stream_index) for s in recording] == [(seed, 0), (seed, 1)]
    byte_rule = p != 0.5
    width = -(-(n - 1) // (8 if byte_rule else 64))
    for stream, rows in zip(recording, (CHUNK_SIZE, 130)):
        # a fresh stream that has yielded the counted rows' decision words,
        # skipped the other rows' (byte rule), then yielded the counted rows'
        # tail words is where the engine's stream was left
        reference = RngStream(seed, stream.stream_index)
        words = reference.words(rows * width).astype("<u8").view(np.uint8)
        octets = words.reshape(rows, 8 * width)[:, :n - 1]
        want = [("words", rows * width)]
        if byte_rule:
            ties = int((octets == decision_threshold(UniformLeaf(p))[0]).sum())
            assert ties > 0
            if rows < CHUNK_SIZE:
                want.append(("advance", (CHUNK_SIZE - rows) * width))
            want.append(("words", ties))
            reference.advance((CHUNK_SIZE - rows) * width)
            reference.words(ties)
        assert stream.draws == want
        assert stream.words(4).tolist() == reference.words(4).tolist()


@pytest.mark.parametrize("R", [1, CHUNK_SIZE, CHUNK_SIZE + 1, 2 * CHUNK_SIZE + 77, 10**4])
def test_a_run_keys_one_stream_per_chunk_and_audits_each_hundredth_replicate_once(
        monkeypatch, recording, R):
    audited = []
    real = montecarlo.block_leaf_counts

    def block_leaf_counts(model, stream, rows, steps, audit_rows, counted):
        audited.extend(stream.stream_index * CHUNK_SIZE + row for row in audit_rows)
        return real(model, stream, rows, steps, audit_rows, counted)

    monkeypatch.setattr(montecarlo, "block_leaf_counts", block_leaf_counts)
    config = SimConfig(model=UniformLeaf(0.4), horizon=30, replicates=R,
                       master_seed=8, indices=(LEAVES, GINI))
    summary = run_experiment(config)
    chunks = -(-R // CHUNK_SIZE)
    assert [(s.master_seed, s.stream_index) for s in recording] == [(8, c) for c in range(chunks)]
    assert audited == list(range(0, R, SPOT_CHECK_STRIDE))
    assert summary.spot_checks == len(range(0, R, SPOT_CHECK_STRIDE))


@pytest.mark.parametrize("R, threads", [(1, 1), (CHUNK_SIZE, 1), (2125, 1), (2125, 2)])
def test_a_run_evaluates_each_index_once_per_audited_replicate(monkeypatch, forks, R, threads):
    # One eval_direct call per (audited replicate, index), on that
    # replicate's degree multiset, in the process that counted its chunk
    # (split, this process counts chunks 0 and 1, the child chunk 2):
    # bench/run.py --trace 1 counts the audited replicates by these calls.
    monkeypatch.setattr(montecarlo, "POOL_MIN_WORK", 0)
    calls = []
    real = montecarlo.eval_direct

    def eval_direct(degrees, n, spec):
        calls.append((degrees[1], spec))
        return real(degrees, n, spec)

    monkeypatch.setattr(montecarlo, "eval_direct", eval_direct)
    config = SimConfig(model=UniformLeaf(0.4), horizon=30, replicates=R,
                       master_seed=8, indices=(LEAVES, GINI, GeneralizedZagreb(2.5)))
    summary = run_experiment(config, threads=threads)
    here = summary.leaf_counts[:R if threads == 1 else 2 * CHUNK_SIZE][::SPOT_CHECK_STRIDE]
    assert calls == [(L, spec) for L in here.tolist() for spec in config.indices]
    assert len(forks) == threads - 1
    assert summary.spot_checks == len(range(0, R, SPOT_CHECK_STRIDE))


def test_first_replicates_do_not_depend_on_the_replicate_count():
    # A partial chunk draws only its counted rows, and the byte rule skips the
    # rest before their tail words; at R = 10 the counted rows hold ties.
    octets = RngStream(11, 0).words(10 * 25).astype("<u8").view(np.uint8)
    assert (octets == decision_threshold(UniformLeaf(0.4))[0]).any()
    for n, p in ((201, 0.4), (70, 0.5)):
        longest = leaf_samples(n, p, 2 * CHUNK_SIZE + 77, 11)
        for R in (1, 10, 100, CHUNK_SIZE, CHUNK_SIZE + 1):
            assert np.array_equal(leaf_samples(n, p, R, 11), longest[:R])


def test_pool_starts_only_above_the_work_threshold(monkeypatch, forks):
    def shape(n, replicates, p=0.4):
        return SimConfig(model=UniformLeaf(p), horizon=n, replicates=replicates,
                         master_seed=11, indices=(LEAVES, GINI))

    # the clt example's shape: counted serially under the bit rule, pooled at p = 0.4
    assert not montecarlo._pool_pays(shape(5000, 20_000, 0.5), 2)
    assert montecarlo._pool_pays(shape(5000, 20_000), 2)
    # under the bit rule a chunk is cheap: a forced pool read 1.1-1.6x a serial run at
    # 5 * 10**4 replicates (BENCH_chunk_streams.json)
    assert not montecarlo._pool_pays(shape(5000, 50_000, 0.5), 2)
    assert montecarlo._pool_pays(shape(5000, 100_000, 0.5), 2)
    assert not montecarlo._pool_pays(shape(5000, 20_000), 1)
    # chunks of 1024 and 76: a second worker could take only the 76
    assert not montecarlo._pool_pays(shape(5001, 1100), 2)
    assert not montecarlo._pool_pays(shape(5001, 1100), 3)
    assert not montecarlo._pool_pays(shape(201, 2000), 2)
    threshold = montecarlo.POOL_MIN_WORK
    for config in (shape(201, 2000), shape(5001, 1100), shape(5000, 20_000, 0.5)):
        before = len(forks)
        serial = run_experiment(config, threads=1)
        below = run_experiment(config, threads=2)
        assert len(forks) == before
        monkeypatch.setattr(montecarlo, "POOL_MIN_WORK", 0)
        above = run_experiment(config, threads=2)
        monkeypatch.setattr(montecarlo, "POOL_MIN_WORK", threshold)
        assert len(forks) == before + 1  # forked once
        for run in (below, above):
            assert run.to_json_str() == serial.to_json_str()
            assert np.array_equal(run.leaf_counts, serial.leaf_counts)


def chunk_fault(monkeypatch, fault, stream_index=1):
    """Make ``block_leaf_counts`` call ``fault(counted)`` on the stream of
    chunk ``stream_index``, ``counted`` its real result; a forked child
    inherits the patch."""
    real = montecarlo.block_leaf_counts

    def patched(model, stream, *args):
        counted = real(model, stream, *args)
        return fault(counted) if stream.stream_index == stream_index else counted

    monkeypatch.setattr(montecarlo, "block_leaf_counts", patched)


# Two chunks, one batch each at threads=2: chunk 1 runs in the one child.
TWO_CHUNKS = SimConfig(model=UniformLeaf(0.4), horizon=30, replicates=2 * CHUNK_SIZE,
                       master_seed=8, indices=(LEAVES, GINI))


def test_an_exception_in_a_child_s_chunk_is_raised_unchanged(monkeypatch, forks):
    monkeypatch.setattr(montecarlo, "POOL_MIN_WORK", 0)
    chunk_fault(monkeypatch, lambda counted: (counted[0] + 1, counted[1]))
    with pytest.raises(RuntimeError, match="leaf-count mismatch") as here:
        montecarlo._chunk_worker((TWO_CHUNKS, CHUNK_SIZE, 2 * CHUNK_SIZE))
    with pytest.raises(RuntimeError) as forked:
        run_experiment(TWO_CHUNKS, threads=2)
    assert len(forks) == 1
    assert forked.type is RuntimeError and str(forked.value) == str(here.value)


@pytest.mark.parametrize("end, status", [
    (lambda: os._exit(3), "exited with status 3"),
    (lambda: os.kill(os.getpid(), 9), "was killed by signal 9"),
])
def test_a_child_that_ends_without_a_result_raises_with_its_status(monkeypatch, forks,
                                                                   end, status):
    monkeypatch.setattr(montecarlo, "POOL_MIN_WORK", 0)
    chunk_fault(monkeypatch, lambda counted: end())
    with pytest.raises(RuntimeError, match=f"_count_chunks child process {status} without"):
        run_experiment(TWO_CHUNKS, threads=2)
    assert len(forks) == 1


def test_an_interrupt_in_the_parent_s_batch_kills_and_reaps_the_child(monkeypatch, forks):
    def interrupt(counted):
        raise KeyboardInterrupt("planted")

    monkeypatch.setattr(montecarlo, "POOL_MIN_WORK", 0)
    chunk_fault(monkeypatch, lambda counted: time.sleep(60) or counted)  # the child's chunk
    chunk_fault(monkeypatch, interrupt, stream_index=0)  # the parent's own
    start = time.perf_counter()
    with pytest.raises(KeyboardInterrupt, match="planted"):
        run_experiment(TWO_CHUNKS, threads=2)
    assert time.perf_counter() - start < 30   # killed, not waited for
    assert len(forks) == 1


def test_a_fork_that_fails_kills_and_reaps_the_children_forked_before_it(monkeypatch, forks):
    spy = os.fork

    def second_fails():
        if forks:
            raise OSError("planted fork failure")
        return spy()

    monkeypatch.setattr(montecarlo, "_cpus", lambda: 4)
    monkeypatch.setattr(montecarlo, "POOL_MIN_WORK", 0)
    monkeypatch.setattr(os, "fork", second_fails)
    chunk_fault(monkeypatch, lambda counted: time.sleep(60) or counted)
    config = SimConfig(model=UniformLeaf(0.4), horizon=30, replicates=3 * CHUNK_SIZE,
                       master_seed=8, indices=(LEAVES,))
    start = time.perf_counter()
    with pytest.raises(OSError, match="planted fork failure"):
        run_experiment(config, threads=3)
    assert time.perf_counter() - start < 30
    assert len(forks) == 1


def test_a_run_forks_once_per_batch_after_the_first(monkeypatch, forks):
    monkeypatch.setattr(montecarlo, "_cpus", lambda: 4)
    monkeypatch.setattr(montecarlo, "POOL_MIN_WORK", 0)
    config = SimConfig(model=UniformLeaf(0.4), horizon=30, replicates=4 * CHUNK_SIZE,
                       master_seed=8, indices=(LEAVES, GINI))
    serial = run_experiment(config, threads=1)
    # 4 chunks over 3 processes: batches of ceil(4 / 3) = 2, so only 2 batches
    assert run_experiment(config, threads=3).to_json_str() == serial.to_json_str()
    assert len(forks) == 1
    assert run_experiment(config, threads=4).to_json_str() == serial.to_json_str()
    assert len(forks) == 1 + 3


def test_a_run_forks_no_more_batches_than_it_has_cpus(monkeypatch, forks):
    monkeypatch.setattr(montecarlo, "_cpus", lambda: 2)
    monkeypatch.setattr(montecarlo, "POOL_MIN_WORK", 0)
    config = SimConfig(model=UniformLeaf(0.4), horizon=30, replicates=4 * CHUNK_SIZE,
                       master_seed=8, indices=(LEAVES, GINI))
    serial = run_experiment(config, threads=1)
    # 64 threads on 2 CPUs: batches of ceil(4 / 2) = 2 chunks, so one child
    capped = run_experiment(config, threads=64)
    assert len(forks) == 1
    assert capped.to_json_str() == serial.to_json_str()
    assert np.array_equal(capped.leaf_counts, serial.leaf_counts)


def test_without_os_fork_a_run_is_serial(monkeypatch):
    monkeypatch.setattr(montecarlo, "POOL_MIN_WORK", 0)
    serial = run_experiment(TWO_CHUNKS, threads=1)
    monkeypatch.delattr(os, "fork")
    run = run_experiment(TWO_CHUNKS, threads=2)
    assert run.to_json_str() == serial.to_json_str()
    assert np.array_equal(run.leaf_counts, serial.leaf_counts)


def test_threads_below_one_are_rejected():
    with pytest.raises(ValueError, match="threads must be >= 1"):
        run_experiment(TWO_CHUNKS, threads=0)


def test_preferential_equals_uniform_half():
    base = dict(horizon=120, replicates=2000, master_seed=31, indices=NAMED_INDICES)
    a = run_experiment(SimConfig(model=Preferential(), **base))
    b = run_experiment(SimConfig(model=UniformLeaf(0.5), **base))
    assert a.stats == b.stats


def test_spot_checks_run_on_one_percent():
    config = SimConfig(model=UniformLeaf(0.5), horizon=30, replicates=950,
                       master_seed=1, indices=(ZAGREB, GINI))
    summary = run_experiment(config)
    assert summary.spot_checks == 10  # replicates 0, 100, ..., 900


def test_leaf_estimates_track_the_law():
    n, p, replicates = 101, 0.3, 100_000
    config = SimConfig(model=UniformLeaf(p), horizon=n, replicates=replicates,
                       master_seed=2718, indices=(LEAVES,))
    stats = run_experiment(config).stats["leaves"]
    true_mean = 3 + (n - 1) * p
    true_var = (n - 1) * p * (1 - p)
    assert abs(stats.mean - true_mean) <= 4 * math.sqrt(true_var / replicates)
    # variance estimator within 5 relative standard errors
    rel_se = math.sqrt(2.0 / replicates)
    assert abs(stats.variance - true_var) <= 5 * rel_se * true_var


def test_empirical_mean_within_catalog_band():
    n, p, replicates = 60, 0.7, 20_000
    config = SimConfig(model=UniformLeaf(p), horizon=n, replicates=replicates,
                       master_seed=512, indices=NAMED_INDICES)
    summary = run_experiment(config)
    for spec in NAMED_INDICES:
        entry = moment_catalog(spec)
        mean = float(entry.mean(n, p))
        se = math.sqrt(float(entry.variance(n, p)) / replicates)
        assert abs(summary.stats[entry.key].mean - mean) <= 4 * se, entry.key


def test_config_validation_happens_before_work():
    with pytest.raises(ValueError):
        SimConfig(model=UniformLeaf(0.5), horizon=0, replicates=10,
                  master_seed=1, indices=(LEAVES,))
    with pytest.raises(ValueError):
        SimConfig(model=UniformLeaf(0.5), horizon=5, replicates=0,
                  master_seed=1, indices=(LEAVES,))
    with pytest.raises(ValueError):
        SimConfig(model=UniformLeaf(0.5), horizon=5, replicates=10,
                  master_seed=1, indices=())
    with pytest.raises(UnknownIndexError):
        SimConfig(model=UniformLeaf(0.5), horizon=5, replicates=10,
                  master_seed=1, indices=(Generic(Affine(1, -3), 2),))
    # counts are never truncated
    with pytest.raises(ValueError, match="horizon"):
        SimConfig(model=UniformLeaf(0.5), horizon=20.9, replicates=10,
                  master_seed=1, indices=(LEAVES,))
    with pytest.raises(ValueError, match="replicates"):
        SimConfig(model=UniformLeaf(0.5), horizon=20, replicates=3.7,
                  master_seed=1, indices=(LEAVES,))
    with pytest.raises(ValueError, match="master_seed"):
        SimConfig(model=UniformLeaf(0.5), horizon=20, replicates=10,
                  master_seed=1.5, indices=(LEAVES,))


def test_config_checks_table_on_every_reachable_degree():
    # at n=50 the centroid degree ranges over 3..52, not just 3
    n = 50
    short = Generic(Table.from_mapping({1: 1.0, 2: 2.0, 3: 3.0}), 1)
    with pytest.raises(UnknownIndexError, match="degree 4"):
        SimConfig(model=UniformLeaf(0.5), horizon=n, replicates=10,
                  master_seed=1, indices=(short,))
    missing_top = Generic(Table.from_mapping({d: float(d) for d in range(1, n + 2)}), 1)
    with pytest.raises(UnknownIndexError, match=f"degree {n + 2}"):
        SimConfig(model=UniformLeaf(0.5), horizon=n, replicates=10,
                  master_seed=1, indices=(missing_top,))
    full = Generic(Table.from_mapping({d: float(d) for d in range(1, n + 3)}), 1)
    config = SimConfig(model=UniformLeaf(0.5), horizon=n, replicates=300,
                       master_seed=1, indices=(full,))
    assert run_experiment(config).spot_checks == 3


def test_config_rejects_table_missing_top_degree_at_large_n(monkeypatch):
    n = 5000
    values = {d: float(d) for d in range(1, n + 2)}
    def no_replicate_may_run(*args):
        raise AssertionError("a replicate ran during config validation")

    monkeypatch.setattr(montecarlo, "block_leaf_counts", no_replicate_may_run)
    with pytest.raises(UnknownIndexError, match=f"degree {n + 2}"):
        SimConfig(model=UniformLeaf(0.5), horizon=n, replicates=10,
                  master_seed=1, indices=(Generic(Table.from_mapping(values), 1),))
    values[n + 2] = float(n + 2)
    SimConfig(model=UniformLeaf(0.5), horizon=n, replicates=10,
              master_seed=1, indices=(Generic(Table.from_mapping(values), 1),))


def test_config_rejects_a_power_sum_that_overflows_float64(monkeypatch):
    monkeypatch.setattr(montecarlo, "block_leaf_counts", lambda *a: pytest.fail("ran"))
    overflowing = [
        (GeneralizedZagreb(700), 10),        # 12.0**700 is inf at L = n + 2
        (GeneralizedZagreb(400), 1000),      # finite at L = 3, inf at L = n + 2
        (Generic(Affine(3, 0), 1000), 10),   # the int weight 3**1000 is too large for a float
        (Generic(Affine(3.0, 0), 1000), 10),  # and the float 3.0**1000 overflows
    ]
    for spec, n in overflowing:
        with pytest.raises(ValueError, match=f"{spec.name} overflows float64 at n={n}"):
            SimConfig(model=UniformLeaf(0.5), horizon=n, replicates=10, master_seed=1,
                      indices=(spec,))
    for spec, n in [(GeneralizedZagreb(-700), 10), (GeneralizedZagreb(200), 10),
                    (GeneralizedZagreb(2.5), 10**5)]:
        SimConfig(model=UniformLeaf(0.5), horizon=n, replicates=10, master_seed=1,
                  indices=(spec,))


def test_run_rejects_nonpositive_threads():
    config = SimConfig(model=UniformLeaf(0.5), horizon=5, replicates=10,
                       master_seed=1, indices=(LEAVES,))
    for threads in (0, -3):
        with pytest.raises(ValueError, match="threads"):
            run_experiment(config, threads=threads)


def test_leaf_counts_keep_every_replicate_in_order():
    # more than 10**6 replicates, every one kept, each chunk as its
    # hand-drawn stream gives it, the last chunk included
    n, p, seed, R = 3, 0.5, 7, 1_000_001
    config = SimConfig(model=UniformLeaf(p), horizon=n, replicates=R,
                       master_seed=seed, indices=(LEAVES,))
    counts = run_experiment(config).leaf_counts
    assert counts.dtype == np.int64 and counts.shape == (R,)
    for c in (0, 1, (R - 1) // CHUNK_SIZE):
        expected, _ = reference_block(RngStream(seed, c), CHUNK_SIZE, n - 1, p)
        chunk = counts[c * CHUNK_SIZE:(c + 1) * CHUNK_SIZE]
        assert np.array_equal(chunk, expected[:len(chunk)])


@pytest.mark.parametrize("seed", range(6))
def test_float_moments_match_exact_sums_over_the_same_atoms(seed):
    # Reference, with no atoms: every replicate's float64 value (the exact
    # closed form, rounded once: Gini and Hoover are the ones it rounds)
    # summed as Fractions over all R replicates; the statistics must be
    # those sums rounded once.
    n, R = 301, 3000
    real_alpha = GeneralizedZagreb(2.5)
    specs = NAMED_INDICES + (real_alpha,)
    config = SimConfig(model=UniformLeaf(0.4), horizon=n, replicates=R,
                       master_seed=seed, indices=specs)
    summary = run_experiment(config)
    leaf_counts = summary.leaf_counts.tolist()
    for spec in specs:
        if spec is real_alpha:
            xs = [Fraction(x) for x in reduced_values(spec, n, summary.leaf_counts).tolist()]
        else:
            xs = [Fraction(float(eval_reduced(n, L, spec))) for L in leaf_counts]
        mean = sum(xs) / R
        variance = sum((x - mean) ** 2 for x in xs) / (R - 1)
        stats = summary.stats[index_name(spec)]
        assert stats.mean == float(mean), spec
        assert stats.variance == float(variance), spec


def test_model_probability():
    assert UniformLeaf(0.3).centroid_probability == 0.3
    assert Preferential().centroid_probability == 0.5


# -- standardize ---------------------------------------------------------------

def test_standardize_constant_sample_is_zero():
    # at horizon 1 every tree is the seed, whose leaf count equals the center
    z = standardize(np.full(32, 3.0), LEAVES, 1, 0.5, 0.0)
    assert np.all(z == 0.0)


def test_standardize_shift_identity():
    samples = np.array([10.0, 11.0, 15.0])
    n, p = 40, 0.3
    z1 = standardize(samples, LEAVES, n, p, 1.0)
    z2 = standardize(samples, LEAVES, n, p, 9.0)
    ratio = math.sqrt((n + 9.0) / (n + 1.0))
    assert np.allclose(z1, z2 * ratio, rtol=1e-14)


def test_standardize_population_moments():
    # the numerator is exactly centered; population variance is (n-1)/(n+k)
    n, p, k, replicates = 400, 0.5, 0.0, 40_000
    config = SimConfig(model=UniformLeaf(p), horizon=n, replicates=replicates,
                       master_seed=404, indices=(LEAVES,))
    summary = run_experiment(config)
    z = standardize(reduced_values(LEAVES, n, summary.leaf_counts), LEAVES, n, p, k)
    assert abs(z.mean()) <= 4 / math.sqrt(replicates)
    expected_var = (n - 1) / (n + k)
    assert abs(z.var(ddof=1) - expected_var) <= 5 * math.sqrt(2 / replicates)


def test_standardize_requires_cataloged_normalizer():
    with pytest.raises(UnknownIndexError):
        standardize(np.ones(10), GINI, 10, 0.5)


# -- KS ------------------------------------------------------------------------

def test_ks_on_exact_normal_quantiles():
    size = 1000
    inv_cdf = NormalDist().inv_cdf
    quantiles = np.array([inv_cdf((i - 0.5) / size) for i in range(1, size + 1)])
    assert ks_normal(*np.unique(quantiles, return_counts=True)) < 0.002


def test_ks_point_mass_is_half():
    assert ks_normal(*np.unique(np.zeros(100), return_counts=True)) == pytest.approx(0.5)


def test_ks_rejects_small_samples():
    with pytest.raises(ValueError):
        ks_normal(*np.unique(np.zeros(9), return_counts=True))


def test_ks_rejects_counts_that_do_not_match_the_values():
    with pytest.raises(ValueError, match="counts"):
        ks_normal(np.array([0.0, 1.0]), np.array([10, 10, 10]))


def per_sample_ks(samples) -> float:
    """Reference: the KS distance to N(0, 1) taken sample by sample over the
    sorted sample, with Phi taken once per distinct value."""
    x = np.sort(np.asarray(samples, dtype=np.float64))
    size = len(x)
    if size < KS_MIN_SAMPLES:
        raise ValueError(f"need at least {KS_MIN_SAMPLES} samples, got {size}")
    first = np.empty(size, dtype=bool)
    first[0] = True
    np.not_equal(x[1:], x[:-1], out=first[1:])
    values = x[first]
    phi = np.fromiter(map(math.erfc, (-values / math.sqrt(2.0)).tolist()), np.float64,
                      len(values))
    cdf = (0.5 * phi)[np.cumsum(first) - 1]
    i = np.arange(1, size + 1)
    return float(max((i / size - cdf).max(), (cdf - (i - 1) / size).max()))


KS_VALUES = st.one_of(st.sampled_from([-1.5, -0.0, 0.0, 0.25, 2.0]),
                      st.floats(-6.0, 6.0, allow_nan=False))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(KS_VALUES, st.integers(0, 30)), min_size=1, max_size=25))
@example([(0.3, KS_MIN_SAMPLES)])                       # one atom, R at the minimum
@example([(0.3, KS_MIN_SAMPLES - 1)])                   # one atom, R below it
@example([(2.0, 4), (-1.0, 3), (2.0, 5), (0.5, 1)])     # unsorted, a value in two atoms
@example([(0.0, 6), (-0.0, 6)])                         # equal values, distinct atoms
def test_ks_over_atoms_equals_the_per_sample_distance(atoms):
    values = np.array([v for v, _ in atoms])
    counts = np.array([c for _, c in atoms])
    sample = np.repeat(values, counts)
    if len(sample) < KS_MIN_SAMPLES:
        with pytest.raises(ValueError):
            ks_normal(values, counts)
        with pytest.raises(ValueError):
            per_sample_ks(sample)
    else:
        assert ks_normal(values, counts).hex() == per_sample_ks(sample).hex()


def test_ks_shrinks_with_horizon():
    replicates = 4000
    distances = {}
    for n in (50, 2000):
        config = SimConfig(model=UniformLeaf(0.5), horizon=n, replicates=replicates,
                           master_seed=606, indices=(LEAVES,))
        atoms, counts = leaf_atoms(run_experiment(config).leaf_counts)
        z = standardize(reduced_values(LEAVES, n, atoms), LEAVES, n, 0.5, 0.0)
        distances[n] = ks_normal(z, counts)
    assert distances[2000] < distances[50]


# -- convergence probes ----------------------------------------------------------

def test_probe_requires_limit():
    with pytest.raises(UnknownIndexError):
        convergence_probe(LEAVES, UniformLeaf(0.5), [10], 0.1, 2, 100, 1)


def test_probe_rejects_bad_parameters():
    with pytest.raises(ValueError):
        convergence_probe(GINI, UniformLeaf(0.5), [10], -0.1, 2, 100, 1)
    with pytest.raises(ValueError):
        convergence_probe(GINI, UniformLeaf(0.5), [10], 0.1, 0, 100, 1)


def test_probe_errors_shrink_and_respect_chebyshev():
    epsilon, replicates = 0.03, 4000
    rows = convergence_probe(GINI, UniformLeaf(0.5), [200, 800], epsilon, 2,
                             replicates, master_seed=11)
    assert [row.n for row in rows] == [200, 800]
    assert all(row.limit == 0.375 for row in rows)
    assert rows[1].r_mean_error < rows[0].r_mean_error
    assert rows[1].exceedance <= rows[0].exceedance
    entry = moment_catalog(GINI)
    for row in rows:
        mean_offset = abs(float(entry.mean(row.n, 0.5)) - row.limit)
        spread = epsilon - mean_offset
        bound = float(entry.variance(row.n, 0.5)) / spread**2
        se = math.sqrt(max(bound * (1 - bound), 1.0 / replicates) / replicates)
        assert row.exceedance <= bound + 4 * se


def test_probe_hoover_preferential_limit():
    rows = convergence_probe(HOOVER, Preferential(), [300, 1200], 0.05, 1,
                             3000, master_seed=21)
    assert all(row.limit == 0.25 for row in rows)
    assert all(row.p == 0.5 for row in rows)
    assert rows[1].r_mean_error < rows[0].r_mean_error
    assert abs(rows[1].mean - 0.25) < 0.01


def test_probe_scales_generalized_zagreb():
    rows = convergence_probe(GeneralizedZagreb(3), UniformLeaf(0.5), [500], 0.05, 2,
                             2000, master_seed=5)
    assert rows[0].limit == 0.125
    assert abs(rows[0].mean - 0.125) < 0.01


def test_forgotten_probe_equals_gz3_probe():
    common = dict(n_grid=[150], epsilon=0.05, r=2.0, replicates=1500, master_seed=77)
    a = convergence_probe(FORGOTTEN, UniformLeaf(0.5), common["n_grid"], common["epsilon"],
                          common["r"], common["replicates"], common["master_seed"])
    b = convergence_probe(GeneralizedZagreb(3), UniformLeaf(0.5), common["n_grid"],
                          common["epsilon"], common["r"], common["replicates"],
                          common["master_seed"])
    assert a[0].mean == b[0].mean
    assert a[0].exceedance == b[0].exceedance


@pytest.mark.parametrize("index, model, n, r", [
    (GINI, UniformLeaf(0.4), 301, 2.0),
    (HOOVER, Preferential(), 150, 1.5),
    (GeneralizedZagreb(3), UniformLeaf(0.7), 90, 1.0),
])
def test_probe_statistics_are_exact_sums_over_every_replicate(index, model, n, r):
    # Reference, with no atoms: every replicate's float64 scaled value and
    # error summed as Fractions over all R replicates, each statistic rounded
    # once; the exceedance is the per-replicate count over R.
    epsilon, R, seed = 0.02, 1500, 13
    (row,) = convergence_probe(index, model, [n], epsilon, r, R, seed)
    config = SimConfig(model=model, horizon=n, replicates=R, master_seed=seed,
                       indices=(index,))
    entry = moment_catalog(index)
    c = float(entry.limit.constant_value(model.centroid_probability))
    scaled = (reduced_values(index, n, run_experiment(config).leaf_counts)
              / float(n) ** entry.limit.exponent)
    err = np.abs(scaled - c)
    xs = [Fraction(x) for x in scaled.tolist()]
    mean = sum(xs) / R
    assert row.mean == float(mean)
    assert row.variance == float(sum((x - mean) ** 2 for x in xs) / (R - 1))
    assert row.r_mean_error == float(sum(Fraction(e) for e in (err ** r).tolist()) / R)
    assert row.exceedance == int((err > epsilon).sum()) / R
