import math
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
from spiderlab.montecarlo import CHUNK_SIZE, KS_MIN_SAMPLES, STREAM_BLOCK
from spiderlab.tree import DRAW_PIECE, RngStream, decision_threshold

from conftest import ScriptedWords, reference_block


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
    monkeypatch.setattr(montecarlo, "POOL_MIN_WORK", 0)  # start the pool at any size
    many_chunks = SimConfig(model=UniformLeaf(0.6), horizon=80, replicates=4000,
                            master_seed=123, indices=(LEAVES, ZAGREB, GINI))
    assert many_chunks.replicates > 3 * CHUNK_SIZE
    partial_block = SimConfig(model=UniformLeaf(0.4), horizon=201, replicates=1100,
                              master_seed=11, indices=(LEAVES, ZAGREB, GINI))
    assert partial_block.replicates % STREAM_BLOCK and partial_block.replicates > CHUNK_SIZE
    half = SimConfig(model=UniformLeaf(0.5), horizon=150, replicates=3 * CHUNK_SIZE + 37,
                     master_seed=5, indices=(LEAVES, ZAGREB, GINI))  # the bit rule
    for config in (many_chunks, partial_block, half):
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


@pytest.mark.parametrize("p,flipped", [(0.5, 0), (0.4, 20), (0.4, -1)])
def test_audit_rejects_a_flipped_step_in_the_audited_schedule(monkeypatch, p, flipped):
    # The audit recounts L from the audited row's schedule, which is read
    # back apart from the popcount or byte sums that count the block.
    real = montecarlo.block_leaf_counts

    def one_step_flipped(*args):
        counts, schedules = real(*args)
        for centroid in schedules:
            if centroid is not None:
                centroid[flipped] = ~centroid[flipped]
        return counts, schedules

    monkeypatch.setattr(montecarlo, "block_leaf_counts", one_step_flipped)
    config = SimConfig(model=UniformLeaf(p), horizon=40, replicates=5,
                       master_seed=3, indices=(LEAVES,))
    with pytest.raises(RuntimeError, match="leaf-count mismatch at n=40: counted L=\\d+, "
                                           "its schedule has L=\\d+$"):
        run_experiment(config)


# -- stream contract -------------------------------------------------------------

def leaf_samples(n, p, replicates, master_seed, threads=1):
    config = SimConfig(model=UniformLeaf(p), horizon=n, replicates=replicates,
                       master_seed=master_seed, indices=(LEAVES,))
    return run_experiment(config, threads=threads).leaf_counts


@pytest.mark.parametrize("seed,i,n,p,expected", [
    (11, 0, 201, 0.4, 82),  # holds a tie its tail word resolves to a recruit
    (11, 63, 201, 0.4, 80),
    (11, 64, 201, 0.4, 80),
    (11, 1099, 201, 0.4, 94),
    (1, 6, 13, 0.3, 8),  # 12 steps, so half a word unused, and a tie resolved to a recruit
    (7, 5, 1, 0.5, 3),
    (7, 3, 2, 0.3, 4),
    (7, 4, 2, 0.3, 4),
    (7, 128, 2, 0.3, 4),
    (20250808, 3, 5000, 0.5, 2465),  # the bit rule: three blocks per piece
    (7, 65, 8 * DRAW_PIECE + 2, 0.5, 65491),  # the bit rule: rows of one block per piece
    (7, 65, 8 * DRAW_PIECE + 2, 0.4, 52250),  # the byte rule: a row longer than DRAW_PIECE words
    (7, 65, 64 * DRAW_PIECE + 2, 0.5, 524641),  # the bit rule: a row longer than DRAW_PIECE words
])
def test_golden_leaf_counts(seed, i, n, p, expected):
    assert leaf_samples(n, p, i + 1, seed)[i] == expected


def test_stream_block_divides_chunk_size():
    assert CHUNK_SIZE % STREAM_BLOCK == 0


def test_block_layout_matches_hand_drawn_streams():
    n, p, seed, replicates = 201, 0.4, 11, 130  # two full blocks and a partial one
    expected = []
    for b in range(3):
        counts, _ = reference_block(RngStream(seed, b), STREAM_BLOCK, n - 1, p)
        expected += counts.tolist()
    assert leaf_samples(n, p, replicates, seed).tolist() == expected[:replicates]
    # block 0 holds ties, so tail words are read as well
    octets = RngStream(seed, 0).words(STREAM_BLOCK * (n - 1) // 8).astype("<u8").view(np.uint8)
    assert (octets == decision_threshold(UniformLeaf(p))[0]).any()


def test_pieces_equal_a_one_shot_block_draw_at_large_n(monkeypatch):
    n, p, seed, blocks = 5000, 0.5, 3, 4
    width = -(-(n - 1) // 64)  # the bit rule's words per row
    block = STREAM_BLOCK * width
    assert 3 * block <= DRAW_PIECE < 4 * block  # the engine counts three blocks per pass
    audit_rows = [0, 36, -1, 63]
    expected, schedules = [], []
    for b, row in enumerate(audit_rows):
        counts, centroid = reference_block(RngStream(seed, b), STREAM_BLOCK, n - 1, p)
        expected.append(counts)
        schedules.append(centroid[row] if row >= 0 else None)
    assert np.array_equal(leaf_samples(n, p, blocks * STREAM_BLOCK, seed),
                          np.concatenate(expected))
    # pieces of 5 and 43 rows span two blocks; at 43 rows, row 36 of block 1 is
    # audited inside the piece of stacked rows 86..128, which spans blocks 1 and 2
    for piece in (1, width, 3 * width - 1, 5 * width, 43 * width, block, 3 * block, DRAW_PIECE,
                  blocks * block):
        monkeypatch.setattr(tree, "DRAW_PIECE", piece)
        streams = [RngStream(seed, b) for b in range(blocks)]
        counts, got = tree.block_leaf_counts(UniformLeaf(p), streams, STREAM_BLOCK, n - 1,
                                             audit_rows)
        assert np.array_equal(counts, np.stack(expected))
        for schedule, want in zip(got, schedules):
            assert (schedule is None) == (want is None)
            assert want is None or np.array_equal(schedule, want)
    stream = RngStream(seed, 0)
    pieces = [stream.words(size) for size in (DRAW_PIECE, 1, DRAW_PIECE - 1, 12345)]
    assert np.array_equal(np.concatenate(pieces),
                          RngStream(seed, 0).words(2 * DRAW_PIECE + 12345))


def block_leaf_counts_alone(model, stream, steps, audit_row):
    """One block counted by itself: its counts, its audited schedule, and
    how many tail words it drew."""
    counts, schedules = tree.block_leaf_counts(model, [stream], STREAM_BLOCK, steps, [audit_row])
    return counts[0], schedules[0], stream.draws[-1]


@pytest.mark.parametrize("n", [2, 9, 201, 5000])
def test_blocks_counted_together_equal_blocks_counted_alone(monkeypatch, n):
    model, steps, blocks = UniformLeaf(0.4), n - 1, 5
    width = -(-steps // 8)
    block = STREAM_BLOCK * width  # decision words per block
    audit_rows = [0, -1, 63, 36, 70]  # 70 is past the block: no schedule

    def scripted():
        # each block's own stream, scripted: its decision words, then ample tail words
        return [ScriptedWords(RngStream(3, b).words(block + block // 8 + 64).tolist())
                for b in range(blocks)]

    alone = [block_leaf_counts_alone(model, stream, steps, row)
             for stream, row in zip(scripted(), audit_rows)]
    for b, (counts, schedule, _) in enumerate(alone):
        want, centroid = reference_block(RngStream(3, b), STREAM_BLOCK, steps, 0.4)
        assert np.array_equal(counts, want)
        row = audit_rows[b]
        assert schedule is None if not 0 <= row < STREAM_BLOCK else np.array_equal(
            schedule, centroid[row])
    passes = []
    real_row_sums = tree._row_sums
    monkeypatch.setattr(tree, "_row_sums", lambda *args: passes.append(1) or real_row_sums(*args))
    # Each block's decision draws, in rows, at one block per piece, three, a
    # single word (so one row at a time), and 5 and 43 rows, whose pieces span
    # two blocks: row 63 of block 2, stacked row 191, is audited inside the
    # piece of stacked rows 190..194, and of 172..214.
    five = [5] * 12
    for piece, decision_rows, pieces in (
            (block, [[STREAM_BLOCK]] * blocks, blocks),
            (3 * block, [[STREAM_BLOCK]] * blocks, 2),
            (1, [[1] * STREAM_BLOCK] * blocks, blocks * STREAM_BLOCK),
            (5 * width, [five + [4], [1] + five + [3], [2] + five + [2], [3] + five + [1],
                         [4] + five], 64),
            (43 * width, [[43, 21], [22, 42], [1, 43, 20], [23, 41], [2, 43, 19]], 8)):
        monkeypatch.setattr(tree, "DRAW_PIECE", piece)
        streams = scripted()
        passes.clear()
        counts, schedules = tree.block_leaf_counts(model, streams, STREAM_BLOCK, steps,
                                                   audit_rows)
        assert len(passes) == 2 * pieces  # below and at A, once per piece
        assert counts.shape == (blocks, STREAM_BLOCK)
        for b, (want_counts, want_schedule, ties) in enumerate(alone):
            assert np.array_equal(counts[b], want_counts)
            assert (schedules[b] is None) == (want_schedule is None)
            if want_schedule is not None:
                assert np.array_equal(schedules[b], want_schedule)
            assert streams[b].draws == [rows * width for rows in decision_rows[b]] + [ties]
    # the engine over a partial last block, at each piece size
    replicates = (blocks - 1) * STREAM_BLOCK + 17
    expected = np.concatenate([alone[b][0] for b in range(blocks)])[:replicates]
    for piece in (block, 3 * block, 1, 5 * width, 43 * width, DRAW_PIECE):
        monkeypatch.setattr(tree, "DRAW_PIECE", piece)
        assert np.array_equal(leaf_samples(n, 0.4, replicates, 3), expected)


@pytest.mark.parametrize("p", [0.4, 0.5])
def test_an_audited_block_draws_its_decision_and_tail_words_only(monkeypatch, p):
    n, seed, replicates = 50, 5, 130  # replicates 0 and 100 are audited, in blocks 0 and 1
    made = []

    class Recording(RngStream):
        def __init__(self, *args):
            super().__init__(*args)
            self.draws = []
            made.append(self)

        def doubles(self, count):
            self.draws.append(("doubles", count))
            return super().doubles(count)

        def words(self, count):
            self.draws.append(("words", count))
            return super().words(count)

    monkeypatch.setattr(montecarlo, "RngStream", Recording)
    leaf_samples(n, p, replicates, seed)
    assert [(s.master_seed, s.stream_index) for s in made] == [(seed, b) for b in range(3)]
    for stream in made:
        assert {kind for kind, _ in stream.draws} == {"words"}
        # a fresh stream that has yielded the block's decision and tail words
        # is where the engine's stream was left
        reference = RngStream(seed, stream.stream_index)
        reference_block(reference, STREAM_BLOCK, n - 1, p)
        assert stream.words(4).tolist() == reference.words(4).tolist()


def test_first_replicates_do_not_depend_on_the_replicate_count():
    short = leaf_samples(201, 0.4, 100, 11)
    long = leaf_samples(201, 0.4, 1100, 11)
    assert np.array_equal(short, long[:100])


def test_pool_starts_only_above_the_work_threshold(monkeypatch):
    started = []
    real = montecarlo.ProcessPoolExecutor

    def spy(max_workers):
        started.append(max_workers)
        return real(max_workers=max_workers)

    def shape(n, replicates, p=0.4):
        return SimConfig(model=UniformLeaf(p), horizon=n, replicates=replicates,
                         master_seed=11, indices=(LEAVES, GINI))

    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", spy)
    # the clt example's shape: counted serially under the bit rule, pooled at p = 0.4
    assert not montecarlo._pool_pays(shape(5000, 20_000, 0.5), 2)
    assert montecarlo._pool_pays(shape(5000, 20_000), 2)
    assert montecarlo._pool_pays(shape(5000, 50_000, 0.5), 2)
    assert not montecarlo._pool_pays(shape(5000, 20_000), 1)
    # chunks of 1024 and 76: a second worker could take only the 76
    assert not montecarlo._pool_pays(shape(5001, 1100), 2)
    assert not montecarlo._pool_pays(shape(5001, 1100), 3)
    assert not montecarlo._pool_pays(shape(201, 2000), 2)
    threshold = montecarlo.POOL_MIN_WORK
    for config in (shape(201, 2000), shape(5001, 1100), shape(5000, 20_000, 0.5)):
        started.clear()
        serial = run_experiment(config, threads=1)
        below = run_experiment(config, threads=2)
        assert started == []
        monkeypatch.setattr(montecarlo, "POOL_MIN_WORK", 0)
        above = run_experiment(config, threads=2)
        monkeypatch.setattr(montecarlo, "POOL_MIN_WORK", threshold)
        assert started == [2]
        for run in (below, above):
            assert run.to_json_str() == serial.to_json_str()
            assert np.array_equal(run.leaf_counts, serial.leaf_counts)


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
    # more than 10**6 replicates, every one kept, each block as its
    # hand-drawn stream gives it, the last block included
    n, p, seed, R = 3, 0.5, 7, 1_000_001
    config = SimConfig(model=UniformLeaf(p), horizon=n, replicates=R,
                       master_seed=seed, indices=(LEAVES,))
    counts = run_experiment(config).leaf_counts
    assert counts.dtype == np.int64 and counts.shape == (R,)
    for b in (0, 1, (R - 1) // STREAM_BLOCK):
        expected, _ = reference_block(RngStream(seed, b), STREAM_BLOCK, n - 1, p)
        block = counts[b * STREAM_BLOCK:(b + 1) * STREAM_BLOCK]
        assert np.array_equal(block, expected[:len(block)])


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
