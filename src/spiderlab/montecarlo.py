"""Parallel Monte Carlo experiments over random spider trees.

Every index is a function of the time n and the leaf count L alone, and L
is 3 plus the number of centroid recruits among the n - 1 growth steps, so
the engine does not grow trees: it draws each replicate's centroid
decisions, one random byte per step plus a tail word for the 1 in 256
steps that tie (the exact byte rule of ``tree.block_leaf_counts``), or one
random bit per step at p = 1/2 (its bit rule, for ``Preferential`` too),
counts the recruits, then evaluates the closed forms on the counted L.

Streams.  Replicates are laid out in fixed blocks of STREAM_BLOCK = 64:
replicate i is row i % 64 of block b = i // 64, and block b draws from the
one stream ``RngStream(master_seed, b)``.  That stream yields, in order,
the decision words of all 64 rows (ceil((n - 1) / 8) raw words per row,
one byte per step, in replicate order; ceil((n - 1) / 64) words, one bit
per step, under the bit rule), then one tail word per tie in row-major
order (none under the bit rule), and nothing more, audited or not.  The
whole block is drawn even where the run ends inside it.  A replicate's L
and its audit therefore depend only on (master_seed, i, n, model): not on
the replicate count, the worker count or the order workers finish in.

Result.  A run's only random output is one integer per replicate, so
``SampleSummary.leaf_counts`` holds every replicate's L, in replicate
order.  Every number is read off its atoms, the distinct L and their
counts (``leaf_atoms``): an index is evaluated once per atom, and the
summary keeps those values; its mean and sample variance are exact atom
sums rounded once (``atom_stats``), and ``ks_normal`` walks the same atoms,
so all depend only on the multiset of L.

Audit.  Replicates whose index is a multiple of SPOT_CHECK_STRIDE are
audited; a block holds at most one.  Its centroid schedule, which
``block_leaf_counts`` reads back from its words apart from the popcount or
byte sums that count it, is recounted: 3 plus its recruits must equal the
counted L.  Every index is then evaluated by its definition on the degree
multiset of that (n, L) (``tree.spider_degrees``) and compared with the
atom value the statistics use at that L.  No tree is grown: an index reads
nothing of a tree but its degree multiset.

Work.  Replicates are counted in chunks of CHUNK_SIZE (a multiple of
STREAM_BLOCK, so no block straddles two chunks).  A chunk keys its block
streams and hands them to ``block_leaf_counts`` together, which stacks
their rows and counts them in pieces of about ``tree.DRAW_PIECE`` words,
so small-n blocks are not each bound by numpy call overhead; the piece
size bounds memory and is not part of the contract.  Chunks go to
a process pool only when that takes at least POOL_MIN_WORK off the
busiest worker, a replicate counting as REPLICATE_WORK plus its n - 1
steps, each weighed by what it costs a serial run under its rule (one
unit under the byte rule, BIT_STEP_WORK under the bit rule); below that,
starting the pool costs more than it saves.  The result is the same
either way.  A command that runs several horizons shares one
``Workers``: its pool starts at the first run that pays for it and shuts
down when the command ends, so the command pays the start at most once.
"""

from __future__ import annotations

import json
import math
import numbers
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import compress
from typing import Sequence

import numpy as np

from .analytics import exact_mean_variance, moment_catalog
from .indices import (Generic, Identity, IndexSpec, UnknownIndexError, check_positive,
                      eval_direct, reduced_values)
from .tree import (ONE_BIT, GrowthModel, RngStream, block_leaf_counts, decision_threshold,
                   spider_degrees)
from .tree import grow_legs  # noqa: F401  unused, but bench/run.py --trace 1 rebinds it here

__all__ = [
    "SimConfig",
    "IndexStats",
    "SampleSummary",
    "Workers",
    "run_experiment",
    "leaf_atoms",
    "atom_stats",
    "standardize",
    "ks_normal",
    "ProbeRow",
    "convergence_probe",
]

CHUNK_SIZE = 1024          # replicates per worker task
STREAM_BLOCK = 64          # replicates per random stream; divides CHUNK_SIZE
POOL_MIN_WORK = 24_000_000  # work the pool must take off the busiest worker to pay for its start
REPLICATE_WORK = 600       # a replicate's work besides its n - 1 steps, in byte-rule steps
BIT_STEP_WORK = 0.28       # a bit-rule step's work, in byte-rule steps
SPOT_CHECK_STRIDE = 100    # deterministic 1% direct-evaluation audit
DIRECT_CHECK_RTOL = 1e-12
KS_MIN_SAMPLES = 10        # smallest replicate count ks_normal accepts


@dataclass(frozen=True)
class SimConfig:
    """One experiment: grow ``replicates`` trees to time ``horizon`` and
    evaluate ``indices`` on each."""

    model: GrowthModel
    horizon: int
    replicates: int
    master_seed: int
    indices: tuple[IndexSpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "indices", tuple(self.indices))
        for field in ("horizon", "replicates", "master_seed"):
            value = getattr(self, field)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{field} must be an integer, got {value!r}")
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        if self.replicates < 1:
            raise ValueError(f"replicates must be >= 1, got {self.replicates}")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be non-negative, got {self.master_seed}")
        if not self.indices:
            raise ValueError("at least one index is required")
        for spec in self.indices:
            if isinstance(spec, Generic):  # a power sum, generalized Zagreb included
                # Surface bad degree functions before any replicate runs: leaves
                # have degree 1, internal nodes 2, the centroid 3..horizon+2.
                if not isinstance(spec.h, Identity):  # positive on every degree
                    check_positive(spec.h, range(1, self.horizon + 3))
                if _overflows(spec, self.horizon):
                    raise ValueError(f"index {spec.name} overflows float64 at n={self.horizon}")

    def to_json(self) -> dict:
        return {
            "model": self.model.name,
            "horizon": self.horizon,
            "replicates": self.replicates,
            "master_seed": self.master_seed,
            "indices": [spec.name for spec in self.indices],
        }


def _overflows(spec: IndexSpec, n: int) -> bool:
    """Whether a power sum's float64 value at L = 3 or L = n + 2 is not finite."""
    try:
        with np.errstate(over="ignore"):
            return not np.isfinite(reduced_values(spec, n, [3, n + 2])).all()
    except OverflowError:  # a weight too large for a float
        return True


@dataclass
class IndexStats:
    """Mean and sample variance of one index over the replicates."""

    count: int
    mean: float
    variance: float


@dataclass
class SampleSummary:
    """Result of ``run_experiment``.

    ``leaf_counts`` holds every replicate's leaf count L (int64, in
    replicate order, never thinned), the run's only random output.  Its
    atoms are ``atoms`` and ``atom_counts`` (``leaf_atoms``), and
    ``atom_values`` holds each index's float64 value per atom, in
    ``config.indices`` order; ``stats`` are read off them, and
    ``spot_checks`` counts the audited replicates.
    """

    config: SimConfig
    leaf_counts: np.ndarray
    atoms: np.ndarray
    atom_counts: list[int]
    atom_values: list[np.ndarray]
    stats: dict[str, IndexStats]
    spot_checks: int

    def to_json(self) -> dict:
        return {
            "config": self.config.to_json(),
            "stats": {
                key: {"count": s.count, "mean": s.mean, "variance": s.variance}
                for key, s in self.stats.items()
            },
            "spot_checks": self.spot_checks,
        }

    def to_json_str(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, indent=2) + "\n"


def _chunk_worker(args) -> tuple:
    """Replicates ``start..stop-1``: their leaf counts, and for each audited
    replicate its id and the direct value of every index at its (n, L).

    ``start`` is a multiple of STREAM_BLOCK; the chunk's blocks are counted
    together by ``block_leaf_counts``, each from its own stream, and each
    audited replicate's L is recounted from the centroid schedule it returns.
    """
    config, start, stop = args
    model, steps, seed = config.model, config.horizon - 1, config.master_seed
    firsts = range(start, stop, STREAM_BLOCK)
    streams = [RngStream(seed, first // STREAM_BLOCK) for first in firsts]
    audit_rows = []
    for first in firsts:
        row = -first % SPOT_CHECK_STRIDE  # row of the block's multiple of the stride
        audit_rows.append(row if row < min(STREAM_BLOCK, stop - first) else -1)
    # A block is drawn whole even where the run ends inside it, so no
    # replicate's draws depend on the replicate count.
    counts, schedules = block_leaf_counts(model, streams, STREAM_BLOCK, steps, audit_rows)
    audits = []
    for first, row, centroid, block in zip(firsts, audit_rows, schedules, counts):
        if centroid is None:
            continue
        L = 3 + int(np.count_nonzero(centroid))
        if L != block[row]:
            raise RuntimeError(f"leaf-count mismatch at n={config.horizon}: counted "
                               f"L={int(block[row])}, its schedule has L={L}")
        degrees = spider_degrees(config.horizon, L)
        audits.append((first + row, [float(eval_direct(degrees, config.horizon, spec))
                                     for spec in config.indices]))
    return counts.reshape(-1)[:stop - start], audits


def _pool_pays(config: SimConfig, threads: int) -> bool:
    """Whether ``threads`` workers take at least POOL_MIN_WORK off the one
    that runs the most chunks, ceil(chunks / threads) of them.  A replicate
    counts as REPLICATE_WORK plus its n - 1 growth steps, each one unit
    under the byte rule and BIT_STEP_WORK under the bit rule (p = 1/2), the
    serial costs measured while the audit still regrew trees (kept: see
    BENCH_audit_recount.json's pool table)."""
    R = config.replicates
    chunks = -(-R // CHUNK_SIZE)
    busiest = min(R, -(-chunks // threads) * CHUNK_SIZE)
    step = BIT_STEP_WORK if decision_threshold(config.model) == ONE_BIT else 1
    return (R - busiest) * ((config.horizon - 1) * step + REPLICATE_WORK) >= POOL_MIN_WORK


class Workers:
    """The ``threads`` worker processes of one command, shared by its runs.

    The process pool starts at the first run it pays for (``_pool_pays``),
    not before, and every later run of the command reuses it; leaving the
    ``with`` block shuts it down.  A run the pool does not pay for is
    counted in this process.
    """

    def __init__(self, threads: int):
        if threads < 1:
            raise ValueError(f"threads must be >= 1, got {threads}")
        self.threads = threads
        self._pool = None

    def map_chunks(self, config: SimConfig, tasks: list) -> list:
        """``_chunk_worker`` over ``tasks``, in order."""
        if self.threads > 1 and len(tasks) > 1 and _pool_pays(config, self.threads):
            if self._pool is None:
                self._pool = ProcessPoolExecutor(max_workers=self.threads)
            return list(self._pool.map(_chunk_worker, tasks, chunksize=1))
        return [_chunk_worker(t) for t in tasks]

    def __enter__(self) -> Workers:
        return self

    def __exit__(self, *exc) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None


def run_experiment(config: SimConfig, threads: int = 1,
                   workers: Workers | None = None) -> SampleSummary:
    """Run the experiment described by ``config``.

    ``threads`` > 1 distributes replicate chunks over worker processes
    when that takes at least POOL_MIN_WORK off the busiest worker; the
    result is identical either way.  A command that runs several
    experiments passes its ``Workers`` instead, so they share one pool.

    Each index is evaluated once per distinct leaf count, and its
    statistics are ``atom_stats`` over those float64 atom values.
    """
    if workers is None:
        with Workers(threads) as workers:
            return run_experiment(config, workers=workers)
    R, n = config.replicates, config.horizon
    tasks = [(config, start, min(start + CHUNK_SIZE, R)) for start in range(0, R, CHUNK_SIZE)]
    results = workers.map_chunks(config, tasks)
    leaf_counts = np.concatenate([counts for counts, _ in results])
    audits = [audit for _, chunk in results for audit in chunk]

    atoms, counts = leaf_atoms(leaf_counts)
    values = [reduced_values(spec, n, atoms) for spec in config.indices]
    audited, direct = map(np.array, zip(*audits))  # replicate 0 is always audited
    reduced = np.column_stack(values)[np.searchsorted(atoms, leaf_counts[audited])]
    mismatches = direct_mismatches(direct, reduced)
    if mismatches:
        k, j = mismatches[0]
        raise RuntimeError(f"direct/reduced mismatch for {config.indices[j].name} at n={n}, "
                           f"L={int(leaf_counts[audited[k]])}: direct={float(direct[k, j])!r} "
                           f"reduced={float(reduced[k, j])!r}")
    stats = {spec.name: atom_stats(counts, v) for spec, v in zip(config.indices, values)}
    return SampleSummary(config=config, leaf_counts=leaf_counts, atoms=atoms,
                         atom_counts=counts, atom_values=values, stats=stats,
                         spot_checks=len(audits))


def direct_mismatches(direct: np.ndarray, reduced: np.ndarray) -> list[list[int]]:
    """Every ``[row, column]``, in row-major order, where ``direct`` and
    ``reduced`` differ by more than DIRECT_CHECK_RTOL * max(1, |reduced|):
    the engine audit's check, which ``verify.direct_reduced_suite`` shares."""
    bad = np.abs(direct - reduced) > DIRECT_CHECK_RTOL * np.maximum(1.0, np.abs(reduced))
    return np.argwhere(bad).tolist()


def leaf_atoms(leaf_counts: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """The atoms of a run's leaf counts: the distinct L, ascending (int64),
    and how many replicates hold each, as ints for exact sums."""
    counts = np.bincount(leaf_counts - 3)
    support = np.flatnonzero(counts)  # the distinct L - 3, ascending
    return support + 3, counts[support].tolist()


def atom_stats(counts: list[int], values: np.ndarray) -> IndexStats:
    """Mean and sample variance (ddof 1; 0.0 at R = 1) of the sample that
    holds ``values[i]`` ``counts[i]`` times, R = sum(counts): exact sums over
    the atoms (``analytics.exact_mean_variance``), each rounded once."""
    R = sum(counts)
    mean, variance = exact_mean_variance(counts, values.tolist())
    return IndexStats(count=R, mean=float(mean),
                      variance=float(variance * R / (R - 1)) if R > 1 else 0.0)


def standardize(samples, index: IndexSpec, n: int, p, k: float = 0.0) -> np.ndarray:
    """Apply the index's cataloged CLT normalizer elementwise:
    (x - center(n, p)) / scale(n, p, k)."""
    entry = moment_catalog(index)
    if entry.clt is None:
        raise UnknownIndexError(f"no CLT normalizer cataloged for index {entry.key!r}")
    x = np.asarray(samples, dtype=np.float64)
    center = float(entry.clt.center(n, p))
    scale = entry.clt.scale_value(n, p, k)
    return (x - center) / scale


def ks_normal(values, counts) -> float:
    """Two-sided Kolmogorov-Smirnov distance between the standard normal and
    the sample that holds ``values[i]`` ``counts[i]`` times, R = sum(counts)
    in all: a run's atoms, or a sample as ``np.unique(z, return_counts=True)``.

    Over the atoms in value order, D+ = max(cum / R - Phi(v)) and D- =
    max(Phi(v) - (cum - count) / R), cum the running count; equal values in
    distinct atoms need no merging, as among them D+ peaks at the last atom
    and D- at the first.  Phi(x) = erfc(-x / sqrt(2)) / 2, once per atom, is
    within 2.2e-16 absolute of ``scipy.special.ndtr`` on 1.1e6 points (a grid
    over [-40, 10] and 5e5 draws of 3 N(0, 1))."""
    values = np.asarray(values, dtype=np.float64)
    counts = np.asarray(counts, dtype=np.int64)
    if values.shape != counts.shape:
        raise ValueError(f"{values.shape} values but {counts.shape} counts")
    size = int(counts.sum())
    if size < KS_MIN_SAMPLES:
        raise ValueError(f"need at least {KS_MIN_SAMPLES} samples for a KS diagnostic, got {size}")
    order = np.argsort(values, kind="stable")
    x, held = values[order], counts[order]
    cum = np.cumsum(held)
    cdf = 0.5 * np.fromiter(map(math.erfc, (-x / math.sqrt(2.0)).tolist()), np.float64, len(x))
    d_plus = (cum / size - cdf).max()
    d_minus = (cdf - (cum - held) / size).max()
    return float(max(d_plus, d_minus))


@dataclass
class ProbeRow:
    """Per-horizon convergence diagnostics for one scaled index."""

    index: str
    n: int
    p: float
    mean: float
    variance: float
    exceedance: float
    r_mean_error: float
    limit: float


def convergence_probe(
    index: IndexSpec,
    model: GrowthModel,
    n_grid: Sequence[int],
    epsilon: float,
    r: float,
    replicates: int,
    master_seed: int,
    threads: int = 1,
) -> list[ProbeRow]:
    """Empirical convergence diagnostics toward the cataloged limit.

    For each horizon n the index is scaled by n**exponent and compared to
    the limit constant c(p): the exceedance P(|scaled - c| > epsilon) and
    the r-mean error E|scaled - c|**r are estimated from ``replicates``
    grown trees, as ``atom_stats`` means and a count over R of the run's
    atoms.  Both sequences should shrink along the grid.
    """
    entry = moment_catalog(index)
    if entry.limit is None:
        raise UnknownIndexError(f"no limit constant cataloged for index {entry.key!r}")
    if not (0 < epsilon < math.inf and 0 < r < math.inf):
        raise ValueError("epsilon and r must be positive and finite")
    p = model.centroid_probability
    c = float(entry.limit.constant_value(p))
    exponent = entry.limit.exponent
    rows = []
    with Workers(threads) as workers:
        for n in n_grid:
            config = SimConfig(model=model, horizon=n, replicates=replicates,
                               master_seed=master_seed, indices=(index,))
            summary = run_experiment(config, workers=workers)
            counts = summary.atom_counts
            scaled = summary.atom_values[0] / float(n) ** exponent
            err = np.abs(scaled - c)
            stats = atom_stats(counts, scaled)
            rows.append(ProbeRow(
                index=index.name,
                n=n,
                p=p,
                mean=stats.mean,
                variance=stats.variance,
                exceedance=sum(compress(counts, err > epsilon)) / replicates,
                r_mean_error=atom_stats(counts, err ** r).mean,
                limit=c,
            ))
    return rows
