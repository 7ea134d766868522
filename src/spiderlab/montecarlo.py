"""Parallel Monte Carlo experiments over random spider trees.

Every index is a function of the time n and the leaf count L alone, and L
is 3 plus the number of centroid recruits among the n - 1 growth steps, so
the engine does not grow trees: it draws each replicate's centroid
decisions, one random byte per step plus a tail word for the 1 in 256
steps that tie (the exact byte rule of ``tree.block_leaf_counts``), or one
random bit per step at p = 1/2 (its bit rule, for ``Preferential`` too),
counts the recruits, then evaluates the closed forms on the counted L.

Streams.  Replicates are laid out in fixed chunks of CHUNK_SIZE = 1024:
replicate i is row i % 1024 of chunk c = i // 1024, and chunk c draws from
the one stream ``RngStream(master_seed, c)``.  That stream yields, in
order, the decision words of all 1024 rows (ceil((n - 1) / 8) raw words per
row, one byte per step, in replicate order; ceil((n - 1) / 64) words, one
bit per step, under the bit rule), then one tail word per tie in row-major
order (none under the bit rule), and nothing more, audited or not.  A
chunk where the run ends keeps that layout but draws only the rows below
the replicate count: under the byte rule its stream skips the other rows'
decision words (``RngStream.advance``) before the counted rows' tail
words, which come first.  A replicate's L and
its audit therefore depend only on (master_seed, i, n, model): not on the
replicate count, the process count or the order processes finish in.  Keying
a stream costs 12-20 us on a 2-core x86-64 host, so one key per chunk
keeps it a small share of any run.

Result.  A run's only random output is one integer per replicate, so
``SampleSummary.leaf_counts`` holds every replicate's L, in replicate
order.  Every number is read off its atoms, the distinct L and their
counts (``leaf_atoms``): an index is evaluated once per atom, and the
summary keeps those values; its mean and sample variance are exact atom
sums rounded once (``atom_stats``), and ``ks_normal`` walks the same atoms,
so all depend only on the multiset of L.

Audit.  Replicates whose index is a multiple of SPOT_CHECK_STRIDE are
audited; a chunk holds ten or eleven.  Each one's centroid schedule, which
``block_leaf_counts`` reads back from its words apart from the popcount or
byte sums that count it, is recounted: 3 plus its recruits must equal the
counted L.  The schedules come back as one (k, steps) bool array in the
order of the audited rows.  Every index is then evaluated by its
definition on the degree multiset of that (n, L) (``tree.spider_degrees``)
and compared with the atom value the statistics use at that L.  No tree is
grown: an index reads nothing of a tree but its degree multiset.

Work.  A chunk is one ``_chunk_worker`` call: ``block_leaf_counts`` counts
its rows from its one stream in pieces of about ``tree.DRAW_PIECE`` words, so
small-n rows are not each bound by numpy call overhead; the piece size
bounds memory and is not part of the contract.  With ``threads`` > 1 the
chunks are cut, in order, into batches of ceil(chunks / T), T the lesser
of ``threads`` and the CPUs the process may run on (``_cpus``), and each
batch after the first runs in a child forked for it (``_Forked``) while
this process runs the first; the children's results are appended in chunk
order.  A run forks only where ``os.fork`` exists, and only when that takes
at least POOL_MIN_WORK off the busiest process, a replicate counting as
REPLICATE_WORK plus its n - 1 steps, each weighed by what it costs a
serial run under its rule (one unit under the byte rule, BIT_STEP_WORK
under the bit rule); below that, the split costs more than it saves.  The
result is the same either way.  A child takes about 2 ms to fork and reap
(2-core x86-64), so no process is kept beyond the run that forked it.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import pickle
from dataclasses import dataclass
from itertools import compress
from typing import Sequence

import numpy as np

from .analytics import integer_scaled, moment_catalog, scaled_moments
from .indices import (Generic, Identity, IndexSpec, UnknownIndexError, check_positive,
                      eval_direct, reduced_values)
from .tree import (ONE_BIT, GrowthModel, RngStream, block_leaf_counts, decision_threshold,
                   spider_degrees)
from .tree import grow_legs  # noqa: F401  unused, but bench/run.py --trace 1 rebinds it here

__all__ = [
    "SimConfig",
    "IndexStats",
    "SampleSummary",
    "run_experiment",
    "leaf_atoms",
    "atom_stats",
    "standardize",
    "ks_normal",
    "ProbeRow",
    "convergence_probe",
]

CHUNK_SIZE = 1024          # replicates per _chunk_worker call, and per random stream
POOL_MIN_WORK = 30_000_000  # work a split must take off the busiest process to pay for itself
REPLICATE_WORK = 260       # a replicate's work besides its n - 1 steps, in byte-rule steps
BIT_STEP_WORK = 0.08       # a bit-rule step's work, in byte-rule steps
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
        if self.horizon > 1 << 32 and decision_threshold(self.model) == ONE_BIT:
            raise ValueError(f"horizon must be <= 2**32 at p = 1/2, whose bit rule counts "
                             f"in uint32 lanes, got {self.horizon}")
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
    replicate, in order, the direct value of every index at its (n, L).

    ``start`` is a multiple of CHUNK_SIZE; the chunk's rows below ``stop``
    are counted by ``block_leaf_counts`` from its one stream, laid out as a
    whole chunk's, and each audited replicate's L is recounted from the
    centroid schedule it returns.
    """
    config, start, stop = args
    n = config.horizon
    stream = RngStream(config.master_seed, start // CHUNK_SIZE)
    audit_rows = range(-start % SPOT_CHECK_STRIDE, stop - start, SPOT_CHECK_STRIDE)
    # The layout is the whole chunk's even where the run ends inside it, so
    # no replicate's draws depend on the replicate count.
    counts, schedules = block_leaf_counts(config.model, stream, CHUNK_SIZE, n - 1, audit_rows,
                                          stop - start)
    audits = []
    for row, centroid in zip(audit_rows, schedules):
        L = 3 + int(np.count_nonzero(centroid))
        if L != counts[row]:
            raise RuntimeError(f"leaf-count mismatch at n={n}: counted "
                               f"L={int(counts[row])}, its schedule has L={L}")
        degrees = spider_degrees(n, L)
        audits.append([float(eval_direct(degrees, n, spec)) for spec in config.indices])
    return counts, audits


def _pool_pays(config: SimConfig, threads: int) -> bool:
    """Whether ``threads`` processes take at least POOL_MIN_WORK off the one
    that runs the most chunks, ceil(chunks / threads) of them.  A replicate
    counts as REPLICATE_WORK plus its n - 1 growth steps, each one unit
    under the byte rule and BIT_STEP_WORK under the bit rule (p = 1/2), the
    serial costs of a run (BENCH_chunk_streams.json's fit); POOL_MIN_WORK
    is fitted to its forced-pool table, whose pool cost more to start than
    a fork does."""
    R = config.replicates
    chunks = -(-R // CHUNK_SIZE)
    busiest = min(R, -(-chunks // threads) * CHUNK_SIZE)
    step = BIT_STEP_WORK if decision_threshold(config.model) == ONE_BIT else 1
    return (R - busiest) * ((config.horizon - 1) * step + REPLICATE_WORK) >= POOL_MIN_WORK


def _cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _Forked:
    """``fn(arg)`` running in a child made by ``os.fork``.

    The child sends back ``fn``'s result, or the exception it raised,
    pickled through a pipe, and always leaves by ``os._exit``: it never
    returns into the caller's stack and runs no atexit hook or stdio
    flush.  ``result`` reaps it; ``close`` kills and reaps it if it has not
    been reaped, and closes the pipe.  The fork is safe although numpy's
    OpenBLAS may have started threads (Python 3.12 and later warn of a fork
    in a threaded process): each ``fn`` the package forks, a batch of
    chunks or ``verify``'s reachable-pairs suite, does elementwise numpy and
    integer work only, makes no BLAS call, and takes no lock that those
    threads hold."""

    def __init__(self, fn, arg):
        self._name = fn.__name__
        self._read, write = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            os.close(self._read)
            os.close(write)
            raise
        if self.pid == 0:
            status = 1  # no result, unless the whole pickle is written
            try:
                os.close(self._read)
                try:
                    outcome = (True, fn(arg))
                except Exception as exc:
                    outcome = (False, exc)
                data = pickle.dumps(outcome)
                with open(write, "wb") as pipe:
                    pipe.write(data)
                status = 0
            finally:
                os._exit(status)
        os.close(write)

    def result(self):
        """``fn``'s result once the child has exited; re-raises ``fn``'s
        exception, and raises ``RuntimeError`` for a child that ended
        without a result."""
        with open(self._read, "rb", closefd=False) as pipe:
            data = pipe.read()  # to EOF: the child may block on a full pipe until read
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        code = os.waitstatus_to_exitcode(status)
        if code or not data:
            how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
            raise RuntimeError(f"the {self._name} child process {how} without a result")
        ok, value = pickle.loads(data)
        if not ok:
            raise value
        return value

    def close(self) -> None:
        if self.pid is not None:
            from signal import SIGKILL  # only on an error path
            os.kill(self.pid, SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None
        os.close(self._read)


def _count_chunks(tasks: list) -> list:
    """``_chunk_worker`` over ``tasks``, in order: one process's batch."""
    return [_chunk_worker(task) for task in tasks]


def run_experiment(config: SimConfig, threads: int = 1) -> SampleSummary:
    """Run the experiment described by ``config``.

    ``threads`` > 1 cuts the replicate chunks, in order, into batches of
    ceil(chunks / T), T = min(threads, ``_cpus()``), when that takes at
    least POOL_MIN_WORK off the busiest process (``_pool_pays``) and
    ``os.fork`` exists: each batch after the first is counted in a child
    forked for it (``_Forked``) while this process counts the first, and
    the results are appended in chunk order, so the result is identical
    either way.  A child's exception is raised here unchanged; on any
    exception here, a failed fork included, every child forked so far is
    killed, and each is reaped on every path.

    Each index is evaluated once per distinct leaf count, and its
    statistics are ``atom_stats`` over those float64 atom values.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    R, n = config.replicates, config.horizon
    tasks = [(config, start, min(start + CHUNK_SIZE, R)) for start in range(0, R, CHUNK_SIZE)]
    size = len(tasks)  # one batch, counted here, unless a split pays
    if threads > 1 and size > 1 and hasattr(os, "fork"):
        threads = min(threads, _cpus())  # no more batches than CPUs to count them
        if threads > 1 and _pool_pays(config, threads):
            size = -(-size // threads)
    children = []
    try:
        for first in range(size, len(tasks), size):
            children.append(_Forked(_count_chunks, tasks[first:first + size]))
        results = _count_chunks(tasks[:size])
        for child in children:
            results += child.result()
    finally:
        for child in children:
            child.close()
    leaf_counts = np.concatenate([counts for counts, _ in results])
    direct = np.array([row for _, rows in results for row in rows])  # replicate 0 is audited

    atoms, counts = leaf_atoms(leaf_counts)
    values = [reduced_values(spec, n, atoms) for spec in config.indices]
    L = leaf_counts[::SPOT_CHECK_STRIDE]
    reduced = np.column_stack(values)[np.searchsorted(atoms, L)]
    mismatches = direct_mismatches(direct, reduced)
    if mismatches:
        k, j = mismatches[0]
        raise RuntimeError(f"direct/reduced mismatch for {config.indices[j].name} at n={n}, "
                           f"L={int(L[k])}: direct={float(direct[k, j])!r} "
                           f"reduced={float(reduced[k, j])!r}")
    stats = {spec.name: atom_stats(counts, v) for spec, v in zip(config.indices, values)}
    return SampleSummary(config=config, leaf_counts=leaf_counts, atoms=atoms,
                         atom_counts=counts, atom_values=values, stats=stats,
                         spot_checks=len(L))


def direct_mismatches(direct: np.ndarray, reduced: np.ndarray) -> list[list[int]]:
    """Every ``[row, column]``, in row-major order, where ``direct`` and
    ``reduced`` differ by more than DIRECT_CHECK_RTOL * max(1, |reduced|):
    the engine audit's check, which ``verify``'s direct-vs-reduced suites share.
    Only the entries that differ at all are weighed, as most are equal."""
    rows, cols = np.nonzero(direct != reduced)
    d, r = direct[rows, cols], reduced[rows, cols]
    bad = np.abs(d - r) > DIRECT_CHECK_RTOL * np.maximum(1.0, np.abs(r))
    return np.column_stack([rows[bad], cols[bad]]).tolist()


def leaf_atoms(leaf_counts: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """The atoms of a run's leaf counts: the distinct L, ascending (int64),
    and how many replicates hold each, as ints for exact sums."""
    counts = np.bincount(leaf_counts - 3)
    support = np.flatnonzero(counts)  # the distinct L - 3, ascending
    return support + 3, counts[support].tolist()


def atom_stats(counts: list[int], values: np.ndarray) -> IndexStats:
    """Mean and sample variance (ddof 1; 0.0 at R = 1) of the sample that
    holds ``values[i]`` ``counts[i]`` times, R = sum(counts): exact integer
    sums over the atoms (``analytics.scaled_moments``), each rounded once
    by an int true division, which is correctly rounded."""
    R = sum(counts)
    xs, d = integer_scaled(values.tolist())
    scale, s1, v = scaled_moments(counts, R, xs, [x * x for x in xs], d)
    return IndexStats(count=R, mean=s1 / scale,
                      variance=v * R / (scale * scale * (R - 1)) if R > 1 else 0.0)


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
    atoms.  Both sequences should shrink along the grid.  A power
    |scaled - c|**r past the float64 range raises ``OverflowError``, which
    names n and r.
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
    for n in n_grid:
        config = SimConfig(model=model, horizon=n, replicates=replicates,
                           master_seed=master_seed, indices=(index,))
        summary = run_experiment(config, threads)
        counts = summary.atom_counts
        scaled = summary.atom_values[0] / float(n) ** exponent
        err = np.abs(scaled - c)
        with np.errstate(over="ignore"):
            powered = err ** r
        if not np.isfinite(powered).all():
            raise OverflowError(f"r-mean error E|scaled - c|**r overflows float64 at "
                                f"n={n}, r={r}: |scaled - c| reaches {err.max():.6g}")
        stats = atom_stats(counts, scaled)
        rows.append(ProbeRow(
            index=index.name,
            n=n,
            p=p,
            mean=stats.mean,
            variance=stats.variance,
            exceedance=sum(compress(counts, err > epsilon)) / replicates,
            r_mean_error=atom_stats(counts, powered).mean,
            limit=c,
        ))
    return rows
