"""Spider trees and their stochastic growth processes.

A spider tree is a set of at least three paths ("legs") glued at a single
hub node, the centroid.  The leg lengths determine the tree up to
isomorphism: the centroid's degree is the number of legs, each leg ends in
one leaf (degree 1), and every other leg node is internal (degree 2).
Storing only the leg lengths makes a growth step O(1) and a whole tree
O(number of leaves).

Two growth rules are supported.  Under ``UniformLeaf(p)`` the centroid
recruits a new leaf with probability p, otherwise one of the current
leaves, chosen uniformly, recruits and turns internal.  Under
``Preferential`` a qualified node (centroid or leaf) recruits with
probability proportional to its degree; since the centroid's degree always
equals the leaf count, the centroid is picked with probability exactly 1/2
at every step, so the rule coincides with ``UniformLeaf(1/2)`` and shares
its code path.

Growth is written once, over a given centroid schedule: ``grow_legs(centroid,
picks)`` applies one step per (decision, pick) pair.  ``grow`` and ``step``
draw their uniforms from an ``RngStream`` interleaved, (decision, pick) per
step, and a step recruits at the centroid when its decision uniform is below
p, so a grown tree equals a stepped one bit for bit.

Everything the indices need is the leaf count, 3 plus the centroid recruits,
and the Monte Carlo engine draws only that, with fewer random bits.  A
float64 uniform is ``u = k * 2**-53`` with ``k = raw >> 11``, so ``u < p``
iff ``k < K = ceil(p * 2**53)``.  Split k into its top byte ``a = k >> 45``
and its 45-bit tail b, and K into ``A = K >> 45`` and ``T = K mod 2**45``:
``k < K`` iff ``a < A``, or ``a == A`` and ``b < T``.  So
``block_leaf_counts`` decides every step from one random byte and draws a
tail only for the 1 in 256 steps whose byte ties with A.  Each step is then
exactly Bernoulli(K / 2**53), the same law as ``decision < p``; the lazy
comparison is Knuth and Yao's ("The complexity of nonuniform random number
generation", 1976).  At p = 1/2, K = 2**52, so A = 128 and T = 0: the
comparison stops at its first bit, and ``block_leaf_counts`` draws one
random bit per step (the bit rule) and counts a row's recruits by popcount
(Warren, *Hacker's Delight*, ch. 5).  How the engine lays its replicates
out over streams is documented in ``spiderlab.montecarlo``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "InvalidProbabilityError",
    "UniformLeaf",
    "Preferential",
    "GrowthModel",
    "TreeState",
    "RngStream",
    "new_seed",
    "step",
    "grow",
    "grow_legs",
    "decision_threshold",
    "block_leaf_counts",
    "spider_degrees",
    "degree_multiset",
]


class InvalidProbabilityError(ValueError):
    """A recruitment probability fell outside the open interval (0, 1)."""


@dataclass(frozen=True)
class UniformLeaf:
    """Centroid recruits with probability p, else a uniform random leaf."""

    p: float

    def __post_init__(self):
        # The boundary values 0 and 1 give degenerate processes and are not
        # part of the model; reject them explicitly.
        if not 0 < self.p < 1:
            raise InvalidProbabilityError(
                f"recruitment probability must satisfy 0 < p < 1, got {self.p!r}"
            )

    @property
    def centroid_probability(self) -> float:
        return float(self.p)

    @property
    def name(self) -> str:
        return f"uniform:{self.p}"


@dataclass(frozen=True)
class Preferential:
    """Qualified nodes recruit with probability proportional to degree."""

    @property
    def centroid_probability(self) -> float:
        # Centroid degree == leaf count == summed leaf degrees, so the
        # centroid holds exactly half the qualified degree mass, always.
        return 0.5

    @property
    def name(self) -> str:
        return "preferential"


GrowthModel = Union[UniformLeaf, Preferential]

_INT64_MAX = (1 << 63) - 1


@dataclass(frozen=True)
class TreeState:
    """A spider tree after ``time`` growth steps, stored as leg lengths.

    Invariants: at least three legs, every leg length positive, and the
    non-centroid node count ``sum(legs)`` equals ``time + 2`` (the tree has
    ``time + 3`` nodes in total).

    ``legs`` may be any sequence of integers, or the int64 array that
    ``grow_legs`` returns; an array is checked in numpy, several times
    faster than a pass over Python ints.  Either way ``legs`` is stored as
    a tuple of Python ints, and an invalid input raises the same
    ``ValueError``.
    """

    time: int
    legs: tuple[int, ...]

    def __post_init__(self):
        legs = self.legs
        if isinstance(legs, np.ndarray) and legs.dtype == np.int64 and legs.ndim == 1:
            array, count = legs, len(legs)
            low = int(array.min()) if count else 1
            legs = tuple(array.tolist())
            # The int64 sum is exact unless count * max could pass 2**63 - 1.
            exact = count == 0 or int(array.max()) <= _INT64_MAX // count
            total = int(array.sum()) if exact else sum(legs)
        else:
            # A list first: a tuple grown from an iterator of unknown length is
            # resized repeatedly, which fragments the heap and keeps RSS creeping.
            legs = tuple([*map(int, legs)])
            count, low, total = len(legs), min(legs, default=1), sum(legs)
        object.__setattr__(self, "legs", legs)
        if self.time < 1:
            raise ValueError(f"time must be >= 1, got {self.time}")
        if count < 3:
            raise ValueError(f"a spider tree needs at least 3 legs, got {count}")
        if low < 1:
            raise ValueError("leg lengths must be positive")
        if total != self.time + 2:
            raise ValueError(
                f"leg lengths sum to {total}, expected time + 2 = {self.time + 2}"
            )

    @property
    def leaf_count(self) -> int:
        return len(self.legs)

    @property
    def internal_count(self) -> int:
        # sum(legs) == time + 2 is enforced at construction.
        return self.time + 2 - len(self.legs)

    @property
    def node_count(self) -> int:
        return self.time + 3


class RngStream:
    """Deterministic random stream addressed by (master_seed, stream_index).

    Equal addresses replay the same sequence; distinct stream indices give
    statistically independent streams (PCG64 keyed through a SeedSequence).
    ``doubles`` and ``words`` advance the same generator, one 64-bit output
    per value.  Keying costs about 12-13 us, as much as drawing some 5000
    words or uniforms (2.5-2.7 ns each, on a 2-core x86-64 host), so the
    Monte Carlo engine keys one stream per block of replicates, and the
    verification suite one per block of trees, not one per replicate or tree.
    """

    __slots__ = ("master_seed", "stream_index", "_generator")

    def __init__(self, master_seed: int, stream_index: int = 0):
        master_seed = int(master_seed)
        stream_index = int(stream_index)
        if master_seed < 0:
            raise ValueError("master_seed must be a non-negative integer")
        if stream_index < 0:
            raise ValueError("stream_index must be a non-negative integer")
        self.master_seed = master_seed
        self.stream_index = stream_index
        self._generator = np.random.default_rng(
            np.random.SeedSequence([master_seed, stream_index])
        )

    def doubles(self, count: int) -> np.ndarray:
        """Next ``count`` uniforms on [0, 1) as a float64 array."""
        return self._generator.random(count)

    def words(self, count: int) -> np.ndarray:
        """Next ``count`` raw 64-bit outputs as a uint64 array; ``doubles``
        turns each such output ``w`` into ``(w >> 11) * 2**-53``."""
        return self._generator.bit_generator.random_raw(count)

    def __repr__(self) -> str:
        return f"RngStream(master_seed={self.master_seed}, stream_index={self.stream_index})"


def new_seed() -> TreeState:
    """The time-1 seed tree: a centroid with three unit legs."""
    return TreeState(time=1, legs=(1, 1, 1))


def step(state: TreeState, model: GrowthModel, rng: RngStream) -> TreeState:
    """Advance one recruitment step.

    Consumes exactly two uniforms: the first decides centroid versus leaf,
    the second picks which leg's leaf recruits.  The second draw happens on
    centroid steps too, so ``grow`` can pre-draw the whole schedule and
    stay bit-identical to a sequence of ``step`` calls.
    """
    decision, pick = rng.doubles(2)
    if decision < model.centroid_probability:
        legs = state.legs + (1,)
    else:
        j = int(pick * len(state.legs))
        legs = state.legs[:j] + (state.legs[j] + 1,) + state.legs[j + 1 :]
    return TreeState(time=state.time + 1, legs=legs)


def grow_legs(centroid: np.ndarray, picks: np.ndarray) -> np.ndarray:
    """Leg lengths, as an int64 array, after one growth step per entry of the
    boolean centroid schedule, starting from the seed.

    Step ``k`` recruits at the centroid when ``centroid[k]``; otherwise the
    leaf of leg ``floor(picks[k] * leaves)`` recruits, where ``leaves`` is
    the leaf count before step ``k``.  This is the rule ``step`` applies to
    its two uniforms, vectorised over the whole schedule.
    """
    # A leaf step k sees 3 plus the centroid recruits up to k, which are the
    # recruits before k; the product is non-negative, so truncation floors it.
    leaves = np.cumsum(centroid)
    leaves += 3
    chosen = (picks * leaves)[~centroid].astype(np.int64)
    leg_total = int(leaves[-1]) if len(leaves) else 3
    return 1 + np.bincount(chosen, minlength=leg_total)


DRAW_PIECE = 1 << 14      # most decision words held at once, unless one row is longer
TAIL_BITS = 45            # bits of k = raw >> 11 below its top byte
TAIL_SHIFT = 64 - TAIL_BITS  # a tie's tail word w gives b = w >> TAIL_SHIFT
ONE_BIT = (1 << 7, 0)     # (A, T) at K = 2**52, p = 1/2: a step's top bit decides it alone
_BYTE_SUM = 0x0101010101010101  # w * _BYTE_SUM holds the sum of w's 8 bytes in its top byte


def decision_threshold(model: GrowthModel) -> tuple[int, int]:
    """``(A, T)`` with ``A * 2**45 + T = K = ceil(p * 2**53)``: a step with
    byte a and 45-bit tail b recruits at the centroid iff ``a < A``, or
    ``a == A`` and ``b < T``, i.e. iff ``a * 2**45 + b < K``.  At ``(A, T)
    == ONE_BIT`` (p = 1/2) that is iff the byte's top bit is 0."""
    K = math.ceil(math.ldexp(model.centroid_probability, 53))  # p * 2**53 is exact
    return K >> TAIL_BITS, K & ((1 << TAIL_BITS) - 1)


def block_leaf_counts(model: GrowthModel, streams, rows: int, steps: int, audit_rows):
    """Leaf counts, of shape ``(blocks, rows)``, of blocks of ``rows``
    replicates of ``steps`` growth steps each, one block per stream in
    ``streams``, decided by the bit rule at p = 1/2 and by the byte rule at
    every other p; and per block the centroid schedule of its row
    ``audit_rows[b]``, or None unless ``0 <= audit_rows[b] < rows``.

    The bit rule applies when ``decision_threshold(model) == ONE_BIT``, so
    to ``Preferential`` and ``UniformLeaf(0.5)`` alike.  Each block's
    stream yields ``rows * W`` raw words, W = ceil(steps / 64), and nothing
    more.  Row r owns words ``r*W .. r*W + W - 1``, and step s of row r
    recruits iff bit ``s % 64`` of word ``r*W + s // 64`` is 0.  The bits of
    a row's last word above step ``steps - 1`` are unused.  The row's leaf
    count is 3 + steps minus the popcount of its used bits.

    Under the byte rule each block's stream yields, in order:

    1. ``rows * W`` raw words, W = ceil(steps / 8).  Row r owns words
       ``r*W .. r*W + W - 1``, and step s of row r takes its byte a from
       byte ``s % 8`` of word ``r*W + s // 8``, byte j of a word w being
       ``(w >> 8j) & 0xFF`` on any host.  The high bytes of a row's last
       word are unused when 8 does not divide ``steps``.
    2. One tail word per tie (a byte equal to A), in row-major (row, step)
       order; a tail word w gives the tail ``b = w >> 19``.

    Under either rule the rows of all blocks are stacked in order and drawn
    and counted in pieces (``_decision_pieces``), one pass each.  Ties are
    resolved after the last decision word, each block's from its own
    stream, so the piece size bounds memory and is not part of the contract.
    """
    A, T = decision_threshold(model)
    one_bit = (A, T) == ONE_BIT
    width = -(-steps // (64 if one_bit else 8))  # decision words per row
    blocks = len(streams)
    below = np.empty(blocks * rows, dtype=np.int64)  # recruits with no tail, per stacked row
    ties = np.empty(blocks * rows, dtype=np.int64)   # bytes equal to A, per stacked row
    # the audited rows' decision words, by stacked row b * rows + audit_rows[b]
    audited = {b * rows + row: None for b, row in enumerate(audit_rows) if 0 <= row < rows}
    for at, words in _decision_pieces(streams, rows, width):
        end = at + len(words)
        audited.update({i: words[i - at].copy() for i in audited if at <= i < end})
        if one_bit:
            if steps % 64:
                words[:, -1] &= np.uint64((1 << steps % 64) - 1)  # clear the unused bits
            below[at:end] = steps - np.bitwise_count(words).sum(axis=1, dtype=np.int64)
        else:
            octets = words.astype("<u8", copy=False).view(np.uint8)
            below[at:end] = _row_sums(octets < A, steps)
            ties[at:end] = _row_sums(octets <= A, steps) - below[at:end]
    counts = 3 + below
    if not one_bit:
        tails = [stream.words(count) for stream, count in
                 zip(streams, ties.reshape(blocks, rows).sum(axis=1).tolist())]
        tail_rows = np.repeat(np.arange(blocks * rows), ties)  # the row each tail word decides for
        recruit = (np.concatenate(tails) >> np.uint64(TAIL_SHIFT)) < T
        counts += np.bincount(tail_rows[recruit], minlength=blocks * rows)
    schedules = [None] * blocks
    for i, row_words in audited.items():
        octets = row_words.astype("<u8", copy=False).view(np.uint8)
        if one_bit:
            schedules[i // rows] = np.unpackbits(octets, bitorder="little")[:steps] == 0
        else:
            octets = octets[:steps]
            schedules[i // rows] = octets < A
            schedules[i // rows][octets == A] = recruit[tail_rows == i]
    return counts.reshape(blocks, rows), schedules


def _decision_pieces(streams, rows: int, width: int):
    """The decision words of every block, ``rows * width`` from each stream,
    as ``(at, words)``: ``words`` of shape ``(height, width)`` are the rows
    ``at .. at + height - 1`` of the blocks stacked in order, each block's
    drawn from its own stream.  The stack is cut every h = DRAW_PIECE //
    width rows (at least one), rounded down to whole blocks when h > rows,
    so a piece may end one block and begin the next.
    """
    height = max(1, DRAW_PIECE // max(width, 1))
    if height > rows:
        height -= height % rows
    total = len(streams) * rows
    for at in range(0, total, height):
        end = min(at + height, total)
        drawn = [streams[b].words((min(end, b * rows + rows) - max(at, b * rows)) * width)
                 for b in range(at // rows, (end - 1) // rows + 1)]
        words = drawn[0] if len(drawn) == 1 else np.concatenate(drawn)
        yield at, words.reshape(end - at, width)


def _row_sums(flags: np.ndarray, steps: int) -> np.ndarray:
    """Per-row count of True among the first ``steps`` columns of a
    ``(rows, 8 * W)`` bool array, summed 8 bytes at a time in place."""
    flags[:, steps:] = False
    sums = flags.view(np.int64)
    sums *= _BYTE_SUM  # wraps; the top byte is the sum, at most 8
    sums >>= 56
    return sums.sum(axis=1)


def grow(model: GrowthModel, horizon_n: int, rng: RngStream) -> TreeState:
    """Grow a tree from the seed to time ``horizon_n`` (>= 1).

    Draws ``2 * (horizon_n - 1)`` uniforms, interleaved (decision, pick) per
    step exactly as repeated ``step`` calls consume them, so the result is
    bit-identical to stepping.
    """
    if horizon_n < 1:
        raise ValueError(f"horizon_n must be >= 1, got {horizon_n}")
    draws = rng.doubles(2 * (horizon_n - 1)).reshape(horizon_n - 1, 2)
    legs = grow_legs(draws[:, 0] < model.centroid_probability, draws[:, 1])
    return TreeState(time=horizon_n, legs=legs)


def spider_degrees(n: int, leaves: int) -> dict[int, int]:
    """Map degree -> node count of every spider tree at time ``n`` with
    ``leaves`` legs: {leaves: 1, 1: leaves, 2: n + 2 - leaves}, the centroid's
    degree (>= 3) never colliding with the others; zero counts are omitted."""
    if not 3 <= leaves <= n + 2:
        raise ValueError(f"leaf count {leaves} outside the reachable range [3, {n + 2}]")
    counts = {leaves: 1, 1: leaves}
    if leaves < n + 2:
        counts[2] = n + 2 - leaves
    return counts


def degree_multiset(state: TreeState) -> dict[int, int]:
    """Map degree -> node count for a tree (``spider_degrees``)."""
    return spider_degrees(state.time, state.leaf_count)
