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
generation", 1976).  How the engine lays its replicates out over streams is
documented in ``spiderlab.montecarlo``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

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


@dataclass(frozen=True)
class TreeState:
    """A spider tree after ``time`` growth steps, stored as leg lengths.

    Invariants: at least three legs, every leg length positive, and the
    non-centroid node count ``sum(legs)`` equals ``time + 2`` (the tree has
    ``time + 3`` nodes in total).
    """

    time: int
    legs: tuple[int, ...]

    def __post_init__(self):
        # A list first: a tuple grown from an iterator of unknown length is
        # resized repeatedly, which fragments the heap and keeps RSS creeping.
        legs = tuple([*map(int, self.legs)])
        object.__setattr__(self, "legs", legs)
        if self.time < 1:
            raise ValueError(f"time must be >= 1, got {self.time}")
        if len(legs) < 3:
            raise ValueError(f"a spider tree needs at least 3 legs, got {len(legs)}")
        if min(legs) < 1:
            raise ValueError("leg lengths must be positive")
        total = sum(legs)
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
    # Leaf count seen by step k is 3 plus the centroid recruits before k.
    leaves_before = 3 + np.cumsum(centroid) - centroid
    extend = ~centroid
    chosen = np.floor(picks[extend] * leaves_before[extend]).astype(np.int64)
    leg_total = 3 + int(np.count_nonzero(centroid))
    return 1 + np.bincount(chosen, minlength=leg_total)


DRAW_PIECE = 1 << 14      # most decision words held at once, unless one row is longer
TAIL_BITS = 45            # bits of k = raw >> 11 below its top byte
TAIL_SHIFT = 64 - TAIL_BITS  # a tie's tail word w gives b = w >> TAIL_SHIFT
_BYTE_SUM = 0x0101010101010101  # w * _BYTE_SUM holds the sum of w's 8 bytes in its top byte


def decision_threshold(model: GrowthModel) -> tuple[int, int]:
    """``(A, T)`` with ``A * 2**45 + T = K = ceil(p * 2**53)``: a step with
    byte a and 45-bit tail b recruits at the centroid iff ``a < A``, or
    ``a == A`` and ``b < T``, i.e. iff ``a * 2**45 + b < K``."""
    K = math.ceil(math.ldexp(model.centroid_probability, 53))  # p * 2**53 is exact
    return K >> TAIL_BITS, K & ((1 << TAIL_BITS) - 1)


def block_leaf_counts(model: GrowthModel, stream, rows: int, steps: int, audit_row: int = -1):
    """Leaf counts of ``rows`` replicates of ``steps`` growth steps each,
    decided by the byte rule from ``stream``, and the centroid schedule of
    row ``audit_row`` (None unless ``0 <= audit_row < rows``).

    ``stream`` yields, in order:

    1. ``rows * W`` raw words, W = ceil(steps / 8).  Row r owns words
       ``r*W .. r*W + W - 1``, and step s of row r takes its byte a from
       byte ``s % 8`` of word ``r*W + s // 8``, byte j of a word w being
       ``(w >> 8j) & 0xFF`` on any host.  The high bytes of a row's last
       word are unused when 8 does not divide ``steps``.
    2. One tail word per tie (a byte equal to A), in row-major (row, step)
       order; a tail word w gives the tail ``b = w >> 19``.

    Words are drawn in pieces of whole rows, at most DRAW_PIECE each unless
    one row is longer, and ties are resolved after the last decision
    word, so the piece size bounds memory and is not part of the contract.
    """
    A, T = decision_threshold(model)
    width = -(-steps // 8)
    below = np.empty(rows, dtype=np.int64)  # bytes below A, per row
    ties = np.empty(rows, dtype=np.int64)   # bytes equal to A, per row
    audit_bytes = None
    rows_per_piece = max(1, DRAW_PIECE // max(width, 1))
    for row in range(0, rows, rows_per_piece):
        height = min(rows_per_piece, rows - row)
        words = stream.words(height * width).astype("<u8", copy=False)
        octets = words.view(np.uint8).reshape(height, 8 * width)
        below[row:row + height] = _row_sums(octets < A, steps)
        ties[row:row + height] = _row_sums(octets <= A, steps) - below[row:row + height]
        if row <= audit_row < row + height:
            audit_bytes = octets[audit_row - row, :steps].copy()
    tail_rows = np.repeat(np.arange(rows), ties)  # the row each tail word decides for
    recruit = (stream.words(len(tail_rows)) >> np.uint64(TAIL_SHIFT)) < T
    counts = 3 + below + np.bincount(tail_rows[recruit], minlength=rows)
    if audit_bytes is None:
        return counts, None
    centroid = audit_bytes < A
    centroid[audit_bytes == A] = recruit[tail_rows == audit_row]
    return counts, centroid


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
    return TreeState(time=horizon_n, legs=tuple(legs.tolist()))


def degree_multiset(state: TreeState) -> dict[int, int]:
    """Map degree -> node count for a tree.

    The centroid has degree ``leaf_count`` (>= 3, so it never collides with
    the leaf or internal degrees); zero counts are omitted.
    """
    counts = {state.leaf_count: 1, 1: state.leaf_count}
    if state.internal_count > 0:
        counts[2] = state.internal_count
    return counts
