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

Growth is written once: ``grow_legs(centroid, picks)`` applies one step
per (decision, pick) pair to a tree from the seed, in one vectorised pass,
and ``grow`` calls it.  ``grow`` and ``step`` draw their uniforms from an
``RngStream`` interleaved, (decision, pick) per step, and a step recruits
at the centroid when its decision uniform is below p, so a grown tree
equals a stepped one bit for bit.

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
(Warren, *Hacker's Delight*, ch. 5) in uint32 lanes; an audited row's
schedule is its inverted words unpacked, read as bool.  A block's audited
schedules come back as one (k, steps) bool array in ``audit_rows`` order.
How the engine lays its replicates out over streams is documented in
``spiderlab.montecarlo``.
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
    "DegreeColumns",
    "spider_degrees",
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

    ``legs`` may be any sequence of integers, or an int64 array such as
    ``grow_legs`` returns; an array is checked in numpy, several times
    faster than a pass over Python ints.  Either way ``legs`` is stored as
    a tuple of Python ints, and an invalid input raises the same
    ``ValueError``, the one ``grow_legs`` raises.
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
        _check_spider(self.time, count, low, total)

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


def _check_spider(time: int, count: int, low: int, total: int) -> None:
    """Raise ``TreeState``'s ``ValueError`` unless a tree at ``time`` with
    ``count`` legs, the shortest ``low`` long and summing to ``total``, is a
    spider tree."""
    if count < 3:
        raise ValueError(f"a spider tree needs at least 3 legs, got {count}")
    if low < 1:
        raise ValueError("leg lengths must be positive")
    if total != time + 2:
        raise ValueError(f"leg lengths sum to {total}, expected time + 2 = {time + 2}")


class RngStream:
    """Deterministic random stream addressed by (master_seed, stream_index).

    Equal addresses replay the same sequence; distinct stream indices give
    statistically independent streams (PCG64 keyed through a SeedSequence).
    ``doubles`` and ``words`` advance the same generator, one 64-bit output
    per value, and ``advance`` skips outputs without drawing them.  Keying
    costs 12-20 us (``SeedSequence``, its state, and ``PCG64``), as much as
    drawing some 5000 words or uniforms (2.5-3.5 ns each, on a 2-core x86-64
    host), so the Monte Carlo engine keys one stream per chunk of 1024
    replicates, and ``verify.direct_reduced_suite`` one per 64 trees, which
    ``grow`` draws from in turn, not one per replicate or tree.
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

    def advance(self, count: int) -> None:
        """Skip the next ``count`` raw outputs, as ``words(count)`` would,
        in O(log count) time: PCG64's jump ahead of its LCG state."""
        self._generator.bit_generator.advance(count)

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
    """Leg lengths, as an int64 array, of the tree grown from the seed by
    one growth step per entry of the boolean centroid schedule and of
    ``picks``.

    Step j recruits at the centroid when ``centroid[j]``; otherwise the leaf
    of leg ``floor(picks[j] * leaves)`` recruits, ``leaves`` being the leaf
    count before step j.  This is the rule ``step`` applies to its two
    uniforms, vectorised over the steps.  The tree meets ``TreeState``'s
    invariants: at least three legs and every leg positive by construction,
    and its leg sum checked, failing with ``TreeState``'s ``ValueError``; a
    pick of 1 or more lands past the last leg and breaks the sum.
    """
    recruits = centroid.cumsum(dtype=np.int64)  # through each step
    (leaf,) = (~centroid).nonzero()  # indices gather faster than a random boolean mask
    # A leaf step recruits nothing, so it sees 3 plus the recruits through
    # it; the product is non-negative, so truncation floors it.
    chosen = (picks[leaf] * (3 + recruits[leaf])).astype(np.int64)
    legs = 1 + np.bincount(chosen, minlength=3 + len(centroid) - len(leaf))  # 3 + recruits
    _check_spider(len(centroid) + 1, len(legs), 1, int(legs.sum()))
    return legs


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


def block_leaf_counts(model: GrowthModel, stream, rows: int, steps: int, audit_rows,
                      counted: int):
    """Leaf counts, of shape ``(counted,)``, of the first ``counted`` of a
    block of ``rows`` replicates of ``steps`` growth steps each, all laid
    out on the one ``stream``, decided by the bit rule at p = 1/2 and by
    the byte rule at every other p; and the centroid schedules of the rows
    in ``audit_rows``, in that order, any order and repeats allowed, as one
    ``(len(audit_rows), steps)`` bool array.

    The bit rule applies when ``decision_threshold(model) == ONE_BIT``, so
    to ``Preferential`` and ``UniformLeaf(0.5)`` alike.  The stream yields
    ``rows * W`` raw words, W = ceil(steps / 64), and nothing more.  Row r
    owns words ``r*W .. r*W + W - 1``, and step s of row r recruits iff bit
    ``s % 64`` of word ``r*W + s // 64`` is 0.  The bits of a row's last
    word above step ``steps - 1`` are unused.  The row's leaf count is 3 +
    steps minus the popcount of its used bits, summed in uint32, so steps
    must be below 2**32 (``OverflowError`` otherwise).

    Under the byte rule the stream yields, in order:

    1. ``rows * W`` raw words, W = ceil(steps / 8).  Row r owns words
       ``r*W .. r*W + W - 1``, and step s of row r takes its byte a from
       byte ``s % 8`` of word ``r*W + s // 8``, byte j of a word w being
       ``(w >> 8j) & 0xFF`` on any host.  The high bytes of a row's last
       word are unused when 8 does not divide ``steps``.
    2. One tail word per tie (a byte equal to A), in row-major (row, step)
       order; a tail word w gives the tail ``b = w >> 19``.

    Only the ``counted`` rows are drawn, and the byte rule skips the other
    rows' decision words (``RngStream.advance``) before the counted rows'
    tail words, which come first; so a row's count does not depend on
    ``counted``.  Under either rule the rows are drawn and counted in pieces
    of h = DRAW_PIECE // W whole rows (at least one), one pass each.  Ties
    are resolved after the last decision word, so the piece size bounds
    memory and is not part of the contract.

    Each audited row's words are copied as its piece is drawn, and one
    array pass after the last piece builds every schedule: the inverted
    words unpacked, viewed as bool, under the bit rule; the bytes below A,
    each row's ties filled from its tail words, under the byte rule.  The
    first audited row, in ``audit_rows`` order, whose own ties differ from
    its summed tie count raises the engine's "leaf-count mismatch"
    ``RuntimeError``.
    """
    if not 0 <= counted <= rows:
        raise ValueError(f"{counted} counted rows outside 0..{rows}")
    if not all(0 <= row < counted for row in audit_rows):
        raise ValueError(f"audited rows {list(audit_rows)} outside 0..{counted - 1}")
    A, T = decision_threshold(model)
    one_bit = (A, T) == ONE_BIT
    width = -(-steps // (64 if one_bit else 8))  # decision words per row
    below = np.empty(counted, dtype=np.int64)  # recruits with no tail, per row
    ties = np.empty(counted, dtype=np.int64)   # bytes equal to A, per row
    audited = dict.fromkeys(audit_rows)        # the audited rows' decision words
    height = max(1, DRAW_PIECE // max(width, 1))  # rows per piece
    for at in range(0, counted, height):
        end = min(at + height, counted)
        words = stream.words((end - at) * width).reshape(end - at, width)
        audited.update({row: words[row - at].copy() for row in audited if at <= row < end})
        if one_bit:
            if steps % 64:
                words[:, -1] &= np.uint64((1 << steps % 64) - 1)  # clear the unused bits
            below[at:end] = steps - np.bitwise_count(words).sum(axis=1, dtype=np.uint32)
        else:
            octets = words.astype("<u8", copy=False).view(np.uint8)
            below[at:end] = _row_sums(octets < A, steps)
            ties[at:end] = _row_sums(octets <= A, steps) - below[at:end]
    counts = 3 + below
    picked = np.array([audited[row] for row in audit_rows], dtype=np.uint64)
    octets = picked.reshape(len(audit_rows), width).astype("<u8", copy=False).view(np.uint8)
    if one_bit:
        return counts, np.unpackbits(~octets, axis=1, count=steps, bitorder="little").view(bool)
    if counted < rows:
        stream.advance((rows - counted) * width)  # past the uncounted rows' decision words
    tail_rows = np.repeat(np.arange(counted), ties)  # the row each tail word decides for
    recruit = (stream.words(len(tail_rows)) >> np.uint64(TAIL_SHIFT)) < T
    counts += np.bincount(tail_rows[recruit], minlength=counted)
    octets = octets[:, :steps]
    tied = octets == A
    which = np.array(audit_rows, dtype=np.int64)
    held, want = np.count_nonzero(tied, axis=1), ties[which]
    wrong = np.flatnonzero(held != want)
    if wrong.size:
        k = wrong[0]
        raise RuntimeError(f"leaf-count mismatch at n={steps + 1}: row {which[k]} holds "
                           f"{held[k]} ties, counted {want[k]}")
    schedules = octets < A
    # The ties fill in audit order, each row from its first tail word on.
    first = (ties.cumsum() - ties)[which]
    start = np.repeat(first - want.cumsum() + want, want)
    schedules[tied] = recruit[start + np.arange(len(start))]
    return counts, schedules


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


@dataclass(frozen=True)
class DegreeColumns:
    """The degree multisets of a block of spider trees, one tree per entry:
    the (degree, count) pairs (L, 1), (1, L), (2, m - L) with L and m - L
    float64 columns and the degrees 1 and 2 floats.  ``items()`` yields them
    as a ``spider_degrees`` dict's ``items()`` yields its pairs."""

    pairs: tuple

    def items(self) -> tuple:
        return self.pairs


def spider_degrees(n: int | np.ndarray,
                   leaves: int | np.ndarray) -> dict[int, int] | DegreeColumns:
    """Map degree -> node count of every spider tree at time ``n`` with
    ``leaves`` legs: {leaves: 1, 1: leaves, 2: n + 2 - leaves}, the centroid's
    degree (>= 3) never colliding with the others; zero counts are omitted.

    Given an ndarray of leaf counts, at one time ``n`` or at an ndarray of
    integer-valued times, one per leaf count, int64 or float64, it returns
    the same pairs as float64 columns (``DegreeColumns``), a zero count
    kept.  An unreachable leaf count is named with its range in integers
    whatever the dtype."""
    if isinstance(leaves, np.ndarray):
        L = leaves.astype(np.float64, copy=False)
        bad = (L < 3) | (L > n + 2)
        if bad.any():
            k = bad.argmax()
            raise ValueError(f"leaf count {L[k]:.0f} outside the reachable range "
                             f"[3, {np.broadcast_to(n + 2, L.shape)[k]:.0f}]")
        return DegreeColumns(((L, 1), (1.0, L), (2.0, n + 2 - L)))
    if not 3 <= leaves <= n + 2:
        raise ValueError(f"leaf count {leaves} outside the reachable range [3, {n + 2}]")
    counts = {leaves: 1, 1: leaves}
    if leaves < n + 2:
        counts[2] = n + 2 - leaves
    return counts
