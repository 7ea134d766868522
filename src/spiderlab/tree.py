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

Growth is written once, over given uniforms: ``grow_legs(model, decisions,
picks)`` applies one step per (decision, pick) pair, and ``leaf_count(model,
decisions)`` reads only the decision uniforms and counts the centroid
recruits, along the last axis, so it counts one schedule or a whole block of
them.  Everything the indices need is that count.  ``grow`` and ``step``
draw their uniforms from an ``RngStream`` interleaved, (decision, pick) per
step, so a grown tree equals a stepped one bit for bit.  How the Monte
Carlo engine lays its replicates' uniforms out over streams is documented
in ``spiderlab.montecarlo``.
"""

from __future__ import annotations

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
    "leaf_count",
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
        legs = tuple(map(int, self.legs))
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
    Keying costs about as much as drawing a thousand uniforms, so the Monte
    Carlo engine keys one stream per block of replicates, not one per
    replicate.
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


def grow_legs(model: GrowthModel, decisions: np.ndarray, picks: np.ndarray) -> np.ndarray:
    """Leg lengths, as an int64 array, after one growth step per decision
    uniform, starting from the seed.

    Step ``k`` recruits at the centroid when ``decisions[k] < p``; otherwise
    the leaf of leg ``floor(picks[k] * leaves)`` recruits, where ``leaves``
    is the leaf count before step ``k``.  This is the rule ``step`` applies
    to its two uniforms, vectorised over the whole schedule.
    """
    centroid = decisions < model.centroid_probability
    # Leaf count seen by step k is 3 plus the centroid recruits before k.
    leaves_before = 3 + np.cumsum(centroid) - centroid
    extend = ~centroid
    chosen = np.floor(picks[extend] * leaves_before[extend]).astype(np.int64)
    leg_total = 3 + int(np.count_nonzero(centroid))
    return 1 + np.bincount(chosen, minlength=leg_total)


def leaf_count(model: GrowthModel, decisions: np.ndarray):
    """Leaf count after one growth step per decision uniform, without
    building the tree: 3 plus the centroid recruits ``decisions < p``.

    Counts along the last axis, so a 1-D schedule gives one count and a
    ``(rows, steps)`` block gives one count per row.  It equals
    ``len(grow_legs(model, decisions, picks))`` for any picks.
    """
    return 3 + np.count_nonzero(decisions < model.centroid_probability, axis=-1)


def grow(model: GrowthModel, horizon_n: int, rng: RngStream) -> TreeState:
    """Grow a tree from the seed to time ``horizon_n`` (>= 1).

    Draws ``2 * (horizon_n - 1)`` uniforms, interleaved (decision, pick) per
    step exactly as repeated ``step`` calls consume them, so the result is
    bit-identical to stepping.
    """
    if horizon_n < 1:
        raise ValueError(f"horizon_n must be >= 1, got {horizon_n}")
    draws = rng.doubles(2 * (horizon_n - 1)).reshape(horizon_n - 1, 2)
    legs = grow_legs(model, draws[:, 0], draws[:, 1])
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
