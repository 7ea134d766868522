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

Everything the indices need is the leaf count, so ``leaf_count`` reads a
replicate's stream exactly as ``grow_legs`` would but only counts the
centroid recruits, without building the leg vector.
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
    One stream per Monte Carlo replicate makes parallel runs reproducible
    with no shared state.
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


def grow_legs(model: GrowthModel, horizon_n: int, rng: RngStream) -> np.ndarray:
    """Leg lengths at time ``horizon_n`` as an int64 array (fast path).

    Vectorised equivalent of ``horizon_n - 1`` calls to ``step`` from the
    seed: it consumes the same uniforms in the same order, so it produces
    bit-identical trees.
    """
    if horizon_n < 1:
        raise ValueError(f"horizon_n must be >= 1, got {horizon_n}")
    steps = horizon_n - 1
    if steps == 0:
        return np.ones(3, dtype=np.int64)
    draws = rng.doubles(2 * steps).reshape(steps, 2)
    centroid = draws[:, 0] < model.centroid_probability
    # Leaf count seen by step k is 3 plus the centroid recruits before k.
    leaves_before = 3 + np.concatenate(([0], np.cumsum(centroid[:-1])))
    extend = ~centroid
    picks = np.floor(draws[extend, 1] * leaves_before[extend]).astype(np.int64)
    leg_total = 3 + int(centroid.sum())
    legs = np.ones(leg_total, dtype=np.int64)
    legs += np.bincount(picks, minlength=leg_total)
    return legs


def leaf_count(model: GrowthModel, horizon_n: int, rng: RngStream) -> int:
    """Leaf count at time ``horizon_n`` without building the tree.

    Draws the same ``2 * (horizon_n - 1)`` uniforms as ``grow_legs`` and
    counts the centroid decisions among them, so it equals
    ``len(grow_legs(model, horizon_n, rng))`` on an identically keyed
    stream and leaves the stream in the same state.
    """
    if horizon_n < 1:
        raise ValueError(f"horizon_n must be >= 1, got {horizon_n}")
    if horizon_n == 1:
        return 3
    draws = rng.doubles(2 * (horizon_n - 1))
    return 3 + int(np.count_nonzero(draws[0::2] < model.centroid_probability))


def grow(model: GrowthModel, horizon_n: int, rng: RngStream) -> TreeState:
    """Grow a tree from the seed to time ``horizon_n`` (>= 1)."""
    legs = grow_legs(model, horizon_n, rng)
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
