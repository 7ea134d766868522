import math

import numpy as np
from hypothesis import settings

settings.register_profile("ci", deadline=None, max_examples=50)
settings.load_profile("ci")


class ScriptedStream:
    """Stand-in for RngStream that replays a fixed list of uniforms."""

    def __init__(self, values):
        self._values = [float(v) for v in values]

    def doubles(self, count):
        if len(self._values) < count:
            raise AssertionError("scripted stream exhausted")
        out = np.array(self._values[:count])
        del self._values[:count]
        return out


class ScriptedWords:
    """Stand-in for RngStream that replays a fixed list of raw 64-bit words."""

    def __init__(self, words):
        self._words = [int(w) for w in words]
        self.draws = []  # the count of every ``words`` call, in order

    def words(self, count):
        self.draws.append(count)
        if len(self._words) < count:
            raise AssertionError("scripted stream exhausted")
        out = np.array(self._words[:count], dtype=np.uint64)
        del self._words[:count]
        return out

    @property
    def left(self):
        return len(self._words)


def reference_block(stream, rows, steps, p):
    """The engine's stream contract spelled out for one block of ``rows``
    replicates: per-row leaf counts and the (rows, steps) centroid matrix.

    At p = 1/2, K = ceil(p * 2**53) = 2**52, the bit rule: step s of row r
    takes bit s % 64, ``(w >> (s % 64)) & 1``, of word r * W + s // 64,
    W = ceil(steps / 64), and recruits iff that bit is 0; no tail word is
    drawn.

    At any other p, the byte rule: step s of row r takes byte s % 8,
    ``(w >> 8j) & 0xFF``, of word r * W + s // 8, W = ceil(steps / 8).  A
    byte equal to the top byte of K is a tie and takes the next tail word,
    in row-major order, whose top 45 bits complete it to a 53-bit k; any
    other byte decides alone, so its tail is taken as 0.  The step recruits
    iff the float uniform k * 2**-53 is below p.
    """
    K = math.ceil(p * 2**53)
    if K == 2**52:
        width = -(-steps // 64)
        words = stream.words(rows * width).reshape(rows, width)
        s = np.arange(steps)
        bits = (words[:, s // 64] >> (s % 64).astype(np.uint64)) & np.uint64(1)
        centroid = bits == 0
        return 3 + centroid.sum(axis=1), centroid
    width = -(-steps // 8)
    words = stream.words(rows * width).reshape(rows, width)
    shifts = np.arange(0, 64, 8, dtype=np.uint64)
    octets = ((words[:, :, None] >> shifts) & np.uint64(0xFF)).reshape(rows, 8 * width)
    k = octets[:, :steps].astype(np.int64) << 45
    ties = (k >> 45) == K >> 45
    k[ties] += (stream.words(int(ties.sum())) >> np.uint64(19)).astype(np.int64)
    centroid = k * 2.0**-53 < p
    return 3 + centroid.sum(axis=1), centroid
