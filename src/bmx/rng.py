"""Reproducible random number streams.

Every stochastic routine takes an :class:`RngStream` rather than a bare
generator.  A stream is identified by ``(seed, stream_id)``; distinct ids
yield statistically independent generators, and the same pair always
reproduces the identical draw sequence.  Work is split into fixed-size path
chunks, each drawing from its own child stream, so results do not depend on
how chunks are scheduled over workers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Paths are always partitioned into blocks of this size, no matter how many
# workers run; changing it changes every Monte Carlo result.
CHUNK_SIZE = 4096
# Chunks advanced together by one kernel call (65 536 paths).  Every chunk
# still draws from its own stream, so this changes speed, never a result.
GROUP_CHUNKS = 16


@dataclass(frozen=True)
class RngStream:
    """A named, reproducible source of randomness."""

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        if not (0 <= self.seed < 2**64):
            raise ValueError("seed must fit in 64 bits")
        if not (0 <= self.stream_id < 2**64):
            raise ValueError("stream_id must fit in 64 bits")

    def substream(self, *keys: int) -> np.random.Generator:
        """Independent child generator, keyed deterministically by ``keys``;
        with no keys, the generator of this stream itself."""
        return np.random.Generator(np.random.PCG64(
            np.random.SeedSequence(entropy=self.seed,
                                   spawn_key=(self.stream_id, *keys))))

    def child(self, stream_id: int) -> "RngStream":
        """A sibling stream sharing the seed."""
        return RngStream(self.seed, stream_id)


def chunk_ranges(n: int):
    """Deterministic partition of ``range(n)`` into contiguous chunks of
    CHUNK_SIZE."""
    return [(lo, min(lo + CHUNK_SIZE, n)) for lo in range(0, n, CHUNK_SIZE)]
