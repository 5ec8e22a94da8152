"""Named, independently seeded random streams.

Every source of randomness in an experiment (network jitter, workload key
choice, client think time, ...) draws from its own stream, derived
deterministically from a root seed and the stream's name.  This gives two
properties the harness relies on:

* **Reproducibility** — the same root seed replays the same experiment.
* **Independence under change** — adding a consumer to one stream does
  not shift the values another stream produces, so e.g. turning on delay
  jitter does not silently reshuffle the workload's key sequence.
"""

from __future__ import annotations

import zlib
from typing import Dict

import numpy as np


class BatchedUniform:
    """Scalar U[0, 1) draws served from pre-filled numpy blocks.

    numpy's block fill (``rng.random(n)``) consumes the generator's
    bitstream exactly as ``n`` scalar ``rng.random()`` calls do, so
    pulling from a block changes the allocation pattern per draw — one
    numpy scalar plus dispatch overhead — but not a single value.  The
    block refills on exhaustion; the block size is therefore free to
    tune and invisible to the draw sequence.

    Exposes ``random()`` so it can stand in for a ``Generator`` wherever
    only uniforms are drawn.  All consumers of a stream must share one
    batcher (or none): mixing batched and direct draws on the same
    generator would interleave block fills with scalar pulls and
    reorder the stream.
    """

    __slots__ = ("_rng", "_block", "_pos", "_size")

    def __init__(self, rng: "np.random.Generator", block_size: int = 4096) -> None:
        self._rng = rng
        self._size = int(block_size)
        self._block = None
        self._pos = 0

    def random(self) -> float:
        block = self._block
        pos = self._pos
        if block is None or pos >= self._size:
            block = self._block = self._rng.random(self._size)
            pos = 0
        self._pos = pos + 1
        return block.item(pos)


class BatchedStandardExponential:
    """Scalar Exp(1) draws from pre-filled blocks (same bitstream).

    ``rng.exponential(scale)`` is ``scale * standard_exponential()`` and
    ``rng.pareto(a)`` is ``expm1(standard_exponential() / a)``, so one
    standard-exponential block serves both shapes with per-draw
    parameters while reproducing the unbatched sequences bit-for-bit.
    """

    __slots__ = ("_rng", "_block", "_pos", "_size")

    def __init__(self, rng: "np.random.Generator", block_size: int = 2048) -> None:
        self._rng = rng
        self._size = int(block_size)
        self._block = None
        self._pos = 0

    def next(self) -> float:
        block = self._block
        pos = self._pos
        if block is None or pos >= self._size:
            block = self._block = self._rng.standard_exponential(self._size)
            pos = 0
        self._pos = pos + 1
        return block.item(pos)


class BatchedGeometric:
    """Scalar geometric(p) draws (fixed ``p``) from pre-filled blocks."""

    __slots__ = ("_rng", "_p", "_block", "_pos", "_size")

    def __init__(
        self,
        rng: "np.random.Generator",
        p: float,
        block_size: int = 1024,
    ) -> None:
        self._rng = rng
        self._p = float(p)
        self._size = int(block_size)
        self._block = None
        self._pos = 0

    def next(self) -> int:
        block = self._block
        pos = self._pos
        if block is None or pos >= self._size:
            block = self._block = self._rng.geometric(self._p, self._size)
            pos = 0
        self._pos = pos + 1
        return int(block.item(pos))


class RandomStreams:
    """Factory of named :class:`numpy.random.Generator` streams."""

    def __init__(self, root_seed: int = 0) -> None:
        self._root_seed = int(root_seed)
        self._streams: Dict[str, np.random.Generator] = {}

    @property
    def root_seed(self) -> int:
        return self._root_seed

    def stream(self, name: str) -> np.random.Generator:
        """The generator for ``name``, created on first use."""
        generator = self._streams.get(name)
        if generator is None:
            generator = np.random.default_rng(self._derive_seed(name))
            self._streams[name] = generator
        return generator

    def _derive_seed(self, name: str) -> int:
        # crc32 is stable across processes and Python versions (unlike
        # hash()), which keeps experiments reproducible everywhere.
        return (self._root_seed << 32) ^ zlib.crc32(name.encode("utf-8"))
