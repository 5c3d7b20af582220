"""Seedable randomness helpers.

Every stochastic component in the library (random walks, dataset
generators, workload samplers) accepts either an integer seed, a
:class:`numpy.random.Generator`, or ``None``.  Routing all of them through
:func:`ensure_rng` gives two properties the experiments depend on:

* determinism — a fixed seed reproduces a run bit-for-bit, and
* independence — child generators spawned with :func:`spawn` do not share
  streams, so e.g. the workload and the dataset cannot accidentally
  correlate.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

RngLike = Union[None, int, np.random.Generator]


def ensure_rng(seed: RngLike = None) -> np.random.Generator:
    """Return a numpy Generator for ``seed``.

    ``None`` yields a fresh nondeterministic generator, an ``int`` yields a
    deterministic one, and an existing Generator is passed through
    unchanged (so callers can thread one generator through a pipeline).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn(rng: np.random.Generator, n: int) -> Sequence[np.random.Generator]:
    """Split ``rng`` into ``n`` statistically independent child generators."""
    seed_seq = getattr(rng.bit_generator, "seed_seq", None)
    if seed_seq is None:  # public alias only exists on newer numpy
        seed_seq = getattr(rng.bit_generator, "_seed_seq")
    return [np.random.default_rng(s) for s in seed_seq.spawn(n)]


def choice_index(rng: np.random.Generator, n: int) -> int:
    """Uniform index in ``[0, n)`` as a plain Python int."""
    return int(rng.integers(n))


class BatchedIndexSampler:
    """Pre-draws blocks of uniforms; one cheap multiply per index.

    Each numpy ``Generator`` call costs microseconds of fixed overhead —
    dominant when the walk engine draws one index per jump.  Drawing
    ``block`` uniform doubles at once and consuming them per jump
    amortises that overhead ~``block``-fold.  ``int(u * n)`` is exact for
    ``u in [0, 1)`` and any practical ``n`` (the product of the largest
    double below 1 with ``n`` rounds below ``n``), so indices stay in
    range without a guard.  Same seed still means the same walk.
    """

    __slots__ = ("_rng", "_block", "_buffer", "_position", "refills")

    def __init__(self, rng: np.random.Generator, block: int = 1024) -> None:
        if block < 1:
            raise ValueError("block size must be positive")
        self._rng = rng
        self._block = block
        self._buffer: Sequence[float] = ()
        self._position = block
        self.refills = 0

    def index(self, n: int) -> int:
        """Uniform index in ``[0, n)`` from the current block."""
        position = self._position
        if position >= self._block:
            self._buffer = self._rng.random(self._block).tolist()
            position = 0
            self.refills += 1
        self._position = position + 1
        return int(self._buffer[position] * n)


def weighted_index(rng: np.random.Generator, weights: Sequence[float]) -> int:
    """Index sampled proportionally to non-negative ``weights``."""
    w = np.asarray(weights, dtype=float)
    total = w.sum()
    if total <= 0:
        raise ValueError("weights must have a positive sum")
    return int(rng.choice(len(w), p=w / total))


def maybe_seed_from(rng: Optional[np.random.Generator]) -> Optional[int]:
    """Derive a fresh integer seed from ``rng`` (or None passthrough)."""
    if rng is None:
        return None
    return int(rng.integers(0, 2**63 - 1))
