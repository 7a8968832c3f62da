"""Deterministic named RNG streams.

Every source of randomness in the lab derives from (seed, label, *indices)
through SeedSequence, so independent streams (weight init, per-step batch
sampling, per-episode evaluation, planner noise) never interact and any
point in a run can be reconstructed from the seed plus integer coordinates.
"""

from __future__ import annotations

import zlib

import numpy as np


def _label_key(label: str) -> int:
    return zlib.crc32(label.encode("utf-8"))


def stream(seed: int, label: str, *indices: int) -> np.random.Generator:
    """RNG for the (seed, label, indices...) coordinate."""
    entropy = [int(seed), _label_key(label), *[int(i) for i in indices]]
    return np.random.default_rng(np.random.SeedSequence(entropy))
