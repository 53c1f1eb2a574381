"""Deterministic seed derivation for named substreams.

Every random decision in the package flows from a master seed through a
named substream. Substreams are derived by hashing the name parts, not by
drawing from a shared generator, so results never depend on execution
order, and any one piece of a larger run can be replayed in isolation.
"""

from __future__ import annotations

import hashlib
from typing import Union

import numpy as np

Part = Union[str, int, float]

_SEP = "\x1f"


def _canonical(parts: tuple[Part, ...]) -> bytes:
    # repr() keeps distinct floats distinct (0.1 vs 0.1000001) and is stable
    # across platforms for IEEE doubles. A numpy float64 is a float whose repr
    # names its type, so it is taken as the equal Python float first.
    chunks = [repr(float(p)) if isinstance(p, float) else str(p) for p in parts]
    return _SEP.join(chunks).encode("utf-8")


def derive_seed(*parts: Part) -> int:
    """Hash a substream name into a 64-bit seed.

    Name parts may mix strings, ints, and floats; the same parts always
    produce the same seed.
    """
    digest = hashlib.sha256(_canonical(parts)).digest()
    return int.from_bytes(digest[:8], "big")


def derive_rng(*parts: Part) -> np.random.Generator:
    """A fresh numpy generator seeded from the named substream."""
    return np.random.default_rng(derive_seed(*parts))


def unit_uniform(*parts: Part) -> float:
    """One deterministic draw in [0, 1) keyed by the substream name.

    Counter-based: no generator state is carried between calls, so draws
    for different keys are independent of each other and of call order.
    """
    return derive_seed(*parts) / 2.0**64
