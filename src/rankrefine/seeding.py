"""Deterministic seed derivation for named substreams.

Every random decision in the package flows from a master seed through a
named substream. Substreams are derived by hashing the name parts, not by
drawing from a shared generator, so results never depend on execution
order, and any one piece of a larger run can be replayed in isolation.
A counter-based uniform draw is the substream's seed scaled into [0, 1);
``unit_uniforms`` draws a run of them whose names differ only in a trailing
index, hashing the shared prefix of their names once.
"""

from __future__ import annotations

import hashlib
import math
from typing import Union

import numpy as np

Part = Union[str, int, float]

_SEP = "\x1f"
_BELOW_ONE = math.nextafter(1.0, 0.0)


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


def _unit_interval(seeds: int | np.ndarray) -> np.float64 | np.ndarray:
    # A 64-bit seed, or an array of them, as seed / 2**64 in [0, 1). That
    # quotient rounds the top 2**10 seeds up to 1.0, so it is capped at the
    # largest double below 1.0; no lower seed reaches the cap.
    return np.minimum(seeds * 2.0**-64, _BELOW_ONE)


def unit_uniforms(n: int, *parts: Part) -> np.ndarray:
    """Deterministic draws in [0, 1), the i-th keyed by the name ``(*parts, i)``.

    Counter-based: no generator state is carried between calls, so each draw
    is independent of the others and of call order, and is the seed
    ``derive_seed(*parts, i)`` scaled into [0, 1). The name parts are hashed
    once; each draw finishes a copy of that hash with its index.
    """
    # A name ending in an empty part is the shared prefix, separator included.
    head = hashlib.sha256(_canonical((*parts, "")))
    seeds = []  # derive_seed's first 8 digest bytes, big-endian
    for i in range(n):
        pair = head.copy()
        pair.update(b"%d" % i)
        seeds.append(pair.digest()[:8])
    return _unit_interval(np.frombuffer(b"".join(seeds), dtype=">u8"))
