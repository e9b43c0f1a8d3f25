"""Small shared helpers."""

from __future__ import annotations

import hashlib
from typing import Iterable


class InputError(ValueError):
    """A malformed or inconsistent flag value or input file: the one type
    the CLI reports as a usage problem (exit 2)."""


def derive_seed(*parts: object) -> int:
    """Stable 64-bit seed from any printable parts.

    Keeps per-item randomness (one heading, one fold) independent of
    iteration order while still being a pure function of the master
    seed and the item's identity.
    """
    joined = "\x1f".join(str(p) for p in parts)
    digest = hashlib.sha256(joined.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def ordered_sum(values: Iterable[float]) -> float:
    """Σ values added left to right from 0.0.

    The builtin sum compensates its float additions from Python 3.12
    on, so its bits would depend on the Python version.
    """
    total = 0.0
    for v in values:
        total += v
    return total
