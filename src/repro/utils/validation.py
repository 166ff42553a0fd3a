"""Input-validation helpers raising uniform, informative errors."""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np


def check_positive(name: str, value: float, strict: bool = True) -> float:
    """Validate that ``value`` is positive (or non-negative if not strict)."""
    if strict and value <= 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    if not strict and value < 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    return value


def check_fraction(name: str, value: float, inclusive: bool = True) -> float:
    """Validate that ``value`` lies in [0, 1] (or (0, 1) if not inclusive)."""
    if inclusive:
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must be in [0, 1], got {value!r}")
    else:
        if not 0.0 < value < 1.0:
            raise ValueError(f"{name} must be in (0, 1), got {value!r}")
    return value


def check_probability_vector(
    name: str, probs: np.ndarray, total: float = None, atol: float = 1e-8
) -> np.ndarray:
    """Validate that every entry of ``probs`` is in [0, 1].

    If ``total`` is given, additionally require ``probs.sum()`` to be
    within ``atol`` of it.
    """
    probs = np.asarray(probs, dtype=float)
    if probs.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {probs.shape}")
    if np.any(probs < -atol) or np.any(probs > 1 + atol):
        raise ValueError(f"{name} entries must be in [0, 1], got {probs!r}")
    if total is not None and not np.isclose(probs.sum(), total, atol=atol):
        raise ValueError(
            f"{name} must sum to {total}, got {probs.sum()!r}"
        )
    return probs


def check_shape(name: str, array: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Validate that ``array`` has exactly the expected ``shape``."""
    array = np.asarray(array)
    if array.shape != tuple(shape):
        raise ValueError(f"{name} must have shape {shape}, got {array.shape}")
    return array


def check_state_array(
    name: str, value: object, dtype: type, shape: Optional[Tuple[int, ...]] = None
) -> np.ndarray:
    """Validate an array restored from a checkpoint; returns a copy.

    Raises :class:`ValueError` naming the checkpoint field unless
    ``value`` is an ndarray of exactly ``dtype`` (and ``shape``, if
    given) — a restore never converts or broadcasts what it was handed.
    """
    if not isinstance(value, np.ndarray) or value.dtype != dtype:
        raise ValueError(
            f"checkpoint {name} is missing or not a {np.dtype(dtype)} array"
        )
    if shape is not None and value.shape != tuple(shape):
        raise ValueError(
            f"checkpoint {name} has shape {value.shape}, expected {tuple(shape)}"
        )
    return value.copy()


def check_finite(name: str, array: np.ndarray) -> np.ndarray:
    """Validate that every entry of ``array`` is finite (no NaN/Inf).

    Aggregation guards call this on every freshly aggregated flat model:
    a single non-finite device update would otherwise poison the edge —
    and, after the next sync, the global — model silently and forever.
    """
    array = np.asarray(array)
    if not np.all(np.isfinite(array)):
        finite = np.isfinite(array)
        bad = int(array.size - np.count_nonzero(finite))
        first = int(np.flatnonzero(~finite.ravel())[0])
        raise ValueError(
            f"{name} contains {bad} non-finite value(s) (NaN/Inf), "
            f"first at flat index {first}"
        )
    return array


def check_membership(name: str, value, allowed: Sequence) -> object:
    """Validate that ``value`` is one of ``allowed``."""
    if value not in allowed:
        raise ValueError(f"{name} must be one of {list(allowed)!r}, got {value!r}")
    return value
