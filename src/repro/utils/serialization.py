"""JSON serialization for training results, reports and checkpoints.

Long benchmark runs should be inspectable after the fact; these helpers
serialize :class:`~repro.hfl.trainer.TrainingResult` and the comparison
reports to plain JSON (numpy types coerced), and load them back into
lightweight dataclass equivalents.

Checkpoints use the exact codec instead (:func:`to_jsonable` /
:func:`from_jsonable`): every ndarray travels as its raw C-order bytes
in base64, tagged with an explicit-byte-order dtype (``<f8``, ``<i8``
or ``|b1``) and its shape.  Decoding checks the tag strictly — known
dtype, a list of sizes, valid base64, a byte count equal to
``prod(shape) × itemsize`` — and raises :class:`ArrayDecodeError` (a
``ValueError``) otherwise.
"""

from __future__ import annotations

import base64
import json
import math
from pathlib import Path
from typing import Any, Dict, Union

import numpy as np

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # deferred at runtime: repro.hfl.trainer imports
    # repro.faults, which serializes through this module.
    from repro.hfl.trainer import TrainingResult


def _coerce(value: Any) -> Any:
    """Make numpy scalars/arrays JSON-serializable."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, dict):
        return {str(k): _coerce(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_coerce(v) for v in value]
    return value


#: Tag key marking an ndarray in :func:`to_jsonable` output.
_NDARRAY_TAG = "__ndarray__"
#: Wire dtype (explicit byte order) for each array kind a checkpoint
#: holds: float64, int64 and bool.  Narrower ints/floats widen exactly.
_WIRE_DTYPES = {"f": "<f8", "i": "<i8", "b": "|b1"}
_SPEC_KEYS = {"dtype", "shape", "b64"}
_MAX_NDIM = 32


class ArrayDecodeError(ValueError):
    """A tagged array in :func:`from_jsonable` input is malformed."""


def _encode_array(array: np.ndarray) -> Dict[str, Any]:
    wire = _WIRE_DTYPES.get(array.dtype.kind)
    if wire is None or array.dtype.itemsize > np.dtype(wire).itemsize:
        raise TypeError(f"cannot encode a {array.dtype} array for JSON")
    raw = np.ascontiguousarray(array, dtype=wire).tobytes()
    return {
        "dtype": wire,
        "shape": list(array.shape),
        "b64": base64.b64encode(raw).decode("ascii"),
    }


def _decode_array(spec: Any) -> np.ndarray:
    if not isinstance(spec, dict) or set(spec) != _SPEC_KEYS:
        raise ArrayDecodeError(
            f"array tag must hold exactly {sorted(_SPEC_KEYS)}"
        )
    dtype, shape, text = spec["dtype"], spec["shape"], spec["b64"]
    if dtype not in _WIRE_DTYPES.values():
        raise ArrayDecodeError(f"unsupported array dtype {dtype!r}")
    if (
        not isinstance(shape, list)
        or len(shape) > _MAX_NDIM
        or not all(type(n) is int and n >= 0 for n in shape)
    ):
        raise ArrayDecodeError(f"array shape {shape!r} is not a list of sizes")
    if not isinstance(text, str):
        raise ArrayDecodeError("array data is not a base64 string")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:  # binascii.Error, or non-ASCII text
        raise ArrayDecodeError(f"array data is not valid base64 ({exc})") from None
    itemsize = np.dtype(dtype).itemsize
    if len(raw) != math.prod(shape) * itemsize:
        raise ArrayDecodeError(
            f"array data holds {len(raw)} bytes, shape {shape} of {dtype} "
            f"needs {math.prod(shape) * itemsize}"
        )
    if dtype == "|b1" and raw.translate(None, b"\x00\x01"):
        raise ArrayDecodeError("bool array data holds bytes other than 0 and 1")
    # A bytearray makes the array writable without a second copy.
    return np.frombuffer(bytearray(raw), dtype=dtype).reshape(shape)


def to_jsonable(value: Any) -> Any:
    """Recursively encode ``value`` for exact JSON round-tripping.

    Unlike :func:`_coerce` (lossy ``tolist`` for report files), arrays
    become ``{"__ndarray__": {"dtype", "shape", "b64"}}``: their raw
    C-order bytes in base64 under an explicit-byte-order dtype
    (``<f8``, ``<i8`` or ``|b1``), so :func:`from_jsonable` rebuilds
    them bit for bit — −0.0, ±inf and NaN included — at the cost of
    their bytes rather than of a decimal float per element.  Python
    floats stay JSON numbers (``repr`` round-trips float64 exactly).
    Used by checkpointing, where exactness is the contract.
    """
    if isinstance(value, np.ndarray):
        return {_NDARRAY_TAG: _encode_array(value)}
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, dict):
        return {str(k): to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_jsonable(v) for v in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(f"cannot encode {type(value).__name__} for JSON")


def from_jsonable(value: Any) -> Any:
    """Inverse of :func:`to_jsonable` (tagged arrays become ndarrays).

    Raises :class:`ArrayDecodeError` for a tag with an unknown dtype, a
    bad shape, non-base64 data or a byte count its shape disagrees with.
    """
    if isinstance(value, dict):
        if _NDARRAY_TAG in value:
            if len(value) != 1:
                raise ArrayDecodeError("array tag has sibling keys")
            return _decode_array(value[_NDARRAY_TAG])
        return {k: from_jsonable(v) for k, v in value.items()}
    if isinstance(value, list):
        return [from_jsonable(v) for v in value]
    return value


def training_result_to_dict(result: TrainingResult) -> Dict[str, Any]:
    """Serialize a TrainingResult into a JSON-compatible dict."""
    return _coerce(
        {
            "sampler_name": result.sampler_name,
            "steps_run": result.steps_run,
            "reached_target_at": result.reached_target_at,
            "mean_participants_per_step": result.mean_participants_per_step,
            "participation_counts": result.participation_counts,
            "history": {
                "steps": result.history.steps,
                "accuracy": result.history.accuracy,
                "loss": result.history.loss,
            },
            "diagnostics": result.diagnostics,
        }
    )


def training_result_from_dict(payload: Dict[str, Any]) -> "TrainingResult":
    """Rebuild a TrainingResult from :func:`training_result_to_dict` output."""
    from repro.hfl.metrics import TrainingHistory
    from repro.hfl.trainer import TrainingResult

    required = {"sampler_name", "steps_run", "history", "participation_counts"}
    missing = required - set(payload)
    if missing:
        raise ValueError(f"payload missing keys: {sorted(missing)}")
    history = TrainingHistory(
        steps=list(payload["history"]["steps"]),
        accuracy=list(payload["history"]["accuracy"]),
        loss=list(payload["history"]["loss"]),
    )
    return TrainingResult(
        sampler_name=payload["sampler_name"],
        history=history,
        steps_run=int(payload["steps_run"]),
        participation_counts=np.asarray(payload["participation_counts"], dtype=int),
        mean_participants_per_step=float(
            payload.get("mean_participants_per_step", 0.0)
        ),
        reached_target_at=payload.get("reached_target_at"),
        diagnostics=dict(payload.get("diagnostics", {})),
    )


def save_training_result(result: TrainingResult, path: Union[str, Path]) -> Path:
    """Write a TrainingResult to a JSON file; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(training_result_to_dict(result), indent=2))
    return path


def load_training_result(path: Union[str, Path]) -> TrainingResult:
    """Read a TrainingResult JSON file back."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no result file at {path}")
    return training_result_from_dict(json.loads(path.read_text()))
