"""JSON documents: complex tensors as nested [re, im] pairs, and fields."""
from __future__ import annotations

import numbers

import numpy as np


def encode_complex(arr) -> list:
    """Nested lists where every complex entry becomes [re, im]."""
    a = np.asarray(arr, dtype=complex)
    stacked = np.stack([a.real, a.imag], axis=-1)
    return stacked.tolist()


def decode_complex(data) -> np.ndarray:
    """Inverse of encode_complex."""
    a = np.asarray(data, dtype=float)
    if a.ndim == 0 or a.shape[-1] != 2:
        raise ValueError("complex payload must consist of [re, im] pairs")
    return a[..., 0] + 1j * a[..., 1]


def document_field(doc, key: str, error: type[Exception], what: str):
    """doc[key]; else `error`, naming the key or saying doc is no object."""
    if not isinstance(doc, dict):
        raise error(f"{what} must be a JSON object, got {doc!r}")
    if key not in doc:
        raise error(f"{what} is missing {key!r}")
    return doc[key]


def document_number(doc: dict, key: str, error: type[Exception], what: str,
                    default=None, integer: bool = False):
    """A number field: int or float (int only if `integer`), never null,
    bool or str. A missing key reads as `default`; without one, `error`."""
    if default is not None and key not in doc:
        return default
    value = document_field(doc, key, error, what)
    kind, noun = (numbers.Integral, "an integer") if integer else (numbers.Real, "a number")
    if isinstance(value, bool) or not isinstance(value, kind):
        raise error(f"{what} {key!r} must be {noun}, got {value!r}")
    return int(value) if integer else float(value)
