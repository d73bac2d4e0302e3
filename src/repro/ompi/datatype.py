"""Payload sizing and (de)serialization helpers.

Payloads are ordinary Python objects.  NumPy arrays and byte strings
travel "as is" with their true size; anything else is sized by its
pickle.  ``copy_payload`` is used when a message is buffered into the
unexpected queue (MPI semantics: the sender's buffer is reusable after
send completion, so buffered data must be an independent copy).
"""

from __future__ import annotations

import pickle
from typing import Any

import numpy as np


def nbytes_of(payload: Any) -> int:
    """True wire size of a payload in bytes."""
    if payload is None:
        return 0
    if isinstance(payload, (bytes, bytearray, memoryview)):
        return len(payload)
    if isinstance(payload, np.ndarray):
        return int(payload.nbytes)
    if isinstance(payload, (bool, int, float, complex)):
        return 16
    try:
        return len(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))
    except (pickle.PicklingError, TypeError, AttributeError):
        return 64


def copy_payload(payload: Any) -> Any:
    """Independent copy for buffering; cheap for immutable types."""
    if payload is None or isinstance(
        payload, (bytes, str, bool, int, float, complex, frozenset, tuple)
    ):
        return payload
    if isinstance(payload, np.ndarray):
        return payload.copy()
    return pickle.loads(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))
