"""Canonical byte encoding and hashing.

Every hash, signature payload, and persisted line in this package is
computed over the same canonical form: JSON with lexicographically
sorted keys, compact separators, UTF-8 encoding, and no ASCII escaping.
Byte values (hashes, addresses, keys, signatures) enter canonical
documents as lowercase hex strings with a ``0x`` prefix.  Hashing any
non-canonical form is a defect.
"""

from __future__ import annotations

import hashlib
import json
import re
from typing import Any

HASH_BYTES = 32
ADDRESS_BYTES = 20

ZERO_HASH = "0x" + "00" * HASH_BYTES

_HASH_RE = re.compile(r"0x[0-9a-f]{64}\Z")
_ADDRESS_RE = re.compile(r"0x[0-9a-f]{40}\Z")

# The encoder json.dumps would build on every call with these settings.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def canonical_serialize(value: Any) -> bytes:
    """Serialize plain dicts/lists/scalars to canonical JSON bytes."""
    return _ENCODER.encode(value).encode("utf-8")


def hash_of(data: bytes) -> str:
    """SHA-256 digest of raw bytes, rendered as 0x hex."""
    return "0x" + hashlib.sha256(data).hexdigest()


def hash_obj(value: Any) -> str:
    """SHA-256 over the canonical serialization of a value."""
    return hash_of(canonical_serialize(value))


def to_hex(raw: bytes) -> str:
    return "0x" + raw.hex()


def from_hex(value: str) -> bytes:
    if not isinstance(value, str) or not value.startswith("0x"):
        raise ValueError(f"expected 0x-prefixed hex string, got {value!r}")
    return bytes.fromhex(value[2:])


def is_hash_str(value: Any) -> bool:
    return isinstance(value, str) and _HASH_RE.match(value) is not None


def is_address_str(value: Any) -> bool:
    return isinstance(value, str) and _ADDRESS_RE.match(value) is not None


# Strict field checks shared by the registry and ledger decoders: each
# raises ValueError naming the field.  Internal to the package.


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


def _as_int(value: Any, name: str, minimum: int = 0) -> int:
    _require(isinstance(value, int) and not isinstance(value, bool), f"{name} must be an integer")
    _require(value >= minimum, f"{name} must be >= {minimum}")
    return value


def _as_str(value: Any, name: str) -> str:
    _require(isinstance(value, str), f"{name} must be a string")
    return value


def _as_address(value: Any, name: str) -> str:
    _require(is_address_str(value), f"{name} must be a 0x-prefixed 20-byte hex address")
    return value
