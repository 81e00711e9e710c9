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
from dataclasses import MISSING, fields
from enum import Enum
from functools import lru_cache
from typing import Any, Callable, FrozenSet, Mapping, Optional, Tuple

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


def _as_int(value: Any, name: str, minimum: Optional[int] = 0) -> int:
    """An integer of at least minimum; None means no bound."""
    _require(isinstance(value, int) and not isinstance(value, bool), f"{name} must be an integer")
    _require(minimum is None or value >= minimum, f"{name} must be >= {minimum}")
    return value


def _as_str(value: Any, name: str) -> str:
    _require(isinstance(value, str), f"{name} must be a string")
    return value


def _as_address(value: Any, name: str) -> str:
    _require(is_address_str(value), f"{name} must be a 0x-prefixed 20-byte hex address")
    return value


def _as_hash(value: Any, name: str) -> str:
    _require(is_hash_str(value), f"{name} must be a 32-byte 0x hash")
    return value


def _one_of(enum: type) -> Callable[[Any, str], Any]:
    """Check of a member holding one of enum's values; gives the enum member."""
    members = {member.value: member for member in enum}

    def check(value: Any, name: str) -> Any:
        _require(isinstance(value, str) and value in members, f"{name} must be one of {', '.join(members)}")
        return members[value]

    return check


def _optional(check: Callable[[Any, str], Any]) -> Callable[[Any, str], Any]:
    return lambda value, name: None if value is None else check(value, name)


def _list_of(check: Callable[[Any, str], Any]) -> Callable[[Any, str], tuple]:
    def check_list(value: Any, name: str) -> tuple:
        _require(isinstance(value, list), f"{name} must be a list")
        return tuple(check(item, f"{name} entry") for item in value)

    return check_list


def _dict_of(check: Callable[[Any, str], Any]) -> Callable[[Any, str], dict]:
    """Check of a member mapping names to values that each pass check."""

    def check_dict(value: Any, name: str) -> dict:
        _require(isinstance(value, Mapping), f"{name} must be an object")
        return {key: check(item, f"{name} entry {key}") for key, item in value.items()}

    return check_dict


# Records.  A record is a frozen dataclass whose CHECKS class attribute maps
# each init field to its check.  Its canonical object has one member per
# init field, plus "type" when the class has a TYPE, and nothing else; its
# decoder requires exactly those members and checks each.  The field list
# is thus written only in the dataclass and its CHECKS table.  This holds
# for the chain and state records and for the config files too: the
# genesis, its gas parameters, a scenario and its tamper plan.  A config
# record's validate() adds only the rules that span members.  A config
# file may leave out the members of a scenario or of gas parameters that
# have a dataclass default (_record's defaults); a chain record may not.


@lru_cache(maxsize=None)
def _layout(cls: type) -> Tuple[Tuple[str, ...], FrozenSet[str], str]:
    """A record class's init fields, its member set, and the listing of
    its members that a member-set error gives."""
    names = tuple(f.name for f in fields(cls) if f.init)
    members = (("type",) if hasattr(cls, "TYPE") else ()) + names
    listing = f"field {members[0]} only" if len(members) == 1 else f"fields {', '.join(members)}"
    return names, frozenset(members), listing


_SCALARS = frozenset({str, int, bool, type(None)})


def _plain(value: Any) -> Any:
    """A record member's value as canonical data."""
    if type(value) in _SCALARS:
        return value
    if isinstance(value, Enum):
        return value._value_
    if isinstance(value, (tuple, list)):
        return [_plain(item) for item in value]
    if isinstance(value, Mapping):
        return {key: _plain(item) for key, item in value.items()}
    return _canonical(value)


def _canonical(record: Any) -> dict:
    """The record's canonical object."""
    doc = {name: _plain(getattr(record, name)) for name in _layout(type(record))[0]}
    if hasattr(record, "TYPE"):
        doc["type"] = record.TYPE
    return doc


def _decode(cls: type, doc: Any, what: str) -> Any:
    """The record of class cls that doc is the canonical object of;
    ValueError, naming the member, for any misfit."""
    _require(isinstance(doc, Mapping), f"{what} must be an object")
    names, members, listing = _layout(cls)
    _require(doc.keys() == members, f"{what} has {listing}")
    checks = cls.CHECKS
    return cls(**{name: checks[name](doc[name], name) for name in names})


def _check_fields(record: Any) -> None:
    """Raise the ValueError _decode would give for a member of record."""
    checks = record.CHECKS
    for name in _layout(type(record))[0]:
        checks[name](_plain(getattr(record, name)), name)


def _record(cls: type, defaults: bool = False) -> Callable[[Any, str], Any]:
    """Check of a member holding a record of class cls; with defaults, each
    member left out that has a dataclass default takes that default."""
    if not defaults:
        return lambda value, name: _decode(cls, value, name)
    filled = {f.name: _plain(f.default) for f in fields(cls) if f.default is not MISSING}
    return lambda value, name: _decode(
        cls, {**filled, **value} if isinstance(value, Mapping) else value, name
    )


def _map_of(cls: type, key: str) -> Callable[[Any, str], dict]:
    """Check of a member mapping each record's own ``key`` member to the record."""

    def check(value: Any, name: str) -> dict:
        _require(isinstance(value, Mapping), f"{name} must be an object")
        records = {}
        for k, doc in value.items():
            record = records[k] = _decode(cls, doc, f"{name} entry {k}")
            _require(getattr(record, key) == k, f"{name} entry {k} holds another {key}")
        return records

    return check
