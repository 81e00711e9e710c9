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
from collections.abc import Mapping
from enum import Enum
from functools import lru_cache, partial
from typing import Any, Callable, ClassVar, Dict, FrozenSet, Optional, Tuple

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
# raises ValueError naming the field.  Internal to the package.  The checks
# run once per member of every record a read decodes, so each formats its
# message only when it raises.


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


def _as_int(value: Any, name: str, minimum: Optional[int] = 0) -> int:
    """An integer of at least minimum; None means no bound."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}")
    return value


def _as_str(value: Any, name: str) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{name} must be a string")
    return value


def _as_address(value: Any, name: str) -> str:
    if not is_address_str(value):
        raise ValueError(f"{name} must be a 0x-prefixed 20-byte hex address")
    return value


def _as_hash(value: Any, name: str) -> str:
    if not is_hash_str(value):
        raise ValueError(f"{name} must be a 32-byte 0x hash")
    return value


def _one_of(enum: type) -> Callable[[Any, str], Any]:
    """Check of a member holding one of enum's values; gives the enum member."""
    members = {member.value: member for member in enum}

    def check(value: Any, name: str) -> Any:
        if not isinstance(value, str) or value not in members:
            raise ValueError(f"{name} must be one of {', '.join(members)}")
        return members[value]

    return check


def _optional(check: Callable[[Any, str], Any]) -> Callable[[Any, str], Any]:
    return lambda value, name: None if value is None else check(value, name)


def _list_of(check: Callable[[Any, str], Any]) -> Callable[[Any, str], tuple]:
    def check_list(value: Any, name: str) -> tuple:
        if not isinstance(value, list):
            raise ValueError(f"{name} must be a list")
        entry = f"{name} entry"
        return tuple(check(item, entry) for item in value)

    return check_list


def _dict_of(check: Callable[[Any, str], Any]) -> Callable[[Any, str], dict]:
    """Check of a member mapping names to values that each pass check."""

    def check_dict(value: Any, name: str) -> dict:
        if not isinstance(value, Mapping):
            raise ValueError(f"{name} must be an object")
        return {key: check(item, f"{name} entry {key}") for key, item in value.items()}

    return check_dict


def _is_class_var(annotation: Any) -> bool:
    """Whether an annotation, a string under postponed evaluation or a
    typing object, is ClassVar or ClassVar[...]."""
    text = annotation if isinstance(annotation, str) else repr(annotation)
    return text.split("[", 1)[0].strip().rsplit(".", 1)[-1] == "ClassVar"


def _values(record: "Record") -> tuple:
    """The record's field values, in field order."""
    return tuple(map(record.__dict__.__getitem__, record.FIELDS))


class Record:
    """A frozen value with named fields: the base of every record class.

    A class's fields are its annotations other than ClassVar ones, after
    those of the record classes it derives from, and a field's default is
    the class attribute of its name.  At class creation they become FIELDS
    and DEFAULTS, and the class gets an ``__init__`` made for them, which
    takes the fields as parameters in order, writes them into the
    instance's ``__dict__`` and then calls ``__post_init__`` if the class
    has one.  A field that a class lists in SECRET stays out of its repr.
    An instance cannot be assigned to; ``functools.cached_property`` still
    works, since it writes the instance's ``__dict__``.  Two records are
    equal when they are of the same class with equal fields.
    """

    FIELDS: ClassVar[Tuple[str, ...]] = ()
    DEFAULTS: ClassVar[Dict[str, Any]] = {}
    SECRET: ClassVar[Tuple[str, ...]] = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        names, defaults = list(cls.FIELDS), dict(cls.DEFAULTS)
        for name, annotation in cls.__dict__.get("__annotations__", {}).items():
            if _is_class_var(annotation):
                continue
            if name not in names:
                names.append(name)
            if name in cls.__dict__:
                defaults[name] = cls.__dict__[name]
            else:
                defaults.pop(name, None)
        params = ["self"] + [f"{name}=_defaults[{name!r}]" if name in defaults else name for name in names]
        lines = [
            f"def __init__({', '.join(params)}):",
            "    self.__dict__.update({%s})" % ", ".join(f"{name!r}: {name}" for name in names),
        ]
        if hasattr(cls, "__post_init__"):
            lines.append("    self.__post_init__()")
        namespace = {"_defaults": defaults}
        exec("\n".join(lines), namespace)
        cls.__init__ = namespace["__init__"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"
        cls.FIELDS, cls.DEFAULTS = tuple(names), defaults

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: Any) -> Any:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return _values(self) == _values(other)

    def __hash__(self) -> int:
        return hash(_values(self))

    def __repr__(self) -> str:
        shown = ", ".join(
            f"{name}={value!r}"
            for name, value in zip(self.FIELDS, _values(self))
            if name not in self.SECRET
        )
        return f"{type(self).__qualname__}({shown})"

    def replace(self, **changes: Any) -> "Record":
        """A record of the same class with the given fields changed."""
        return type(self)(**{**dict(zip(self.FIELDS, _values(self))), **changes})


# Records.  A record is a frozen Record whose CHECKS class attribute maps
# each field to its check.  Its canonical object has one member per field,
# plus "type" when the class has a TYPE, and nothing else; its decoder
# requires exactly those members and checks each.  The field list is thus
# written only in the class and its CHECKS table.  This holds for the chain
# and state records and for the config files too: the genesis, its gas
# parameters, a scenario and its tamper plan.  A config record's validate()
# adds only the rules that span members.  A config file may leave out the
# members of a scenario or of gas parameters that have a default (_record's
# defaults); a chain record may not.


@lru_cache(maxsize=None)
def _layout(cls: type) -> Tuple[FrozenSet[str], str]:
    """A record class's member set, and the listing of its members that a
    member-set error gives."""
    members = (("type",) if hasattr(cls, "TYPE") else ()) + cls.FIELDS
    listing = f"field {members[0]} only" if len(members) == 1 else f"fields {', '.join(members)}"
    return frozenset(members), listing


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
    doc = {name: _plain(getattr(record, name)) for name in record.FIELDS}
    if hasattr(record, "TYPE"):
        doc["type"] = record.TYPE
    return doc


def _decode(cls: type, doc: Any, what: str, checks: Optional[Mapping] = None) -> Any:
    """The record of class cls that doc is the canonical object of, each
    member checked by its entry in checks (cls.CHECKS by default);
    ValueError, naming the member, for any misfit."""
    if not isinstance(doc, Mapping):
        raise ValueError(f"{what} must be an object")
    members, listing = _layout(cls)
    if doc.keys() != members:
        raise ValueError(f"{what} has {listing}")
    checks = checks or cls.CHECKS
    return cls(**{name: checks[name](doc[name], name) for name in cls.FIELDS})


def _check_fields(record: Any) -> None:
    """Raise the ValueError _decode would give for a member of record."""
    checks = record.CHECKS
    for name in record.FIELDS:
        checks[name](_plain(getattr(record, name)), name)


def _record(cls: type, defaults: bool = False) -> Callable[[Any, str], Any]:
    """Check of a member holding a record of class cls; with defaults, each
    member left out that has a default takes that default."""
    if not defaults:
        return lambda value, name: _decode(cls, value, name)
    filled = {name: _plain(default) for name, default in cls.DEFAULTS.items()}
    return lambda value, name: _decode(
        cls, {**filled, **value} if isinstance(value, Mapping) else value, name
    )


class _Records(Mapping):
    """A read-only map of records, each decoded from its canonical object
    when it is first read, and every one once the map is iterated.  A
    record that fails to decode is read from misfit(), a map of the same
    records that is made another way (or that raises why it cannot be)."""

    def __init__(self, docs: Mapping, decode: Callable[[str, Any], Any], misfit: Callable[[], Mapping]):
        self._docs, self._decode, self._misfit, self._done = docs, decode, misfit, {}

    def __getitem__(self, key: str) -> Any:
        done = self._done
        if key not in done:
            doc = self._docs[key]
            try:
                done[key] = self._decode(key, doc)
            except ValueError:
                done[key] = self._misfit()[key]
        return done[key]

    def __iter__(self):
        for key in self._docs:
            self[key]
        return iter(self._docs)

    def __len__(self) -> int:
        return len(self._docs)


def _map_of(
    cls: type, key: str, misfit: Optional[Callable[[], Mapping]] = None
) -> Callable[[Any, str], Mapping]:
    """Check of a member mapping each record's own ``key`` member to the
    record.  With misfit, the records are decoded as they are read: the
    check gives a _Records map that reads a record that fails to decode
    from misfit()."""

    def entry(name: str, k: str, doc: Any) -> Any:
        record = _decode(cls, doc, f"{name} entry {k}")
        if getattr(record, key) != k:
            raise ValueError(f"{name} entry {k} holds another {key}")
        return record

    def check(value: Any, name: str) -> Mapping:
        if not isinstance(value, Mapping):
            raise ValueError(f"{name} must be an object")
        if misfit is not None:
            return _Records(value, partial(entry, name), misfit)
        return {k: entry(name, k, doc) for k, doc in value.items()}

    return check
