import typing
from collections.abc import Mapping
from enum import Enum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acprov import canonical, gas, ledger, qr, registry, simnet  # noqa: F401  (every record class)

# sha256 of zero bytes, the best-known digest there is
EMPTY_SHA256 = "0xe3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"


class TestCanonicalSerialize:
    def test_key_order_is_irrelevant(self):
        a = canonical.canonical_serialize({"b": 1, "a": 2})
        b = canonical.canonical_serialize({"a": 2, "b": 1})
        assert a == b == b'{"a":2,"b":1}'

    def test_compact_separators(self):
        raw = canonical.canonical_serialize({"k": [1, 2, {"x": None}]})
        assert b" " not in raw, f"canonical form must carry no padding: {raw!r}"

    def test_unicode_stays_utf8(self):
        raw = canonical.canonical_serialize({"name": "Ünït"})
        assert raw == '{"name":"Ünït"}'.encode("utf-8")

    def test_nested_sorting(self):
        raw = canonical.canonical_serialize({"z": {"b": 1, "a": 1}, "a": 0})
        assert raw == b'{"a":0,"z":{"a":1,"b":1}}'

    @given(st.dictionaries(st.text(max_size=8), st.integers(), max_size=6))
    def test_serialization_is_permutation_stable(self, doc):
        shuffled = dict(reversed(list(doc.items())))
        assert canonical.canonical_serialize(doc) == canonical.canonical_serialize(shuffled)


class TestHashing:
    def test_empty_digest(self):
        assert canonical.hash_of(b"") == EMPTY_SHA256

    def test_hash_obj_is_hash_of_canonical_bytes(self):
        doc = {"n": 5, "tag": "x"}
        assert canonical.hash_obj(doc) == canonical.hash_of(canonical.canonical_serialize(doc))

    def test_hash_shape(self):
        digest = canonical.hash_of(b"abc")
        assert canonical.is_hash_str(digest), f"not a hash string: {digest}"
        assert digest.startswith("0x") and len(digest) == 66


class TestHex:
    def test_round_trip(self):
        raw = bytes(range(20))
        assert canonical.from_hex(canonical.to_hex(raw)) == raw

    def test_lowercase(self):
        assert canonical.to_hex(b"\xab\xcd") == "0xabcd"

    def test_from_hex_requires_prefix(self):
        with pytest.raises(ValueError):
            canonical.from_hex("abcd")

    def test_from_hex_rejects_junk(self):
        with pytest.raises(ValueError):
            canonical.from_hex("0xzz")

    @given(st.binary(max_size=64))
    def test_hex_round_trip_any_bytes(self, raw):
        assert canonical.from_hex(canonical.to_hex(raw)) == raw


class TestShapePredicates:
    def test_hash_str(self):
        assert canonical.is_hash_str("0x" + "0" * 64)
        assert not canonical.is_hash_str("0x" + "0" * 40)
        assert not canonical.is_hash_str("0x" + "G" * 64)
        assert not canonical.is_hash_str("0x" + "0" * 64 + "00")
        assert not canonical.is_hash_str(None)

    def test_address_str(self):
        assert canonical.is_address_str("0x" + "a" * 40)
        assert not canonical.is_address_str("0x" + "A" * 40), "addresses are lowercase"
        assert not canonical.is_address_str("0x" + "a" * 64)

    def test_zero_hash_is_a_hash(self):
        assert canonical.is_hash_str(canonical.ZERO_HASH)


class TestRecord:
    """The base every record class derives from: dataclass-like fields,
    defaults, replace and equality, made without dataclasses."""

    ADDRESS = "0x" + "ab" * 20

    def test_kinds_with_equal_fields_are_unequal(self):
        from acprov.registry import Sell, Transfer

        transfer, sell = Transfer("P-1", self.ADDRESS), Sell("P-1", self.ADDRESS)
        assert transfer != sell and not transfer == sell
        assert transfer == Transfer(product_id="P-1", new_owner=self.ADDRESS)
        assert hash(transfer) == hash(Transfer("P-1", self.ADDRESS))
        assert transfer != Transfer("P-2", self.ADDRESS)

    def test_fields_cannot_be_assigned_or_deleted(self):
        from acprov.registry import Register

        kind = Register("P-1", "Widget")
        for name in ("product_id", "metadata", "unknown"):
            with pytest.raises(AttributeError):
                setattr(kind, name, "x")
            with pytest.raises(AttributeError):
                delattr(kind, name)
        assert kind == Register("P-1", "Widget", "")

    def test_defaults_and_replace(self):
        from acprov import gas, ledger, registry

        kind = registry.Register("P-1", "Widget")
        assert registry.Register.FIELDS == ("product_id", "name", "metadata")
        assert registry.Register.DEFAULTS == {"metadata": ""}
        assert kind.metadata == "" and repr(kind) == "Register(product_id='P-1', name='Widget', metadata='')"
        with pytest.raises(TypeError):
            registry.Register("P-1")
        with pytest.raises(TypeError):
            registry.Register("P-1", "Widget", "", "extra")

        changed = kind.replace(name="Gadget")
        assert changed == registry.Register("P-1", "Gadget") and changed is not kind
        assert kind.name == "Widget"
        assert kind.replace() == kind and kind.replace() is not kind
        with pytest.raises(TypeError):
            kind.replace(colour="red")

        genesis = ledger.GenesisConfig()
        assert (genesis.chain_id, genesis.authorities, genesis.roles) == (5, (), {})
        assert genesis.gas_params == gas.GasParams() and genesis.account_keys == {}
        with pytest.raises(TypeError):
            genesis.roles["0x" + "00" * 20] = registry.Role.AUTHORITY  # a shared default is read-only
        assert ledger.GenesisConfig(chain_id=7).replace(chain_id=5) == genesis

    def test_a_subclass_gets_its_fields_and_post_init(self):
        from typing import ClassVar

        class Pair(canonical.Record):
            KIND: ClassVar[str] = "pair"
            low: int
            high: int = 10

            def __post_init__(self):
                if self.low > self.high:
                    raise ValueError("low above high")

        class Triple(Pair):
            label: str = ""

        assert Pair.FIELDS == ("low", "high") and Triple.FIELDS == ("low", "high", "label")
        assert Triple(1, label="x") == Triple(1, 10, "x") != Pair(1, 10)
        with pytest.raises(ValueError, match="low above high"):
            Pair(11)
        with pytest.raises(ValueError, match="low above high"):
            Triple(1).replace(low=12)
        assert repr(Triple(1)).endswith(".Triple(low=1, high=10, label='')")


# Every record class that has a canonical object, and the function that
# makes it: the classes that define to_canonical, and the five kinds.
def _encoded_classes():
    def below(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from below(sub)

    with_object = [cls for cls in below(canonical.Record) if "to_canonical" in vars(cls)]
    kinds = list(typing.get_args(registry.TxKind))
    return [(cls, cls.to_canonical) for cls in with_object] + [(cls, canonical._canonical) for cls in kinds]


ENCODED = _encoded_classes()

# Strings with what an escaper can get wrong: quotes, backslashes, control
# characters, non-ASCII and lone surrogates (which cannot be UTF-8).
TEXT = st.text(
    st.one_of(
        st.sampled_from('"\\/\x00\x1f\x7f é€😀'),
        st.characters(),
        st.characters(categories=["Cs"]),
    ),
    max_size=6,
)
INTS = st.one_of(st.integers(-1000, 1000), st.integers(-(2**200), 2**200))
JSON = st.recursive(
    st.none() | st.booleans() | INTS | TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(TEXT, inner, max_size=3),
    max_leaves=6,
)


def _values(tp, positive=False):
    """A strategy for values of the annotation tp."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if tp is str:
        return TEXT
    if tp is int:
        return st.integers(1, 2**70) if positive else INTS
    if tp is bool:
        return st.booleans()
    if tp is typing.Any:
        return JSON
    if isinstance(tp, type) and issubclass(tp, Enum):
        return st.sampled_from(list(tp))
    if isinstance(tp, type) and issubclass(tp, canonical.Record):
        return _records(tp)
    if origin is typing.Union:
        return st.one_of([st.none() if arg is type(None) else _values(arg) for arg in args])
    if origin is tuple and args[-1] is Ellipsis:
        return st.lists(_values(args[0]), max_size=3).map(tuple)
    if origin is tuple:
        return st.tuples(*map(_values, args))
    if isinstance(origin, type) and issubclass(origin, Mapping):
        return st.dictionaries(TEXT, _values(args[1]), max_size=3)
    raise AssertionError(f"no strategy for {tp!r}")


def _records(cls):
    if cls is registry.RegistryState:  # each map keyed by its records' own key, as the decoder demands
        return st.builds(
            lambda chain_id, contract, accounts, products: cls(
                chain_id, contract,
                {a.address: a for a in accounts}, {p.product_id: p for p in products},
            ),
            INTS, _values(typing.Optional[registry.ContractInfo]),
            st.lists(_records(registry.Account), max_size=3),
            st.lists(_records(registry.ProductRecord), max_size=3),
        )
    types = typing.get_type_hints(cls)
    positive = cls is gas.GasParams  # its __post_init__ demands it
    return st.builds(cls, **{name: st.deferred(lambda tp=types[name]: _values(tp, positive)) for name in cls.FIELDS})


def _outcome(make):
    """What make() gives, or the class of what it raises."""
    try:
        return make()
    except Exception as exc:
        return type(exc)


@pytest.mark.parametrize("cls, to_canonical", ENCODED, ids=[cls.__name__ for cls, _ in ENCODED])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_a_records_encoder_gives_the_json_encoders_bytes(cls, to_canonical, data):
    """Each class's generated encoder gives the bytes canonical_serialize
    gives for the record's canonical object, or both raise alike."""
    record = data.draw(_records(cls))
    assert _outcome(record.to_bytes) == _outcome(
        lambda: canonical.canonical_serialize(to_canonical(record))
    )


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_the_joined_encodings_give_the_json_encoders_bytes(data):
    """The bytes made from a record's encoder: an account's and a product's
    member of the state, and an envelope's signing payload."""
    serialize = canonical.canonical_serialize
    account, product, tx = (
        data.draw(_records(cls)) for cls in (registry.Account, registry.ProductRecord, registry.TxEnvelope)
    )
    chain_id = data.draw(INTS)
    doc = tx.to_canonical()
    del doc["signature"]
    for made, expected in [
        (lambda: account.canonical_bytes, lambda: serialize({account.address: account.to_canonical()})[1:-1]),
        (lambda: product.canonical_bytes, lambda: serialize({product.product_id: product.to_canonical()})[1:-1]),
        (lambda: tx.signing_payload(chain_id), lambda: serialize({**doc, "chain_id": chain_id})),
    ]:
        assert _outcome(made) == _outcome(expected)
