import pytest
from hypothesis import given
from hypothesis import strategies as st

from acprov import canonical

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
