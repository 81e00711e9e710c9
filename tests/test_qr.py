import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from acprov import qr, registry

CONTRACT = "0x" + "ab" * 20
ID_ALPHABET = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789._-"


def crc32_reference(data: bytes) -> int:
    """Bitwise CRC-32 (reflected, poly 0xEDB88320), written from scratch."""
    crc = 0xFFFFFFFF
    for byte in data:
        crc ^= byte
        for _ in range(8):
            crc = (crc >> 1) ^ (0xEDB88320 if crc & 1 else 0)
    return crc ^ 0xFFFFFFFF


class TestChecksum:
    def test_standard_check_value(self):
        assert qr.checksum(b"123456789") == 0xCBF43926
        assert crc32_reference(b"123456789") == 0xCBF43926

    def test_empty_input(self):
        assert qr.checksum(b"") == 0 == crc32_reference(b"")

    @given(st.binary(max_size=80))
    def test_matches_reference_implementation(self, data):
        assert qr.checksum(data) == crc32_reference(data)


class TestEncode:
    def test_layout(self):
        payload = qr.encode_payload(5, CONTRACT, "P-001")
        body = f"acp:v1:5:{CONTRACT}:P-001"
        assert payload == f"{body}:{qr.checksum(body.encode()):08x}"

    def test_checksum_is_zero_padded(self):
        # product id chosen so the CRC of the body starts with a zero nibble
        for i in range(200):
            body = f"acp:v1:5:{CONTRACT}:P-{i:03d}"
            if qr.checksum(body.encode()) < 0x10000000:
                payload = qr.encode_payload(5, CONTRACT, f"P-{i:03d}")
                assert len(payload.rsplit(":", 1)[1]) == 8
                return
        pytest.fail("no product id produced a small checksum in 200 tries")

    def test_rejects_bad_product_id(self):
        with pytest.raises(qr.BadProductId):
            qr.encode_payload(5, CONTRACT, "no spaces")

    def test_rejects_bad_chain_id(self):
        with pytest.raises(qr.BadStructure):
            qr.encode_payload(0, CONTRACT, "P-001")
        with pytest.raises(qr.BadStructure):
            qr.encode_payload(True, CONTRACT, "P-001")

    def test_rejects_bad_contract(self):
        with pytest.raises(qr.BadStructure):
            qr.encode_payload(5, "0xABC", "P-001")


class TestDecode:
    def test_round_trip(self):
        payload = qr.encode_payload(5, CONTRACT, "P-001")
        decoded = qr.decode_payload(payload)
        assert decoded.chain_id == 5
        assert decoded.contract == CONTRACT
        assert decoded.product_id == "P-001"
        assert decoded.version == 1
        assert qr.encode_payload(decoded.chain_id, decoded.contract, decoded.product_id) == payload

    def test_bad_prefix(self):
        with pytest.raises(qr.BadPrefix):
            qr.decode_payload("apc:v1:5:x:y:00000000")

    def test_unknown_version_is_bad_prefix(self):
        with pytest.raises(qr.BadPrefix):
            qr.decode_payload(f"acp:v2:5:{CONTRACT}:P-001:00000000")

    def test_wrong_field_count(self):
        with pytest.raises(qr.BadStructure):
            qr.decode_payload(f"acp:v1:5:{CONTRACT}:P-001")

    def test_zero_or_padded_chain_id(self):
        for chain in ("0", "05", "x"):
            payload = f"acp:v1:{chain}:{CONTRACT}:P-001:00000000"
            with pytest.raises(qr.BadStructure):
                qr.decode_payload(payload)

    def test_uppercase_contract_rejected(self):
        payload = f"acp:v1:5:{CONTRACT.upper()}:P-001:00000000"
        with pytest.raises(qr.BadStructure):
            qr.decode_payload(payload)

    def test_bad_product_id_field(self):
        payload = f"acp:v1:5:{CONTRACT}:ünit:00000000"
        with pytest.raises(qr.BadStructure):
            qr.decode_payload(payload)

    def test_malformed_checksum_field(self):
        body = f"acp:v1:5:{CONTRACT}:P-001"
        for field in ("1234567", "123456789", "ABCDEF01"):
            with pytest.raises(qr.BadStructure):
                qr.decode_payload(f"{body}:{field}")

    def test_checksum_mismatch(self):
        payload = qr.encode_payload(5, CONTRACT, "P-001")
        tail = payload[-1]
        flipped = payload[:-1] + ("0" if tail != "0" else "1")
        with pytest.raises(qr.ChecksumMismatch):
            qr.decode_payload(flipped)

    @given(
        st.integers(min_value=1, max_value=10**9),
        st.text(alphabet=ID_ALPHABET, min_size=1, max_size=64),
    )
    def test_round_trip_any_valid_payload(self, chain_id, product_id):
        payload = qr.encode_payload(chain_id, CONTRACT, product_id)
        decoded = qr.decode_payload(payload)
        assert (decoded.chain_id, decoded.product_id) == (chain_id, product_id)


class TestCorruption:
    def test_every_single_char_substitution_is_caught(self):
        """Exhaustive over positions for one payload, sampled replacements."""
        rng = random.Random(11)
        pool = ID_ALPHABET + ":;|{}@ "
        payload = qr.encode_payload(5, CONTRACT, "P-001")
        for position in range(len(payload)):
            original = payload[position]
            replacement = rng.choice([c for c in pool if c != original])
            corrupted = payload[:position] + replacement + payload[position + 1 :]
            with pytest.raises(qr.PayloadError):
                qr.decode_payload(corrupted)

    def test_contract_binding(self):
        # a payload for another contract decodes fine but names that contract,
        # which is what the verifying CLI refuses to accept
        other = registry.contract_address("0x" + "9" * 40, 0)
        decoded = qr.decode_payload(qr.encode_payload(5, other, "P-001"))
        assert decoded.contract == other != CONTRACT
