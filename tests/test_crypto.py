import hashlib

from acprov import crypto
from acprov.canonical import from_hex

# Ed25519 test vector 1 (empty message) from the signature scheme's
# original published vectors.
TV1_SECRET = bytes.fromhex(
    "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60"
)
TV1_PUBLIC = "0xd75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a"
TV1_SIG = (
    "0xe5564300c360ac729086e2cc806e828a"
    "84877f1eb8e5d974d873e06522490155"
    "5fb8821590a33bacc61e39701cf9b46b"
    "d25bf5f0595bbe24655141438e7a100b"
)


class TestKeyPair:
    def test_known_vector_public_key(self):
        kp = crypto.KeyPair.from_seed(TV1_SECRET)
        assert kp.public_key == TV1_PUBLIC

    def test_known_vector_signature(self):
        kp = crypto.KeyPair.from_seed(TV1_SECRET)
        assert kp.sign(b"") == TV1_SIG

    def test_sign_verify_round_trip(self):
        kp = crypto.KeyPair.from_seed(b"\x01" * 32)
        msg = b"state transition payload"
        assert crypto.verify(kp.public_key, msg, kp.sign(msg))

    def test_seed_length_enforced(self):
        import pytest

        with pytest.raises(ValueError):
            crypto.KeyPair.from_seed(b"\x01" * 31)

    def test_repr_hides_the_secret_key(self):
        kp = crypto.KeyPair.from_seed(TV1_SECRET)
        assert kp.public_key in repr(kp)
        assert TV1_SECRET.hex() not in repr(kp)

    def test_generate_produces_distinct_keys(self):
        a, b = crypto.KeyPair.generate(), crypto.KeyPair.generate()
        assert a.secret_key != b.secret_key


class TestVerify:
    def test_rejects_flipped_message_bit(self):
        kp = crypto.KeyPair.from_seed(b"\x02" * 32)
        sig = kp.sign(b"hello")
        assert not crypto.verify(kp.public_key, b"hellp", sig)

    def test_rejects_flipped_signature_bit(self):
        kp = crypto.KeyPair.from_seed(b"\x03" * 32)
        sig = kp.sign(b"hello")
        raw = bytearray(from_hex(sig))
        raw[0] ^= 0x01
        bad = "0x" + raw.hex()
        assert not crypto.verify(kp.public_key, b"hello", bad)

    def test_rejects_wrong_key(self):
        a = crypto.KeyPair.from_seed(b"\x04" * 32)
        b = crypto.KeyPair.from_seed(b"\x05" * 32)
        sig = a.sign(b"hello")
        assert not crypto.verify(b.public_key, b"hello", sig)

    def test_garbage_inputs_return_false(self):
        kp = crypto.KeyPair.from_seed(b"\x06" * 32)
        assert not crypto.verify("", b"x", kp.sign(b"x"))
        assert not crypto.verify(kp.public_key, b"x", "0x00")
        assert not crypto.verify("0x1234", b"x", "not-hex")


class TestAddress:
    def test_trailing_twenty_bytes_of_key_digest(self):
        kp = crypto.KeyPair.from_seed(b"\x07" * 32)
        digest = hashlib.sha256(from_hex(kp.public_key)).digest()
        assert kp.address == "0x" + digest[-20:].hex()

    def test_shape(self):
        kp = crypto.KeyPair.from_seed(b"\x08" * 32)
        assert len(kp.address) == 42 and kp.address.startswith("0x")

    def test_distinct_keys_distinct_addresses(self):
        seen = {crypto.KeyPair.from_seed(bytes([i]) * 32).address for i in range(1, 30)}
        assert len(seen) == 29, "address derivation collided on trivial seeds"
