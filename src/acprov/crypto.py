"""Ed25519 keys, signatures, and address derivation.

Addresses follow the Ethereum convention of truncated key hashes: the
trailing 20 bytes of the SHA-256 digest of the raw 32-byte public key.
Signature verification is memoized because chain validation and the
test oracles verify the same envelopes many times over.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)
from cryptography.hazmat.primitives.serialization import Encoding, PublicFormat

from .canonical import ADDRESS_BYTES, from_hex, to_hex

SEED_BYTES = 32


def derive_address(public_key: str) -> str:
    """Trailing 20 bytes of sha256(raw public key), as 0x hex."""
    digest = hashlib.sha256(from_hex(public_key)).digest()
    return to_hex(digest[-ADDRESS_BYTES:])


@lru_cache(maxsize=4096)
def _private_key_obj(secret_key: str) -> Ed25519PrivateKey:
    return Ed25519PrivateKey.from_private_bytes(from_hex(secret_key))


@dataclass(frozen=True)
class KeyPair:
    secret_key: str = field(repr=False)  # 32-byte seed, 0x hex; kept out of repr
    public_key: str  # 32-byte Ed25519 verification key, 0x hex

    @cached_property
    def address(self) -> str:
        return derive_address(self.public_key)

    @classmethod
    def from_seed(cls, seed: bytes) -> "KeyPair":
        if len(seed) != SEED_BYTES:
            raise ValueError(f"seed must be {SEED_BYTES} bytes, got {len(seed)}")
        secret_key = to_hex(seed)
        public = _private_key_obj(secret_key).public_key().public_bytes(
            Encoding.Raw, PublicFormat.Raw
        )
        return cls(secret_key=secret_key, public_key=to_hex(public))

    @classmethod
    def generate(cls) -> "KeyPair":
        return cls.from_seed(os.urandom(SEED_BYTES))

    def sign(self, message: bytes) -> str:
        return to_hex(_private_key_obj(self.secret_key).sign(message))


@lru_cache(maxsize=1 << 20)
def _verify_cached(public_key: str, message: bytes, signature: str) -> bool:
    try:
        key = Ed25519PublicKey.from_public_bytes(from_hex(public_key))
        key.verify(from_hex(signature), message)
        return True
    except (InvalidSignature, ValueError):
        return False


def verify(public_key: str, message: bytes, signature: str) -> bool:
    """True iff signature is a valid Ed25519 signature of message.

    Malformed keys or signatures verify as False rather than raising;
    a transaction carrying garbage bytes is simply unauthenticated.
    """
    return _verify_cached(public_key, message, signature)
