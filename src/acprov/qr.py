"""Checksummed text payload carried by a product's printed QR code.

Grammar (normative, bit-exact):

    acp:v1:<chain_id>:<contract>:<product_id>:<checksum>

where chain_id is base-10, contract is a 0x-prefixed 20-byte lowercase
hex address, product_id obeys the registry charset (so ``:`` never
appears inside a field), and checksum is the CRC-32 (IEEE polynomial,
reflected) of the UTF-8 bytes of everything before the final colon,
as 8 lowercase hex digits.

The checksum guards against scan and typo corruption only; authenticity
comes from the ledger lookup, which is why a CRC and not a MAC is used.
The payload binds chain_id and contract so a genuine-looking code
cannot point at a different registry.
"""

from __future__ import annotations

import re
import zlib

from .canonical import Record, is_address_str
from .registry import is_valid_product_id

PREFIX = "acp:v1:"
VERSION = 1

_CHAIN_ID_RE = re.compile(r"[1-9][0-9]*\Z")
_CHECKSUM_RE = re.compile(r"[0-9a-f]{8}\Z")


class PayloadError(Exception):
    pass


class BadPrefix(PayloadError):
    pass


class BadStructure(PayloadError):
    pass


class ChecksumMismatch(PayloadError):
    pass


class BadProductId(PayloadError):
    pass


class QrPayload(Record):
    """A decoded QR payload."""
    version: int
    chain_id: int
    contract: str
    product_id: str
    checksum: int


def checksum(data: bytes) -> int:
    """CRC-32, IEEE 802.3 polynomial, standard reflected form."""
    return zlib.crc32(data) & 0xFFFFFFFF


def encode_payload(chain_id: int, contract: str, product_id: str) -> str:
    if not is_valid_product_id(product_id):
        raise BadProductId(f"invalid product id {product_id!r}")
    if not isinstance(chain_id, int) or isinstance(chain_id, bool) or chain_id <= 0:
        raise BadStructure(f"chain_id must be a positive integer, got {chain_id!r}")
    if not is_address_str(contract):
        raise BadStructure(f"contract must be a 0x-prefixed 20-byte hex address")
    prefix = f"{PREFIX}{chain_id}:{contract}:{product_id}"
    return f"{prefix}:{checksum(prefix.encode('utf-8')):08x}"


def decode_payload(payload: str) -> QrPayload:
    """Parse and checksum-verify a payload string.

    Raises BadPrefix for anything not starting ``acp:v1:`` (including
    unknown versions), BadStructure for field count or format errors,
    and ChecksumMismatch when the CRC does not match.
    """
    if not isinstance(payload, str) or not payload.startswith(PREFIX):
        raise BadPrefix(f"payload does not start with {PREFIX!r}")
    parts = payload.split(":")
    if len(parts) != 6:
        raise BadStructure(f"expected 6 colon-separated fields, found {len(parts)}")
    _, _, chain_id_str, contract, product_id, checksum_str = parts
    if not _CHAIN_ID_RE.match(chain_id_str):
        raise BadStructure(f"chain_id field {chain_id_str!r} is not a positive base-10 integer")
    if not is_address_str(contract):
        raise BadStructure(f"contract field {contract!r} is not a 20-byte 0x address")
    if not is_valid_product_id(product_id):
        raise BadStructure(f"product_id field {product_id!r} violates the charset rule")
    if not _CHECKSUM_RE.match(checksum_str):
        raise BadStructure(f"checksum field {checksum_str!r} is not 8 lowercase hex digits")
    prefix = payload[: payload.rindex(":")]
    expected = checksum(prefix.encode("utf-8"))
    found = int(checksum_str, 16)
    if found != expected:
        raise ChecksumMismatch(f"checksum {found:08x} != expected {expected:08x}")
    try:
        chain_id = int(chain_id_str)
    except ValueError:  # more digits than int() reads
        raise BadStructure(f"chain_id field has {len(chain_id_str)} digits") from None
    return QrPayload(
        version=VERSION,
        chain_id=chain_id,
        contract=contract,
        product_id=product_id,
        checksum=found,
    )
