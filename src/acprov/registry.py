"""Product registry state machine: accounts, roles, faucet, product lifecycle.

This is the deterministic "smart contract".  All operations are pure:
they take a RegistryState and return a new one, never mutating inputs.
Transaction failures are receipt codes, not exceptions.

Fee and nonce semantics
-----------------------
* Unauthenticated transactions (bad signature, bad nonce, unknown
  sender) change nothing.  Their receipt still records the assessed
  intrinsic gas and fee so that ``fee == gas_used * gas_price`` holds,
  but nothing is settled.
* Authenticated transactions that fail a variant rule pay the
  intrinsic (base + calldata) fee and bump the sender nonce.
* A sender that cannot afford its fee gets InsufficientFunds: the
  intrinsic fee is charged when affordable, otherwise nothing is
  (gas_used is then reported as 0 to keep the receipt arithmetic
  exact); the nonce is bumped either way.
* Faucet claims are fee-free in every outcome, including cooldown
  rejections; they exist to bootstrap empty accounts.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, partial
from typing import Any, ClassVar, Mapping, Optional, Sequence, Tuple, Union, get_args

from . import gas as gas_model
from .canonical import (
    _as_address,
    _as_int,
    _as_str,
    _canonical,
    _check_fields,
    _decode,
    _list_of,
    _map_of,
    _one_of,
    _optional,
    _record,
    _require,
    canonical_serialize,
    from_hex,
    hash_of,
    to_hex,
)
from .crypto import KeyPair, sign_batch, verify


class Role(str, Enum):
    MANUFACTURER = "manufacturer"
    DISTRIBUTOR = "distributor"
    RETAILER = "retailer"
    CONSUMER = "consumer"
    AUTHORITY = "authority"


TRUSTED_ROLES = frozenset({Role.MANUFACTURER, Role.DISTRIBUTOR, Role.RETAILER})


class Status(str, Enum):
    AVAILABLE = "available"
    UNAVAILABLE = "unavailable"


# Receipt codes.
BAD_SIGNATURE = "BadSignature"
BAD_NONCE = "BadNonce"
INSUFFICIENT_FUNDS = "InsufficientFunds"
ALREADY_DEPLOYED = "AlreadyDeployed"
NOT_TRUSTED_NODE = "NotTrustedNode"
NOT_DEPLOYED = "NotDeployed"
NOT_MANUFACTURER = "NotManufacturer"
BAD_PRODUCT_ID = "BadProductId"
BAD_METADATA = "BadMetadata"
DUPLICATE_PRODUCT_ID = "DuplicateProductId"
UNKNOWN_PRODUCT = "UnknownProduct"
NOT_OWNER = "NotOwner"
PRODUCT_UNAVAILABLE = "ProductUnavailable"
NOT_CONSUMER = "NotConsumer"
FAUCET_COOLDOWN = "FaucetCooldown"

PRODUCT_ID_RE = re.compile(r"[A-Za-z0-9._-]{1,64}\Z")
MAX_METADATA_BYTES = 1024


def is_valid_product_id(product_id: Any) -> bool:
    return isinstance(product_id, str) and PRODUCT_ID_RE.match(product_id) is not None


# ---------------------------------------------------------------------------
# Transaction kinds
#
# Each kind's class is the one place that names its wire form: TYPE is
# the "type" member of its canonical object, its dataclass fields are the
# other members, and CHECKS says how each is checked when decoded (see
# canonical._decode).  The class name is its gas-report category.


@dataclass(frozen=True)
class Deploy:
    TYPE: ClassVar[str] = "deploy"
    CHECKS: ClassVar[dict] = {"code_size": _as_int}
    code_size: int


@dataclass(frozen=True)
class Register:
    TYPE: ClassVar[str] = "register"
    CHECKS: ClassVar[dict] = {"product_id": _as_str, "name": _as_str, "metadata": _as_str}
    product_id: str
    name: str
    metadata: str = ""


@dataclass(frozen=True)
class Transfer:
    TYPE: ClassVar[str] = "transfer"
    CHECKS: ClassVar[dict] = {"product_id": _as_str, "new_owner": _as_address}
    product_id: str
    new_owner: str


@dataclass(frozen=True)
class Sell:
    TYPE: ClassVar[str] = "sell"
    CHECKS: ClassVar[dict] = {"product_id": _as_str, "consumer": _as_address}
    product_id: str
    consumer: str


@dataclass(frozen=True)
class FaucetClaim:
    TYPE: ClassVar[str] = "faucet_claim"
    CHECKS: ClassVar[dict] = {}


TxKind = Union[Deploy, Register, Transfer, Sell, FaucetClaim]

_KIND_OF_TYPE = {cls.TYPE: cls for cls in get_args(TxKind)}

kind_to_canonical = _canonical


def kind_from_canonical(doc: Any, name: str = "kind") -> TxKind:
    _require(isinstance(doc, Mapping), f"{name} must be an object")
    kind_type = doc.get("type")
    cls = _KIND_OF_TYPE.get(kind_type) if isinstance(kind_type, str) else None
    _require(cls is not None, f"unknown transaction kind type {kind_type!r}")
    return _decode(cls, doc, f"{kind_type} kind")


# ---------------------------------------------------------------------------
# Envelopes and receipts


@dataclass(frozen=True)
class TxEnvelope:
    CHECKS: ClassVar[dict] = {
        "sender": _as_address,
        "nonce": _as_int,
        "kind": kind_from_canonical,
        "gas_price": _as_int,
        "signature": _as_str,
    }
    sender: str
    nonce: int
    kind: TxKind
    gas_price: int
    signature: str
    # Canonical bytes, encoded once at construction: the kind (the metered
    # calldata) and the signing payload after its chain_id member.
    kind_bytes: bytes = field(init=False, repr=False, compare=False)
    payload_tail: bytes = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        kind_bytes = canonical_serialize(kind_to_canonical(self.kind))
        object.__setattr__(self, "kind_bytes", kind_bytes)
        object.__setattr__(
            self, "payload_tail", _payload_tail(self.sender, self.nonce, kind_bytes, self.gas_price)
        )

    @cached_property
    def canonical_bytes(self) -> bytes:
        """The envelope's canonical encoding: the payload's members less
        chain_id, plus the signature, which sorts last."""
        return b'{%s,"signature":%s}' % (
            self.payload_tail[:-1],
            canonical_serialize(self.signature),
        )

    @cached_property
    def hash(self) -> str:
        return hash_of(self.canonical_bytes)

    def signing_payload(self, chain_id: int) -> bytes:
        """Canonical bytes the sender signs; chain_id binding bars cross-chain replay."""
        return _signing_payload(chain_id, self.payload_tail)

    to_canonical = _canonical
    # Raise ValueError for a member that the block decoder would reject.
    check_fields = _check_fields


def _payload_tail(sender: str, nonce: int, kind_bytes: bytes, gas_price: int) -> bytes:
    """The signing payload after its leading chain_id member.

    Members are in sorted key order, strings go through the canonical
    encoder and ints are written in decimal, so the bytes equal those
    canonical_serialize gives for the same document.
    """
    return b'"gas_price":%d,"kind":%s,"nonce":%d,"sender":%s}' % (
        gas_price,
        kind_bytes,
        nonce,
        canonical_serialize(sender),
    )


def _signing_payload(chain_id: int, tail: bytes) -> bytes:
    return b'{"chain_id":%d,' % chain_id + tail


def sign_txs(chain_id: int, unsigned: Sequence[Tuple[KeyPair, TxEnvelope]]) -> None:
    """Sign each envelope in place with its sender's key (crypto.sign_batch).

    Every envelope must still hold the empty signature it was built
    with, unread, so that no cached encoding holds it; its kind and
    payload tail are then encoded once.  make_tx is the one-item case.
    """
    signatures = sign_batch([(key, tx.signing_payload(chain_id)) for key, tx in unsigned])
    for (_, tx), signature in zip(unsigned, signatures):
        object.__setattr__(tx, "signature", signature)


def make_tx(
    key: KeyPair, chain_id: int, nonce: int, kind: TxKind, gas_price: int
) -> TxEnvelope:
    tx = TxEnvelope(key.address, nonce, kind, gas_price, signature="")
    sign_txs(chain_id, [(key, tx)])
    return tx


def tx_hash(tx: TxEnvelope) -> str:
    return tx.hash


@dataclass(frozen=True)
class Receipt:
    tx_hash: str
    accepted: bool
    gas_used: int
    fee: int
    error: Optional[str] = None

    to_canonical = _canonical


# ---------------------------------------------------------------------------
# State


@dataclass(frozen=True)
class Account:
    CHECKS: ClassVar[dict] = {
        "address": _as_address,
        "role": _one_of(Role),
        "balance": _as_int,
        "nonce": _as_int,
        "last_faucet_claim": _optional(_as_int),
        "public_key": _as_str,
    }
    address: str
    role: Role
    balance: int
    nonce: int = 0
    last_faucet_claim: Optional[int] = None
    public_key: str = ""

    @cached_property
    def canonical_bytes(self) -> bytes:
        """This account's ``"address":{...}`` member of the canonical state."""
        return canonical_serialize({self.address: self.to_canonical()})[1:-1]

    to_canonical = _canonical


@dataclass(frozen=True)
class ProductRecord:
    CHECKS: ClassVar[dict] = {
        "product_id": _as_str,
        "name": _as_str,
        "metadata": _as_str,
        "manufacturer": _as_address,
        "current_owner": _as_address,
        "status": _one_of(Status),
        "history": _list_of(_as_address),
        "registered_at": _as_int,
    }
    product_id: str
    name: str
    metadata: str
    manufacturer: str
    current_owner: str
    status: Status
    history: Tuple[str, ...]
    registered_at: int

    @cached_property
    def canonical_bytes(self) -> bytes:
        """This record's ``"product_id":{...}`` member of the canonical state."""
        return canonical_serialize({self.product_id: self.to_canonical()})[1:-1]

    to_canonical = _canonical


@dataclass(frozen=True)
class ContractInfo:
    CHECKS: ClassVar[dict] = {"address": _as_address, "deployer": _as_address}
    address: str
    deployer: str

    to_canonical = _canonical


@dataclass(frozen=True)
class RegistryState:
    # A map's key must equal its record's own address or product_id.
    CHECKS: ClassVar[dict] = {
        "chain_id": partial(_as_int, minimum=1),
        "contract": _optional(_record(ContractInfo)),
        "accounts": _map_of(Account, "address"),
        "products": _map_of(ProductRecord, "product_id"),
    }
    chain_id: int
    contract: Optional[ContractInfo]
    accounts: Mapping[str, Account]
    products: Mapping[str, ProductRecord]

    to_canonical = _canonical


def state_bytes(state: RegistryState) -> bytes:
    """The canonical state document; maps serialize in sorted key order.

    The document is joined from each record's cached member bytes, so a
    record is encoded once however many blocks it stays unchanged.
    """
    accounts = b",".join(state.accounts[a].canonical_bytes for a in sorted(state.accounts))
    products = b",".join(state.products[p].canonical_bytes for p in sorted(state.products))
    contract = state.contract.to_canonical() if state.contract else None
    return b'{"accounts":{%s},"chain_id":%s,"contract":%s,"products":{%s}}' % (
        accounts,
        canonical_serialize(state.chain_id),
        canonical_serialize(contract),
        products,
    )


def state_commitment(state: RegistryState) -> str:
    """Hash of the canonical state document."""
    return hash_of(state_bytes(state))


def state_from_canonical(doc: Any) -> RegistryState:
    """Strict inverse of ``RegistryState.to_canonical``; ValueError on any misfit."""
    return _decode(RegistryState, doc, "state")


@dataclass(frozen=True)
class TxContext:
    block_index: int
    timestamp: int
    sealer: str
    gas_params: gas_model.GasParams
    faucet_amount: int
    faucet_cooldown: int


def contract_address(sender: str, nonce: int) -> str:
    """Trailing 20 bytes of sha256(sender bytes || nonce as 8 big-endian bytes)."""
    digest = hashlib.sha256(from_hex(sender) + nonce.to_bytes(8, "big")).digest()
    return to_hex(digest[-20:])


# ---------------------------------------------------------------------------
# Transition rules

# Check order within each variant is part of the contract; the first
# failing rule names the receipt code.


def transition_error(state: RegistryState, sender: str, kind: TxKind) -> Optional[str]:
    """First violated variant rule, or None when the effect may apply.

    Authentication, fees, and faucet cooldowns are handled by apply_tx;
    this covers only the product/contract rules.
    """
    sender_acct = state.accounts.get(sender)
    sender_role = sender_acct.role if sender_acct else None

    if isinstance(kind, Deploy):
        if state.contract is not None:
            return ALREADY_DEPLOYED
        if sender_role not in TRUSTED_ROLES and sender_role is not Role.AUTHORITY:
            return NOT_TRUSTED_NODE
        return None

    if isinstance(kind, Register):
        if state.contract is None:
            return NOT_DEPLOYED
        if sender_role is not Role.MANUFACTURER:
            return NOT_MANUFACTURER
        if not is_valid_product_id(kind.product_id):
            return BAD_PRODUCT_ID
        if len(kind.metadata.encode("utf-8")) > MAX_METADATA_BYTES:
            return BAD_METADATA
        if kind.product_id in state.products:
            return DUPLICATE_PRODUCT_ID
        return None

    if isinstance(kind, (Transfer, Sell)):
        product = state.products.get(kind.product_id)
        if product is None:
            return UNKNOWN_PRODUCT
        if product.status is not Status.AVAILABLE:
            return PRODUCT_UNAVAILABLE
        if product.current_owner != sender:
            return NOT_OWNER
        if isinstance(kind, Transfer):
            target = state.accounts.get(kind.new_owner)
            if target is None or target.role not in TRUSTED_ROLES:
                return NOT_TRUSTED_NODE
        else:
            target = state.accounts.get(kind.consumer)
            if target is None or target.role is not Role.CONSUMER:
                return NOT_CONSUMER
        return None

    if isinstance(kind, FaucetClaim):
        return None

    raise TypeError(f"unknown transaction kind {kind!r}")


def _with_product(state: RegistryState, record: ProductRecord) -> RegistryState:
    products = dict(state.products)
    products[record.product_id] = record
    return RegistryState(state.chain_id, state.contract, state.accounts, products)


def _apply_effect(state: RegistryState, tx: TxEnvelope, ctx: TxContext) -> RegistryState:
    kind = tx.kind
    if isinstance(kind, Deploy):
        info = ContractInfo(address=contract_address(tx.sender, tx.nonce), deployer=tx.sender)
        return RegistryState(state.chain_id, info, state.accounts, state.products)
    if isinstance(kind, Register):
        return _with_product(
            state,
            ProductRecord(
                product_id=kind.product_id,
                name=kind.name,
                metadata=kind.metadata,
                manufacturer=tx.sender,
                current_owner=tx.sender,
                status=Status.AVAILABLE,
                history=(tx.sender,),
                registered_at=ctx.block_index,
            ),
        )
    if isinstance(kind, (Transfer, Sell)):
        p = state.products[kind.product_id]
        if isinstance(kind, Transfer):
            owner, status = kind.new_owner, p.status
        else:
            owner, status = kind.consumer, Status.UNAVAILABLE
        return _with_product(
            state,
            ProductRecord(
                p.product_id, p.name, p.metadata, p.manufacturer, owner, status,
                p.history + (owner,), p.registered_at,
            ),
        )
    raise TypeError(f"no effect for transaction kind {kind!r}")


def _charge_and_bump(
    state: RegistryState, payer: str, sealer: str, fee_wei: int
) -> RegistryState:
    """Debit payer / credit sealer and bump the payer nonce, in one copy."""
    accounts = dict(state.accounts)
    p = accounts[payer]
    accounts[payer] = Account(
        p.address, p.role, p.balance - fee_wei, p.nonce + 1, p.last_faucet_claim, p.public_key
    )
    if fee_wei:
        s = accounts[sealer]
        accounts[sealer] = Account(
            s.address, s.role, s.balance + fee_wei, s.nonce, s.last_faucet_claim, s.public_key
        )
    return RegistryState(state.chain_id, state.contract, accounts, state.products)


def apply_tx(
    state: RegistryState, tx: TxEnvelope, ctx: TxContext
) -> Tuple[RegistryState, Receipt]:
    """Pure transition: authenticate, meter, settle, then apply the variant."""
    txh = tx.hash
    params = ctx.gas_params
    is_faucet = isinstance(tx.kind, FaucetClaim)
    intrinsic = 0 if is_faucet else gas_model.intrinsic_gas(tx.kind_bytes, params)

    acct = state.accounts.get(tx.sender)
    payload = tx.signing_payload(state.chain_id)
    if acct is None or not verify(acct.public_key, payload, tx.signature):
        return state, Receipt(
            txh, False, intrinsic, gas_model.fee(intrinsic, tx.gas_price), BAD_SIGNATURE
        )
    if tx.nonce != acct.nonce:
        return state, Receipt(
            txh, False, intrinsic, gas_model.fee(intrinsic, tx.gas_price), BAD_NONCE
        )

    if is_faucet:
        granted = (
            acct.last_faucet_claim is None
            or ctx.timestamp - acct.last_faucet_claim >= ctx.faucet_cooldown
        )
        if granted:
            balance, claimed_at = acct.balance + ctx.faucet_amount, ctx.timestamp
            receipt = Receipt(txh, True, 0, 0, None)
        else:
            balance, claimed_at = acct.balance, acct.last_faucet_claim
            receipt = Receipt(txh, False, 0, 0, FAUCET_COOLDOWN)
        accounts = dict(state.accounts)
        accounts[tx.sender] = Account(
            acct.address, acct.role, balance, acct.nonce + 1, claimed_at, acct.public_key
        )
        return RegistryState(state.chain_id, state.contract, accounts, state.products), receipt

    err = transition_error(state, tx.sender, tx.kind)
    gas_used = intrinsic if err else intrinsic + gas_model.storage_gas(tx.kind, params)
    fee_wei = gas_model.fee(gas_used, tx.gas_price)

    if acct.balance < fee_wei:
        gas_used = intrinsic
        fee_wei = gas_model.fee(intrinsic, tx.gas_price)
        if acct.balance < fee_wei:
            gas_used, fee_wei = 0, 0
        charged = _charge_and_bump(state, tx.sender, ctx.sealer, fee_wei)
        return charged, Receipt(txh, False, gas_used, fee_wei, INSUFFICIENT_FUNDS)

    charged = _charge_and_bump(state, tx.sender, ctx.sealer, fee_wei)
    if err is not None:
        return charged, Receipt(txh, False, gas_used, fee_wei, err)
    return _apply_effect(charged, tx, ctx), Receipt(txh, True, gas_used, fee_wei, None)

