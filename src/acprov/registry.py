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
from collections.abc import Container, Mapping
from enum import Enum
from functools import cached_property, partial
from typing import Any, Callable, ClassVar, Optional, Sequence, Tuple, Union, get_args

from . import gas as gas_model
from .canonical import (
    Record,
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
    _string,
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
# Each kind's class is the one place for its wire form, its rules, its
# effect and its storage gas.  TYPE is the "type" member of its canonical
# object, its fields are the other members, and CHECKS says how each is
# checked when decoded (see canonical._decode).  error(state, sender) is
# the first variant rule the sender's Account breaks, in an order that is
# part of the contract; effect(state, tx, ctx) is the state after it is
# accepted; storage_gas(params) is the storage-slot cost of that effect.
# The class name is its gas-report category.  apply_tx settles a faucet
# claim itself, so FaucetClaim has none of the three.


class Deploy(Record):
    """Deploy the registry contract."""
    TYPE: ClassVar[str] = "deploy"
    CHECKS: ClassVar[dict] = {"code_size": _as_int}
    code_size: int

    def error(self, state: RegistryState, sender: Account) -> Optional[str]:
        if state.contract is not None:
            return ALREADY_DEPLOYED
        if sender.role not in TRUSTED_ROLES and sender.role is not Role.AUTHORITY:
            return NOT_TRUSTED_NODE
        return None

    def effect(self, state: RegistryState, tx: TxEnvelope, ctx: TxContext) -> RegistryState:
        info = ContractInfo(address=contract_address(tx.sender, tx.nonce), deployer=tx.sender)
        return RegistryState(state.chain_id, info, state.accounts, state.products)

    def storage_gas(self, params: gas_model.GasParams) -> int:
        return params.create_base + params.code_byte * self.code_size


class Register(Record):
    """Register a new product, owned by its manufacturer."""
    TYPE: ClassVar[str] = "register"
    CHECKS: ClassVar[dict] = {"product_id": _as_str, "name": _as_str, "metadata": _as_str}
    product_id: str
    name: str
    metadata: str = ""

    def error(self, state: RegistryState, sender: Account) -> Optional[str]:
        if state.contract is None:
            return NOT_DEPLOYED
        if sender.role is not Role.MANUFACTURER:
            return NOT_MANUFACTURER
        if not is_valid_product_id(self.product_id):
            return BAD_PRODUCT_ID
        if len(self.metadata.encode("utf-8")) > MAX_METADATA_BYTES:
            return BAD_METADATA
        if self.product_id in state.products:
            return DUPLICATE_PRODUCT_ID
        return None

    def effect(self, state: RegistryState, tx: TxEnvelope, ctx: TxContext) -> RegistryState:
        return _with_product(state, ProductRecord(
            self.product_id, self.name, self.metadata, tx.sender, tx.sender,
            Status.AVAILABLE, (tx.sender,), ctx.block_index,
        ))

    def storage_gas(self, params: gas_model.GasParams) -> int:
        """Three new slots: the record, its owner and its first history slot."""
        return 3 * params.sstore_new


class Transfer(Record):
    """Move an available product to another trusted node."""
    TYPE: ClassVar[str] = "transfer"
    CHECKS: ClassVar[dict] = {"product_id": _as_str, "new_owner": _as_address}
    product_id: str
    new_owner: str

    def error(self, state: RegistryState, sender: Account) -> Optional[str]:
        return _hand_on_error(state, sender, self.product_id, self.new_owner, TRUSTED_ROLES, NOT_TRUSTED_NODE)

    def effect(self, state: RegistryState, tx: TxEnvelope, ctx: TxContext) -> RegistryState:
        return _handed_on(state, self.product_id, self.new_owner, Status.AVAILABLE)

    def storage_gas(self, params: gas_model.GasParams) -> int:
        """The owner rewritten and one history slot appended."""
        return params.sstore_update + params.sstore_new


class Sell(Record):
    """Sell an available product to a consumer; it becomes unavailable."""
    TYPE: ClassVar[str] = "sell"
    CHECKS: ClassVar[dict] = {"product_id": _as_str, "consumer": _as_address}
    product_id: str
    consumer: str

    def error(self, state: RegistryState, sender: Account) -> Optional[str]:
        return _hand_on_error(state, sender, self.product_id, self.consumer, {Role.CONSUMER}, NOT_CONSUMER)

    def effect(self, state: RegistryState, tx: TxEnvelope, ctx: TxContext) -> RegistryState:
        return _handed_on(state, self.product_id, self.consumer, Status.UNAVAILABLE)

    def storage_gas(self, params: gas_model.GasParams) -> int:
        """The owner and status rewritten and one history slot appended."""
        return 2 * params.sstore_update + params.sstore_new


class FaucetClaim(Record):
    """Claim the fee-free faucet amount, once per cooldown."""
    TYPE: ClassVar[str] = "faucet_claim"
    CHECKS: ClassVar[dict] = {}


TxKind = Union[Deploy, Register, Transfer, Sell, FaucetClaim]

_KIND_OF_TYPE = {cls.TYPE: cls for cls in get_args(TxKind)}


def kind_from_canonical(doc: Any, name: str = "kind") -> TxKind:
    if not isinstance(doc, Mapping):
        raise ValueError(f"{name} must be an object")
    kind_type = doc.get("type")
    cls = _KIND_OF_TYPE.get(kind_type) if isinstance(kind_type, str) else None
    if cls is None:
        raise ValueError(f"unknown transaction kind type {kind_type!r}")
    return _decode(cls, doc, f"{kind_type} kind")


kind_from_canonical.decodes = tuple(_KIND_OF_TYPE.values())  # so check_fields checks a kind in place


def _hand_on_error(
    state: RegistryState, sender: Account, product_id: str, target: str, roles: Container[Role], code: str
) -> Optional[str]:
    """A transfer's or a sale's rules: product_id must be an available
    product that sender owns, and then target an account of one of roles,
    or code is the receipt's."""
    product = state.products.get(product_id)
    if product is None:
        return UNKNOWN_PRODUCT
    if product.status is not Status.AVAILABLE:
        return PRODUCT_UNAVAILABLE
    if product.current_owner != sender.address:
        return NOT_OWNER
    account = state.accounts.get(target)
    return code if account is None or account.role not in roles else None


def _handed_on(state: RegistryState, product_id: str, owner: str, status: Status) -> RegistryState:
    """state with product_id handed on to owner, at status."""
    p = state.products[product_id]
    return _with_product(state, ProductRecord(
        p.product_id, p.name, p.metadata, p.manufacturer, owner, status,
        p.history + (owner,), p.registered_at,
    ))


def _with_product(state: RegistryState, record: ProductRecord) -> RegistryState:
    products = dict(state.products)
    products[record.product_id] = record
    return RegistryState(state.chain_id, state.contract, state.accounts, products)


# ---------------------------------------------------------------------------
# Envelopes and receipts


class TxEnvelope(Record):
    """A signed transaction: sender, nonce, kind and gas price."""
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

    # Canonical bytes, each encoded once, on first use: the kind (the metered
    # calldata) and the signing payload after its chain_id member, which
    # holds the kind's.  They are not fields, so neither equality nor repr
    # reads them.
    @cached_property
    def kind_bytes(self) -> bytes:
        return self.kind.to_bytes()

    @cached_property
    def payload_tail(self) -> bytes:
        """The signing payload after its leading chain_id member: the
        encoding of the object of the members a signature covers besides
        chain_id, in key order, after its "{"."""
        return b'"gas_price":%d,"kind":%s,"nonce":%d,"sender":%s}' % (
            self.gas_price, self.kind_bytes, self.nonce, _string(self.sender)
        )

    def to_bytes(self) -> bytes:
        """The envelope's canonical encoding: the payload's members less
        chain_id, plus the signature, which sorts last."""
        return b'{%s,"signature":%s}' % (self.payload_tail[:-1], _string(self.signature))

    canonical_bytes = cached_property(to_bytes)  # encoded once, after signing

    @cached_property
    def hash(self) -> str:
        return hash_of(self.canonical_bytes)

    def signing_payload(self, chain_id: int) -> bytes:
        """Canonical bytes the sender signs; chain_id binding bars cross-chain replay."""
        return _signing_payload(chain_id, self.payload_tail)

    to_canonical = _canonical
    # Raise ValueError for a member that the block decoder would reject.
    check_fields = _check_fields


def _signing_payload(chain_id: int, tail: bytes) -> bytes:
    return b'{"chain_id":%d,' % chain_id + tail


def sign_txs(chain_id: int, unsigned: Sequence[Tuple[KeyPair, TxEnvelope]]) -> None:
    """Sign each envelope in place with its sender's key (crypto.sign_batch).

    Every envelope must still hold the empty signature it was built
    with, unread, so that no cached encoding holds it; its payload tail
    is encoded here, once.  make_tx is the one-item case.
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


class Receipt(Record):
    """The outcome of one transaction: gas, fee, and its error code if rejected."""
    tx_hash: str
    accepted: bool
    gas_used: int
    fee: int
    error: Optional[str] = None

    to_canonical = _canonical


# ---------------------------------------------------------------------------
# State


class Account(Record):
    """An account's role, balance, nonce, last faucet claim and public key."""
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
        return b"%s:%s" % (_string(self.address), self.to_bytes())

    to_canonical = _canonical


class ProductRecord(Record):
    """A registered product: its maker, owner, status and owner history."""
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
        return b"%s:%s" % (_string(self.product_id), self.to_bytes())

    to_canonical = _canonical


class ContractInfo(Record):
    """The deployed registry contract's address and deployer."""
    CHECKS: ClassVar[dict] = {"address": _as_address, "deployer": _as_address}
    address: str
    deployer: str

    to_canonical = _canonical


class RegistryState(Record):
    """The registry state after a block: what its state_root commits to."""
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
    record is encoded once however many blocks it stays unchanged.  It is
    the state's encoder (RegistryState.to_bytes), since a map of records
    fits no %-format.
    """
    accounts, products = state.accounts, state.products
    return b'{"accounts":{%s},"chain_id":%d,"contract":%s,"products":{%s}}' % (
        b",".join([accounts[a].canonical_bytes for a in sorted(accounts)]),
        state.chain_id,
        state.contract.to_bytes() if state.contract else b"null",
        b",".join([products[p].canonical_bytes for p in sorted(products)]),
    )


RegistryState.to_bytes = state_bytes


def state_commitment(state: RegistryState) -> str:
    """Hash of the canonical state document."""
    return hash_of(state_bytes(state))


def state_from_canonical(
    doc: Any, replayed: Optional[Callable[[], RegistryState]] = None
) -> RegistryState:
    """Strict inverse of ``RegistryState.to_canonical``; ValueError on any misfit.

    With replayed, the account and product maps are read-only and decode a
    record strictly when it is first read, and every record once a map is
    iterated.  A record that fails to decode is read from replayed(), the
    same state made another way, which raises if it cannot be made.
    """
    if replayed is None:
        return _decode(RegistryState, doc, "state")
    return _decode(RegistryState, doc, "state", {
        **RegistryState.CHECKS,
        "accounts": _map_of(Account, "address", lambda: replayed().accounts),
        "products": _map_of(ProductRecord, "product_id", lambda: replayed().products),
    })


class TxContext(Record):
    """The block a transaction executes in, and the chain's gas and faucet rules."""
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
    """Pure transition: authenticate, meter, settle, then apply the variant.

    A faucet claim is settled here, fee-free.  Any other kind pays its
    storage gas only if it breaks none of its rules (kind.error), and
    takes its effect (kind.effect) once its whole fee is paid."""
    txh, kind = tx.hash, tx.kind
    is_faucet = isinstance(kind, FaucetClaim)
    intrinsic = 0 if is_faucet else gas_model.intrinsic_gas(tx.kind_bytes, ctx.gas_params)

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

    err = kind.error(state, acct)
    gas_used = intrinsic if err else intrinsic + kind.storage_gas(ctx.gas_params)
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
    return kind.effect(charged, tx, ctx), Receipt(txh, True, gas_used, fee_wei, None)

