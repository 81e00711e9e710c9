"""Naive reference state machine, used only by tests.

This is a from-scratch rendering of every registry rule over plain
dicts with inline arithmetic and linear scans.  It deliberately shares
no code with the registry, ledger, or gas modules (Ed25519 signature
verification is the one common primitive; reimplementing the cipher
would add nothing).  Tests fold the same transaction log through both
machines and compare final states, so a bug has to appear twice, in
two differently written programs, to go unnoticed.

States here are plain dicts in the same shape the registry serializes,
so dict equality against ``RegistryState.to_canonical()`` is the
comparison and ``reference_commitment`` re-derives the state hash
through its own json/hashlib calls.
"""

from __future__ import annotations

import hashlib
import json
import re
from typing import Iterable, List, Optional, Sequence, Tuple

from .crypto import verify

_PRODUCT_ID = re.compile(r"[A-Za-z0-9._-]{1,64}\Z")
_TRUSTED = ("manufacturer", "distributor", "retailer")
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def _dumps(value) -> bytes:
    return _ENCODER.encode(value).encode("utf-8")


def _role_str(role) -> str:
    return getattr(role, "value", role)


def reference_commitment(state: dict) -> str:
    return "0x" + hashlib.sha256(_dumps(state)).hexdigest()


def _key_of(genesis, address: str) -> Optional[str]:
    for addr, pub in genesis.authorities:
        if addr == address:
            return pub
    for addr, pub in genesis.account_keys.items():
        if addr == address:
            return pub
    return None


def reference_genesis_state(genesis) -> dict:
    accounts = {}
    for addr in genesis.roles:
        balance = 0
        for baddr, amount in genesis.initial_balances.items():
            if baddr == addr:
                balance = amount
        accounts[addr] = {
            "address": addr,
            "balance": balance,
            "last_faucet_claim": None,
            "nonce": 0,
            "public_key": _key_of(genesis, addr) or "",
            "role": _role_str(genesis.roles[addr]),
        }
    return {
        "accounts": accounts,
        "chain_id": genesis.chain_id,
        "contract": None,
        "products": {},
    }


def _kind_doc(kind) -> dict:
    name = type(kind).__name__
    if name == "Deploy":
        return {"code_size": kind.code_size, "type": "deploy"}
    if name == "Register":
        return {
            "metadata": kind.metadata,
            "name": kind.name,
            "product_id": kind.product_id,
            "type": "register",
        }
    if name == "Transfer":
        return {"new_owner": kind.new_owner, "product_id": kind.product_id, "type": "transfer"}
    if name == "Sell":
        return {"consumer": kind.consumer, "product_id": kind.product_id, "type": "sell"}
    if name == "FaucetClaim":
        return {"type": "faucet_claim"}
    raise ValueError(f"unknown kind {name}")


def _variant_error(state: dict, sender: str, kind) -> Optional[str]:
    name = type(kind).__name__
    sender_role = None
    if sender in state["accounts"]:
        sender_role = state["accounts"][sender]["role"]

    if name == "Deploy":
        if state["contract"] is not None:
            return "AlreadyDeployed"
        if sender_role not in _TRUSTED and sender_role != "authority":
            return "NotTrustedNode"
        return None

    if name == "Register":
        if state["contract"] is None:
            return "NotDeployed"
        if sender_role != "manufacturer":
            return "NotManufacturer"
        if not _PRODUCT_ID.match(kind.product_id):
            return "BadProductId"
        if len(kind.metadata.encode("utf-8")) > 1024:
            return "BadMetadata"
        if kind.product_id in state["products"]:
            return "DuplicateProductId"
        return None

    if name == "Transfer":
        if kind.product_id not in state["products"]:
            return "UnknownProduct"
        record = state["products"][kind.product_id]
        if record["status"] != "available":
            return "ProductUnavailable"
        if record["current_owner"] != sender:
            return "NotOwner"
        if kind.new_owner not in state["accounts"]:
            return "NotTrustedNode"
        if state["accounts"][kind.new_owner]["role"] not in _TRUSTED:
            return "NotTrustedNode"
        return None

    if name == "Sell":
        if kind.product_id not in state["products"]:
            return "UnknownProduct"
        record = state["products"][kind.product_id]
        if record["status"] != "available":
            return "ProductUnavailable"
        if record["current_owner"] != sender:
            return "NotOwner"
        if kind.consumer not in state["accounts"]:
            return "NotConsumer"
        if state["accounts"][kind.consumer]["role"] != "consumer":
            return "NotConsumer"
        return None

    if name == "FaucetClaim":
        return None
    raise ValueError(f"unknown kind {name}")


def _copy_state(state: dict) -> dict:
    accounts = {}
    for addr, acct in state["accounts"].items():
        accounts[addr] = dict(acct)
    products = {}
    for pid, record in state["products"].items():
        fresh = dict(record)
        fresh["history"] = list(record["history"])
        products[pid] = fresh
    contract = dict(state["contract"]) if state["contract"] is not None else None
    return {
        "accounts": accounts,
        "chain_id": state["chain_id"],
        "contract": contract,
        "products": products,
    }


# Encodings of recently applied transactions, by object identity, so a
# fold that applies one envelope many times encodes it once.  Each entry
# holds its transaction: an id cannot be reused while it is cached.
_ENCODED_LIMIT = 4096
_encoded: dict = {}


def _encodings(tx, chain_id: int) -> Tuple[bytes, bytes]:
    """(signing payload, kind blob) of tx on chain chain_id."""
    entry = _encoded.get(id(tx))
    if entry is not None and entry[0] is tx and entry[1] == chain_id:
        return entry[2], entry[3]
    kind_doc = _kind_doc(tx.kind)
    payload = _dumps(
        {
            "chain_id": chain_id,
            "gas_price": tx.gas_price,
            "kind": kind_doc,
            "nonce": tx.nonce,
            "sender": tx.sender,
        }
    )
    blob = _dumps(kind_doc)
    if len(_encoded) >= _ENCODED_LIMIT:
        _encoded.clear()
    _encoded[id(tx)] = (tx, chain_id, payload, blob)
    return payload, blob


def _apply_one(state: dict, tx, block_index: int, timestamp: int, sealer: str, genesis) -> None:
    """Apply one transaction to state in place; rejected ones leave it as it was."""
    kind = tx.kind
    name = type(kind).__name__
    payload, blob = _encodings(tx, state["chain_id"])
    if tx.sender not in state["accounts"]:
        return
    acct = state["accounts"][tx.sender]
    if not verify(acct["public_key"], payload, tx.signature):
        return
    if tx.nonce != acct["nonce"]:
        return

    if name == "FaucetClaim":
        acct["nonce"] = acct["nonce"] + 1
        last = acct["last_faucet_claim"]
        if last is None or timestamp - last >= genesis.faucet_cooldown:
            acct["balance"] = acct["balance"] + genesis.faucet_amount
            acct["last_faucet_claim"] = timestamp
        return

    params = genesis.gas_params
    zero_bytes = blob.count(0)
    calldata = (
        zero_bytes * params.calldata_zero_byte
        + (len(blob) - zero_bytes) * params.calldata_nonzero_byte
    )
    intrinsic = params.base_tx + calldata
    error = _variant_error(state, tx.sender, kind)
    if error is None:
        if name == "Deploy":
            storage = params.create_base + params.code_byte * kind.code_size
        elif name == "Register":
            storage = 3 * params.sstore_new
        elif name == "Transfer":
            storage = params.sstore_update + params.sstore_new
        else:
            storage = 2 * params.sstore_update + params.sstore_new
        gas_used = intrinsic + storage
    else:
        gas_used = intrinsic

    fee = gas_used * tx.gas_price
    short_of_funds = acct["balance"] < fee
    if short_of_funds:
        fee = intrinsic * tx.gas_price
        if acct["balance"] < fee:
            fee = 0
    acct["nonce"] = acct["nonce"] + 1
    acct["balance"] = acct["balance"] - fee
    if fee:
        state["accounts"][sealer]["balance"] = state["accounts"][sealer]["balance"] + fee
    if short_of_funds or error is not None:
        return

    if name == "Deploy":
        raw = bytes.fromhex(tx.sender[2:]) + tx.nonce.to_bytes(8, "big")
        contract = "0x" + hashlib.sha256(raw).digest()[-20:].hex()
        state["contract"] = {"address": contract, "deployer": tx.sender}
    elif name == "Register":
        state["products"][kind.product_id] = {
            "current_owner": tx.sender,
            "history": [tx.sender],
            "manufacturer": tx.sender,
            "metadata": kind.metadata,
            "name": kind.name,
            "product_id": kind.product_id,
            "registered_at": block_index,
            "status": "available",
        }
    elif name == "Transfer":
        record = state["products"][kind.product_id]
        record["current_owner"] = kind.new_owner
        record["history"].append(kind.new_owner)
    elif name == "Sell":
        record = state["products"][kind.product_id]
        record["current_owner"] = kind.consumer
        record["status"] = "unavailable"
        record["history"].append(kind.consumer)


def reference_state_machine(
    tx_log: Sequence,
    genesis,
    contexts: Optional[Iterable[Tuple[int, int, str]]] = None,
    initial: Optional[dict] = None,
) -> dict:
    """Fold a transaction log into a final state dict.

    contexts supplies (block_index, timestamp, sealer) per transaction;
    when omitted, transaction i gets block i+1, timestamp 3600*(i+1),
    and the round-robin sealer, matching a one-transaction-per-block
    chain.  initial resumes the fold from a previously returned state
    instead of genesis; the input dict is not modified.
    """
    state = reference_genesis_state(genesis) if initial is None else _copy_state(initial)
    if contexts is None:
        count = len(genesis.authorities)
        contexts = [
            (i + 1, 3600 * (i + 1), genesis.authorities[(i + 1) % count][0])
            for i in range(len(tx_log))
        ]
    context_list: List[Tuple[int, int, str]] = list(contexts)
    if len(context_list) != len(tx_log):
        raise ValueError("one context per transaction required")
    for tx, (block_index, timestamp, sealer) in zip(tx_log, context_list):
        _apply_one(state, tx, block_index, timestamp, sealer, genesis)
    return state
