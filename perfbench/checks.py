"""Output checks made apart from the program under test.

The benchmark reads chain and genesis files with its own JSON code, folds
the transactions through ``acprov.oracle`` (the deliberately separate
reference state machine) and applies the gas table from the README itself.
Nothing here calls into ``ledger``, ``registry`` or ``gas``: a wrong answer
has to be written twice, once in the program and once here, to pass.
"""

from __future__ import annotations

import hashlib
import json
import zlib
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path
from types import SimpleNamespace
from typing import Dict, List, Sequence, Tuple

from acprov import oracle

# The README gas table.
BASE_TX = 21_000
CALLDATA_ZERO = 4
CALLDATA_NONZERO = 16
STORAGE = {
    "register": 3 * 20_000,
    "transfer": 5_000 + 20_000,
    "sell": 2 * 5_000 + 20_000,
}
CATEGORIES = (
    ("Deploy", "deploy"),
    ("Register", "register"),
    ("Transfer", "transfer"),
    ("Sell", "sell"),
    ("FaucetClaim", "faucet_claim"),
)
WEI_PER_ETH = 10**18


class CheckFailed(Exception):
    """An output of the program differs from what the benchmark expects."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def dumps(value) -> bytes:
    return json.dumps(value, sort_keys=True, separators=(",", ":"), ensure_ascii=False).encode(
        "utf-8"
    )


def sha256_hex(data: bytes) -> str:
    return "0x" + hashlib.sha256(data).hexdigest()


def file_digest(*paths: Path) -> str:
    digest = hashlib.sha256()
    for path in paths:
        digest.update(Path(path).read_bytes())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# Inputs the benchmark builds itself


def qr_payload(chain_id: int, contract: str, product_id: str) -> str:
    """The payload grammar of the README: body, then CRC-32 as 8 hex digits."""
    body = f"acp:v1:{chain_id}:{contract}:{product_id}"
    return f"{body}:{zlib.crc32(body.encode('utf-8')) & 0xFFFFFFFF:08x}"


def contract_address(deployer: str, nonce: int) -> str:
    raw = bytes.fromhex(deployer[2:]) + nonce.to_bytes(8, "big")
    return "0x" + hashlib.sha256(raw).digest()[-20:].hex()


# ---------------------------------------------------------------------------
# Gas table


def kind_gas(kind_doc: dict, accepted: bool) -> int:
    """Gas the README table assigns to a transaction kind."""
    kind_type = kind_doc["type"]
    if kind_type == "faucet_claim":
        return 0
    calldata = sum(CALLDATA_ZERO if b == 0 else CALLDATA_NONZERO for b in dumps(kind_doc))
    gas = BASE_TX + calldata
    if accepted and kind_type == "deploy":
        gas += 32_000 + 200 * kind_doc["code_size"]
    elif accepted:
        gas += STORAGE[kind_type]
    return gas


def format_eth(wei: int) -> str:
    value = (Decimal(wei) / WEI_PER_ETH).quantize(Decimal("0.00000001"), rounding=ROUND_HALF_UP)
    return f"{value:.8f}"


def gas_report_csv(gas_by_tx: Sequence[Tuple[str, int, int]]) -> str:
    """The gas-report CSV from (kind type, gas, fee) per transaction."""
    lines = ["category,tx_count,total_gas,avg_gas_per_tx,total_fee_wei,total_fee_eth"]
    totals = [0, 0, 0]
    for category, kind_type in CATEGORIES:
        rows = [(g, f) for t, g, f in gas_by_tx if t == kind_type]
        count, gas, fee = len(rows), sum(g for g, _ in rows), sum(f for _, f in rows)
        totals = [totals[0] + count, totals[1] + gas, totals[2] + fee]
        lines.append(f"{category},{count},{gas},{gas // count if count else 0},{fee},{format_eth(fee)}")
    count, gas, fee = totals
    lines.append(f"TOTAL,{count},{gas},{gas // count if count else 0},{fee},{format_eth(fee)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Chain files, read without the program's parser

_KIND_TYPES = {
    "deploy": type("Deploy", (), {}),
    "register": type("Register", (), {}),
    "transfer": type("Transfer", (), {}),
    "sell": type("Sell", (), {}),
    "faucet_claim": type("FaucetClaim", (), {}),
}


def _kind_object(doc: dict):
    # The oracle dispatches on the class name and reads plain attributes.
    kind = _KIND_TYPES[doc["type"]]()
    kind.__dict__.update({k: v for k, v in doc.items() if k != "type"})
    return kind


def read_genesis(path: Path) -> SimpleNamespace:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    return SimpleNamespace(
        chain_id=doc["chain_id"],
        authorities=[tuple(pair) for pair in doc["authorities"]],
        roles=dict(doc["roles"]),
        initial_balances=dict(doc["initial_balances"]),
        account_keys=dict(doc["account_keys"]),
        faucet_amount=doc["faucet_amount"],
        faucet_cooldown=doc["faucet_cooldown"],
        gas_params=SimpleNamespace(**doc["gas_params"]),
    )


def read_blocks(path: Path) -> List[dict]:
    raw = Path(path).read_bytes()
    expect(raw.endswith(b"\n"), f"{path} does not end with a newline")
    blocks = []
    for number, line in enumerate(raw[:-1].split(b"\n"), start=1):
        try:
            block = json.loads(line)
        except ValueError as exc:  # UnicodeDecodeError is a ValueError too
            raise CheckFailed(f"{path} line {number} is not JSON: {exc}") from None
        expect(dumps(block) == line, f"{path} line {number} is not canonical JSON")
        expect(
            isinstance(block, dict)
            and isinstance(block.get("header"), dict)
            and isinstance(block.get("txs"), list),
            f"{path} line {number} is not a block",
        )
        expect(block["header"].get("index") == number - 1, f"{path} line {number} has a wrong index")
        blocks.append(block)
    return blocks


def tx_count(blocks: Sequence[dict]) -> int:
    return sum(len(block["txs"]) for block in blocks)


class Fold:
    """The oracle's fold of a chain, transaction by transaction.

    Keeps what the checks compare against: the final state, the state root
    the oracle derives for it, and (kind type, gas, fee) per transaction
    from the README table, with acceptance read off the oracle's state.
    """

    def __init__(self, genesis: SimpleNamespace, blocks: Sequence[dict]):
        self.genesis = genesis
        self.blocks = blocks
        state = oracle.reference_genesis_state(genesis)
        self.gas_by_tx: List[Tuple[str, int, int]] = []
        for block in blocks[1:]:
            header = block["header"]
            context = (header["index"], header["timestamp"], header["sealer"])
            for doc in block["txs"]:
                tx = SimpleNamespace(
                    sender=doc["sender"],
                    nonce=doc["nonce"],
                    gas_price=doc["gas_price"],
                    signature=doc["signature"],
                    kind=_kind_object(doc["kind"]),
                )
                after = oracle.reference_state_machine([tx], genesis, [context], initial=state)
                self.gas_by_tx.append(self._gas(doc, header["sealer"], state, after))
                state = after
        self.state = state
        self.commitment = oracle.reference_commitment(state)

    @staticmethod
    def _gas(doc: dict, sealer: str, before: dict, after: dict) -> Tuple[str, int, int]:
        kind = doc["kind"]
        sender = doc["sender"]
        expect(sender != sealer, "a sealer sent a transaction; its fee cannot be read off")
        old, new = before["accounts"].get(sender), after["accounts"].get(sender)
        accepted = (
            before["products"] != after["products"] or before["contract"] != after["contract"]
        )
        if kind["type"] == "faucet_claim":
            gas = 0
        elif old is None or new["nonce"] == old["nonce"]:
            gas = kind_gas(kind, False)  # unauthenticated: assessed, never settled
        elif new["balance"] == old["balance"]:
            gas = 0  # could not afford even the intrinsic part
        else:
            gas = kind_gas(kind, accepted)
            paid = old["balance"] - new["balance"]
            expect(
                paid == gas * doc["gas_price"],
                f"oracle charged {paid} wei where the gas table gives {gas} gas",
            )
        return kind["type"], gas, gas * doc["gas_price"]

    def check_tip(self) -> None:
        root = self.blocks[-1]["header"]["state_root"]
        expect(root == self.commitment, f"tip state_root {root} != oracle {self.commitment}")

    def product(self, product_id: str) -> dict:
        return self.state["products"][product_id]


# ---------------------------------------------------------------------------
# Expected command outputs


def verify_output(record: dict) -> str:
    return (
        f"product: {record['product_id']}\n"
        f"status: {record['status']}\n"
        f"manufacturer: {record['manufacturer']}\n"
        f"current_owner: {record['current_owner']}\n"
        f"history: {' '.join(record['history'])}\n"
    )


def counterfeit_output(product_id: str) -> str:
    return f"SUSPECTED COUNTERFEIT: product {product_id!r} is not in the registry\n"


FOREIGN_OUTPUT = "REGISTRY MISMATCH: payload contract does not match this registry\n"


def history_output(owners: Sequence[str]) -> str:
    return "".join(f"{position} {owner}\n" for position, owner in enumerate(owners))


def validate_output(blocks: Sequence[dict], commitment: str) -> str:
    return f"OK blocks={len(blocks)} tip={commitment}\n"


def check_receipt(
    stdout: str, kind_doc: dict, block_index: int, gas_price: int, error
) -> Dict[str, object]:
    """A `tx` receipt: accepted iff no error, gas from the table, fee = gas x price."""
    receipt = json.loads(stdout)
    expect(
        set(receipt) == {"accepted", "block_index", "error", "fee", "gas_used", "tx_hash"},
        f"receipt fields {sorted(receipt)}",
    )
    expect(receipt["error"] == error, f"receipt error {receipt['error']!r}, expected {error!r}")
    expect(receipt["accepted"] is (error is None), f"receipt accepted={receipt['accepted']}")
    expect(receipt["block_index"] == block_index, f"receipt block {receipt['block_index']} != {block_index}")
    gas = kind_gas(kind_doc, error is None)
    expect(receipt["gas_used"] == gas, f"receipt gas_used {receipt['gas_used']} != table {gas}")
    expect(
        receipt["fee"] == receipt["gas_used"] * gas_price,
        f"receipt fee {receipt['fee']} != gas_used x gas_price",
    )
    return receipt


def check_receipt_hashes(blocks: Sequence[dict], receipts: Sequence[dict]) -> None:
    """Each receipt names the hash of the one transaction in its block."""
    for receipt in receipts:
        txs = blocks[receipt["block_index"]]["txs"]
        expect(len(txs) == 1, f"block {receipt['block_index']} holds {len(txs)} transactions")
        expect(
            sha256_hex(dumps(txs[0])) == receipt["tx_hash"],
            f"receipt tx_hash differs from block {receipt['block_index']}",
        )
