"""Gas metering, fee arithmetic, and the per-category gas report.

Constants are EVM-inspired.  All money math is integer wei; ETH values
are display-only conversions.  The default gas price is a calibration
constant chosen so that the three-transaction cost-model chain (one
deploy at the default code size, one registration, one sale) totals
0.000644 ETH to within a fraction of a percent; the calibration run
lives in scripts/calibrate_gas_price.py.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from decimal import ROUND_HALF_UP, Decimal
from functools import partial
from typing import Any, ClassVar, Iterable

from .canonical import _as_int, _canonical, _check_fields, _record

WEI_PER_ETH = 10**18
WEI_PER_GWEI = 10**9

DEFAULT_GAS_PRICE = 1_100_000_000  # wei per gas unit (1.1 gwei), calibrated

CATEGORIES = ("Deploy", "Register", "Transfer", "Sell", "FaucetClaim")


@dataclass(frozen=True)
class GasParams:
    CHECKS: ClassVar[dict]  # every member a strictly positive integer; set below
    base_tx: int = 21_000
    calldata_zero_byte: int = 4
    calldata_nonzero_byte: int = 16
    sstore_new: int = 20_000
    sstore_update: int = 5_000
    create_base: int = 32_000
    code_byte: int = 200
    default_code_size: int = 2_000
    default_gas_price: int = DEFAULT_GAS_PRICE

    __post_init__ = _check_fields
    to_canonical = _canonical

    @classmethod
    def from_canonical(cls, doc: Any) -> "GasParams":
        """A gas_params document; members left out take their defaults."""
        return _record(cls, defaults=True)(doc, "gas_params")


GasParams.CHECKS = dict.fromkeys((f.name for f in fields(GasParams)), partial(_as_int, minimum=1))


def calldata_gas(data: bytes, params: GasParams) -> int:
    """Zero bytes at one price, every other byte at another."""
    nonzero, zero = params.calldata_nonzero_byte, params.calldata_zero_byte
    return nonzero * len(data) - (nonzero - zero) * data.count(0)


def intrinsic_gas(kind_bytes: bytes, params: GasParams) -> int:
    """base_tx plus per-byte calldata cost of the canonical kind bytes."""
    return params.base_tx + calldata_gas(kind_bytes, params)


def storage_gas(kind: Any, params: GasParams) -> int:
    """Storage-slot cost of an accepted transaction's variant effect, by category.

    Slot counts model the contract layout: a registration writes the
    record, the owner slot, and the first history slot; a transfer
    rewrites the owner and appends one history slot; a sale rewrites
    owner and status and appends one history slot.
    """
    category = type(kind).__name__
    if category == "Deploy":
        return params.create_base + params.code_byte * kind.code_size
    if category == "Register":
        return 3 * params.sstore_new
    if category == "Transfer":
        return params.sstore_update + params.sstore_new
    if category == "Sell":
        return 2 * params.sstore_update + params.sstore_new
    if category == "FaucetClaim":
        return 0
    raise ValueError(f"unknown transaction kind {category!r}")


def fee(gas: int, gas_price: int) -> int:
    """Exact integer product; Python integers are arbitrary precision."""
    if gas < 0 or gas_price < 0:
        raise ValueError("gas and gas_price must be non-negative")
    return gas * gas_price


def format_eth(wei: int) -> str:
    """ETH display value rounded half-up to 8 decimal places."""
    value = (Decimal(wei) / WEI_PER_ETH).quantize(
        Decimal("0.00000001"), rounding=ROUND_HALF_UP
    )
    return f"{value:.8f}"


@dataclass(frozen=True)
class GasReportRow:
    category: str
    tx_count: int
    total_gas: int
    avg_gas_per_tx: int
    total_fee: int

    @property
    def total_fee_eth(self) -> str:
        return format_eth(self.total_fee)

    def to_csv_row(self) -> str:
        return (
            f"{self.category},{self.tx_count},{self.total_gas},"
            f"{self.avg_gas_per_tx},{self.total_fee},{self.total_fee_eth}"
        )


@dataclass(frozen=True)
class GasReport:
    rows: tuple  # one GasReportRow per category, fixed order
    total: GasReportRow

    def to_csv(self) -> str:
        lines = ["category,tx_count,total_gas,avg_gas_per_tx,total_fee_wei,total_fee_eth"]
        lines.extend(row.to_csv_row() for row in self.rows)
        lines.append(self.total.to_csv_row())
        return "\n".join(lines) + "\n"


def build_report(categorized: Iterable[tuple]) -> GasReport:
    """Aggregate (category, gas_used, fee_wei) triples into a report."""
    counts = {c: 0 for c in CATEGORIES}
    gas_totals = {c: 0 for c in CATEGORIES}
    fee_totals = {c: 0 for c in CATEGORIES}
    for category, gas_used, fee_wei in categorized:
        counts[category] += 1
        gas_totals[category] += gas_used
        fee_totals[category] += fee_wei
    rows = tuple(
        GasReportRow(
            category=c,
            tx_count=counts[c],
            total_gas=gas_totals[c],
            avg_gas_per_tx=gas_totals[c] // counts[c] if counts[c] else 0,
            total_fee=fee_totals[c],
        )
        for c in CATEGORIES
    )
    grand_count = sum(counts.values())
    grand_gas = sum(gas_totals.values())
    total = GasReportRow(
        category="TOTAL",
        tx_count=grand_count,
        total_gas=grand_gas,
        avg_gas_per_tx=grand_gas // grand_count if grand_count else 0,
        total_fee=sum(fee_totals.values()),
    )
    return GasReport(rows=rows, total=total)


def gas_report(blocks, receipts_per_block) -> GasReport:
    """Aggregate a validated chain's receipts, one list per block, by category."""
    return build_report(
        (type(tx.kind).__name__, receipt.gas_used, receipt.fee)
        for block, receipts in zip(blocks, receipts_per_block)
        for tx, receipt in zip(block.txs, receipts)
    )
