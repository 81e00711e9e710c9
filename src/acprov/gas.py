"""Gas metering, fee arithmetic, and the per-category gas report.

Constants are EVM-inspired; sstore_new and sstore_update are the Ethereum
Yellow Paper's G_sset and G_sreset.  This module prices calldata; each
transaction kind's class in registry prices its own storage (storage_gas).
All money math is integer wei; ETH values are display-only conversions.
The default gas price is a calibration constant chosen so that the
three-transaction cost-model chain (one deploy at the default code size,
one registration, one sale) totals 0.000644 ETH to within a fraction of
a percent; the calibration run lives in scripts/calibrate_gas_price.py.
"""

from __future__ import annotations

from functools import partial
from types import MappingProxyType
from typing import Any, ClassVar, Mapping, Sequence, Tuple

from .canonical import Record, _as_int, _canonical, _check_fields, _list_of, _require

WEI_PER_ETH = 10**18
WEI_PER_GWEI = 10**9

DEFAULT_GAS_PRICE = 1_100_000_000  # wei per gas unit (1.1 gwei), calibrated

CATEGORIES = ("Deploy", "Register", "Transfer", "Sell", "FaucetClaim")


class GasParams(Record):
    """A chain's gas schedule and default gas price (the genesis gas_params)."""
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


GasParams.CHECKS = dict.fromkeys(GasParams.FIELDS, partial(_as_int, minimum=1))


def calldata_gas(data: bytes, params: GasParams) -> int:
    """Zero bytes at one price, every other byte at another."""
    nonzero, zero = params.calldata_nonzero_byte, params.calldata_zero_byte
    return nonzero * len(data) - (nonzero - zero) * data.count(0)


def intrinsic_gas(kind_bytes: bytes, params: GasParams) -> int:
    """base_tx plus per-byte calldata cost of the canonical kind bytes."""
    return params.base_tx + calldata_gas(kind_bytes, params)


def fee(gas: int, gas_price: int) -> int:
    """Exact integer product; Python integers are arbitrary precision."""
    if gas < 0 or gas_price < 0:
        raise ValueError("gas and gas_price must be non-negative")
    return gas * gas_price


def format_eth(wei: int) -> str:
    """ETH display value of wei >= 0 rounded half-up to 8 decimal places,
    in integer arithmetic, so exact however large wei is."""
    units = (wei + 5 * 10**9) // 10**10  # in 10**-8 ETH, rounded half up
    return f"{units // 10**8}.{units % 10**8:08d}"


class GasReportRow(Record):
    """One category's line of the gas report."""
    category: str
    tx_count: int
    total_gas: int
    total_fee: int

    @property
    def avg_gas_per_tx(self) -> int:
        return self.total_gas // self.tx_count if self.tx_count else 0

    def to_csv_row(self) -> str:
        return (
            f"{self.category},{self.tx_count},{self.total_gas},"
            f"{self.avg_gas_per_tx},{self.total_fee},{format_eth(self.total_fee)}"
        )


class GasReport(Record):
    """The gas report: one row per category, then the total."""
    rows: tuple  # one GasReportRow per category, fixed order
    total: GasReportRow

    def to_csv(self) -> str:
        lines = ["category,tx_count,total_gas,avg_gas_per_tx,total_fee_wei,total_fee_eth"]
        lines.extend(row.to_csv_row() for row in self.rows)
        lines.append(self.total.to_csv_row())
        return "\n".join(lines) + "\n"


# A chain's gas totals: (tx_count, total_gas, total_fee) per category, over
# its transactions through some block.  The ledger tallies them as it walks
# and appends, and its tip sidecar keeps them.
Totals = Mapping[str, Tuple[int, int, int]]

NO_GAS: Totals = MappingProxyType(dict.fromkeys(CATEGORIES, (0, 0, 0)))


def tally(totals: Totals, txs: Sequence[Any], receipts: Sequence[Any]) -> Totals:
    """totals with each of txs added to its kind's category, by its
    receipt's gas and fee: the one place where gas is summed."""
    totals = dict(totals)
    for tx, receipt in zip(txs, receipts):
        category = type(tx.kind).__name__
        count, gas_used, fee_wei = totals[category]
        totals[category] = (count + 1, gas_used + receipt.gas_used, fee_wei + receipt.fee)
    return totals


def totals_from_canonical(doc: Any) -> Totals:
    """The totals whose canonical object is doc, {category: [tx_count,
    total_gas, total_fee]}; ValueError for any misfit."""
    _require(isinstance(doc, dict) and doc.keys() == set(CATEGORIES), "gas totals must hold each category")
    totals = {category: _list_of(_as_int)(doc[category], category) for category in CATEGORIES}
    _require(all(len(row) == 3 for row in totals.values()), "gas totals must be three integers")
    return totals


def build_report(totals: Totals) -> GasReport:
    """The report of a chain's gas totals: a row per category, then the total."""
    sums = [totals[category] for category in CATEGORIES]
    rows = tuple(GasReportRow(category, *row) for category, row in zip(CATEGORIES, sums))
    return GasReport(rows=rows, total=GasReportRow("TOTAL", *map(sum, zip(*sums))))
