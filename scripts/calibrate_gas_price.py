"""Calibration run for the default gas price.

Builds the canonical three-transaction chain (one contract deployment at the
default code size, one product registration, one sale), totals its gas, and
reports what the shipped DEFAULT_GAS_PRICE costs against the calibration
target of 0.00064428 ETH for that lifecycle. Exits 0 when the shipped price
lands within the +/-10% band, 1 otherwise.

Run after any change to GasParams or the canonical kind encodings:

    python scripts/calibrate_gas_price.py
"""

from __future__ import annotations

import argparse
import sys
from decimal import Decimal
from pathlib import Path

# The checkout's own sources come first, so the script runs from a
# checkout without an installed acprov or a PYTHONPATH.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from acprov import gas, simnet  # noqa: E402

TARGET_ETH = Decimal("0.00064428")
WEI_PER_ETH = 10**18


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--gas-price",
        type=int,
        default=gas.DEFAULT_GAS_PRICE,
        help="candidate gas price in wei (default: shipped DEFAULT_GAS_PRICE)",
    )
    args = parser.parse_args()

    _, blocks, receipts = simnet.build_cost_model_chain(gas_price=args.gas_price)
    report = gas.gas_report(blocks, receipts)

    print(f"candidate gas price: {args.gas_price} wei")
    for row in report.rows:
        if row.tx_count:
            print(f"  {row.category:<12} gas={row.total_gas}")
    total_gas = report.total.total_gas
    total_fee = report.total.total_fee
    print(f"  {'TOTAL':<12} gas={total_gas} fee={total_fee} wei = {gas.format_eth(total_fee)} ETH")

    target_wei = int(TARGET_ETH * WEI_PER_ETH)
    deviation = Decimal(total_fee - target_wei) / Decimal(target_wei)
    print(f"target: {target_wei} wei = {TARGET_ETH} ETH")
    print(f"deviation: {deviation:+.4%}")
    # exact price that would hit the target, for reference when re-calibrating
    print(f"exact-hit price: {target_wei / total_gas:.3f} wei/gas")

    ok = abs(deviation) <= Decimal("0.10")
    print("within +/-10% band" if ok else "OUT OF BAND: adjust DEFAULT_GAS_PRICE")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
