"""One-off reference ladder: how replay and simulation scale with chain size.

    python3 perfbench/ladder.py

For each product count it simulates the ROADMAP census in a fresh process
(simulate_tx_per_s), then times a fresh-process `acprov validate` of that
chain three times and keeps the median (validate_tx_per_s).  It fits
wall time = c * transactions^k by least squares on logarithms and prints k
for both: 1 is linear, 2 quadratic.  It also counts the blocks of a
400-product scenario at 32 transactions per block.  The 1600-product step
takes a few minutes.
"""

from __future__ import annotations

import math
import shutil
import statistics
import sys

import run as bench
from checks import read_blocks, tx_count
from child import CENSUS


def exponent(xs, ys) -> float:
    lx, ly = [math.log(x) for x in xs], [math.log(y) for y in ys]
    mx, my = statistics.fmean(lx), statistics.fmean(ly)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sum((a - mx) ** 2 for a in lx)


SEED = 1
SIZES = (100, 400, 1600)


def main() -> int:
    run = bench.Run("ladder", SEED, 0, False)
    run.work.mkdir(parents=True)
    rows = []
    try:
        for products in SIZES:
            out = run.work / f"p{products}"
            call = run.simulate(bench.derive(SEED, "ladder", products), out, products=products)
            bench.exited_ok(call)
            blocks = read_blocks(out / "chain.jsonl")
            txs = tx_count(blocks)
            base = ["--db", str(out / "chain.jsonl"), "--genesis", str(out / "genesis.json")]
            walls = []
            for _ in range(3):
                validate = run.cli(base + ["validate"])
                bench.exited_ok(validate)
                walls.append(validate.wall)
            rows.append((products, len(blocks), txs, call.doc["seconds"], statistics.median(walls)))
            print(
                f"products {products:5}  blocks {len(blocks):5}  txs {txs:5}  "
                f"simulate {call.doc['seconds']:7.2f} s {txs / call.doc['seconds']:7.0f} tx/s  "
                f"validate {statistics.median(walls):7.2f} s {txs / statistics.median(walls):7.0f} tx/s",
                flush=True,
            )
            shutil.rmtree(out)
        txs = [r[2] for r in rows]
        print(f"scaling exponent k (time ~ txs^k): simulate {exponent(txs, [r[3] for r in rows]):.2f}, "
              f"validate {exponent(txs, [r[4] for r in rows]):.2f}")

        from acprov import simnet

        wide = simnet.Scenario(seed=SEED, actors=CENSUS, products=400, txs_per_block=32)
        result = simnet.run_scenario(wide, run.work / "wide")
        print(f"400 products at 32 transactions per block: {len(result.blocks)} blocks")
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
