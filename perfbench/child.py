"""One program process of the benchmark, optionally traced.

    child.py [--trace FILE --spawned-at T] cli ARG...
        runs ``acprov.cli.main(ARG...)``, as ``python -m acprov.cli`` would.
    child.py [--trace FILE --spawned-at T] simulate SEED PRODUCTS OUT_DIR
        runs ``simnet.run_scenario`` on the benchmark's census and prints,
        as one JSON line, the wall clock at entry and the seconds the call
        took up to its return, file writes included.

With ``--trace`` the layer functions are wrapped (see tracer.py) before the
entry point is called, and the counts, times and the start-up time (spawn at
wall clock T to entry) are written to FILE as JSON.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

# The ROADMAP census: 4 manufacturers, 6 distributors, 6 retailers,
# 50 consumers and 3 authorities, 4 transactions per block.
CENSUS = {"manufacturer": 4, "distributor": 6, "retailer": 6, "consumer": 50, "authority": 3}
TXS_PER_BLOCK = 4


def main(argv) -> int:
    trace_path = spawned_at = None
    while argv and argv[0].startswith("--"):
        option, value, argv = argv[0], argv[1], argv[2:]
        if option == "--trace":
            trace_path = Path(value)
        elif option == "--spawned-at":
            spawned_at = float(value)
        else:
            raise SystemExit(f"child.py: unknown option {option}")
    mode, args = argv[0], argv[1:]

    tracer = None
    if trace_path is not None:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    if mode == "cli":
        from acprov import cli as entry_module
    else:
        from acprov import simnet as entry_module

    entry = time.time()
    try:
        if mode == "cli":
            return entry_module.main(args)
        seed, products, out_dir = int(args[0]), int(args[1]), args[2]
        scenario = entry_module.Scenario(
            seed=seed, actors=CENSUS, products=products, txs_per_block=TXS_PER_BLOCK
        )
        start = time.perf_counter()
        result = entry_module.run_scenario(scenario, out_dir)
        seconds = time.perf_counter() - start
        print(json.dumps({"entry": entry, "seconds": seconds, "tip": result.tip_commitment}))
        return 0
    finally:
        if tracer is not None:
            report = tracer.report()
            report["startup_s"] = entry - spawned_at
            trace_path.write_text(json.dumps(report), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
