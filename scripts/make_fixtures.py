"""Regenerate the committed test fixtures under tests/fixtures/.

Everything here is deterministic: the same package version always writes the
same bytes, so a dirty `git diff` after running this script means behaviour
changed and the goldens moved. The 50-block chain doubles as the
cross-process replay witness: tests replay the committed bytes and must
reproduce the commitments recorded in goldens.json.

    python scripts/make_fixtures.py
"""

from __future__ import annotations

import json
import shutil
import tempfile
from pathlib import Path

from acprov import gas, ledger, simnet

FIXTURES = Path(__file__).resolve().parent.parent / "tests" / "fixtures"

# Tuned so the persisted chain is exactly 50 blocks (genesis + 49 sealed).
SCENARIO_50 = simnet.Scenario(
    seed=53,
    actors={
        "manufacturer": 2,
        "distributor": 3,
        "retailer": 3,
        "consumer": 3,
        "authority": 3,
    },
    products=9,
    txs_per_block=1,
)


def main() -> int:
    FIXTURES.mkdir(parents=True, exist_ok=True)
    SCENARIO_50.save(FIXTURES / "scenario50.json")

    with tempfile.TemporaryDirectory() as tmp:
        result = simnet.run_scenario(SCENARIO_50, Path(tmp))
        shutil.copy(result.genesis_path, FIXTURES / "genesis50.json")
        shutil.copy(result.chain_path, FIXTURES / "chain50.jsonl")
        shutil.copy(result.trace_path, FIXTURES / "trace50.jsonl")

    genesis = ledger.GenesisConfig.load(FIXTURES / "genesis50.json")
    store = ledger.load_chain(FIXTURES / "chain50.jsonl", genesis)
    report = gas.gas_report(store.blocks, store.receipts)
    (FIXTURES / "gas_report50.csv").write_text(report.to_csv(), encoding="utf-8")

    goldens = {
        "blocks": len(store.blocks),
        "tip_commitment": store.tip_commitment,
        "tip_header_hash": ledger.header_hash(store.blocks[-1].header),
        "genesis_header_hash": ledger.header_hash(store.blocks[0].header),
        "total_gas": report.total.total_gas,
        "total_fee_wei": report.total.total_fee,
    }
    payload = json.dumps(goldens, indent=2, sort_keys=True) + "\n"
    (FIXTURES / "goldens.json").write_text(payload, encoding="utf-8")

    for name in sorted(p.name for p in FIXTURES.iterdir()):
        print(f"wrote {name}")
    print(f"blocks={goldens['blocks']} tip={goldens['tip_commitment']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
