"""Regenerate the committed test fixtures under tests/fixtures/.

Everything here is deterministic: the same package version always writes the
same bytes, so a dirty `git diff` after running this script means behaviour
changed and the goldens moved. The 50-block chain doubles as the
cross-process replay witness: tests replay the committed bytes and must
reproduce the commitments recorded in goldens.json.

    python scripts/make_fixtures.py           # rewrite tests/fixtures/
    python scripts/make_fixtures.py --check   # regenerate elsewhere and compare

With --check nothing under tests/fixtures/ is written: the script exits 1
and names the first file whose bytes differ, or exits 0 when all match.
A chain's tip sidecar (``*.tip``, git-ignored), which a read command leaves
next to the chain it walked, is a cache and not a fixture: --check skips it.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# The checkout's own sources come first, so the script runs from a
# checkout without an installed acprov or a PYTHONPATH.
sys.path.insert(0, str(ROOT / "src"))

from acprov import gas, ledger, simnet  # noqa: E402

FIXTURES = ROOT / "tests" / "fixtures"

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


def write_fixtures(out: Path) -> dict:
    """Write every fixture file into out; returns the goldens."""
    out.mkdir(parents=True, exist_ok=True)
    SCENARIO_50.save(out / "scenario50.json")

    with tempfile.TemporaryDirectory() as tmp:
        result = simnet.run_scenario(SCENARIO_50, Path(tmp))
        shutil.copy(result.genesis_path, out / "genesis50.json")
        shutil.copy(result.chain_path, out / "chain50.jsonl")
        shutil.copy(result.trace_path, out / "trace50.jsonl")

    genesis = ledger.GenesisConfig.load(out / "genesis50.json")
    store = ledger.load_chain(out / "chain50.jsonl", genesis)
    report = gas.build_report(store.gas)
    (out / "gas_report50.csv").write_text(report.to_csv(), encoding="utf-8")

    goldens = {
        "blocks": store.tip.index + 1,
        "tip_commitment": store.tip.state_root,
        "tip_header_hash": store.tip.hash,
        "genesis_header_hash": ledger.genesis_block(genesis).header.hash,
        "total_gas": report.total.total_gas,
        "total_fee_wei": report.total.total_fee,
    }
    payload = json.dumps(goldens, indent=2, sort_keys=True) + "\n"
    (out / "goldens.json").write_text(payload, encoding="utf-8")
    return goldens


def _fixture_names(directory: Path) -> set:
    """The names of the fixture files in directory: all but tip sidecars."""
    return {p.name for p in directory.iterdir() if p.suffix != ".tip"}


def check() -> int:
    """Regenerate into a temp directory and compare with the committed files."""
    with tempfile.TemporaryDirectory() as tmp:
        fresh = Path(tmp)
        write_fixtures(fresh)
        names = sorted(_fixture_names(fresh) | _fixture_names(FIXTURES))
        for name in names:
            committed, regenerated = FIXTURES / name, fresh / name
            if not committed.is_file() or not regenerated.is_file():
                print(f"{name}: present in only one of the two sets", file=sys.stderr)
                return 1
            if committed.read_bytes() != regenerated.read_bytes():
                print(f"{name}: regenerated bytes differ from {committed}", file=sys.stderr)
                return 1
    print(f"{len(names)} fixture files match")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare freshly generated fixtures with tests/fixtures/ instead of writing",
    )
    if parser.parse_args(argv).check:
        return check()
    with tempfile.TemporaryDirectory() as tmp:
        goldens = write_fixtures(Path(tmp))
        for path in sorted(Path(tmp).iterdir()):
            shutil.copy(path, FIXTURES / path.name)
            print(f"wrote {path.name}")
    print(f"blocks={goldens['blocks']} tip={goldens['tip_commitment']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
