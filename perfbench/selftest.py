"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Each check must accept the program's real answer and reject a wrong one:
a one-byte chain edit, a swapped owner, a wrong exit code, a changed gas
figure or fee, a changed hash.  Prints one line per case and exits 1 if
any check accepts a wrong answer or rejects a right one.
"""

from __future__ import annotations

import json
import shutil
import sys
from dataclasses import replace

import run as bench
from checks import (
    FOREIGN_OUTPUT,
    CheckFailed,
    Fold,
    check_receipt,
    check_receipt_hashes,
    counterfeit_output,
    file_digest,
    gas_report_csv,
    history_output,
    qr_payload,
    read_blocks,
    read_genesis,
    validate_output,
    verify_output,
)

PRODUCTS = 12


class SelfTest:
    def __init__(self) -> None:
        self.bad = 0

    def case(self, name: str, check, wrong: bool) -> None:
        try:
            check()
            rejected = False
        except CheckFailed:
            rejected = True
        ok = rejected == wrong
        self.bad += not ok
        verdict = ("rejects" if rejected else "accepts") + (" a wrong answer" if wrong else " the right answer")
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {verdict}")

    def accepts(self, name: str, check) -> None:
        self.case(name, check, wrong=False)

    def rejects(self, name: str, check) -> None:
        self.case(name, check, wrong=True)


def edited(source, target, old: bytes, new: bytes, line: int):
    """Copy a chain file with one byte changed in the given line."""
    lines = source.read_bytes().split(b"\n")
    at = lines[line].index(old)
    assert len(old) == len(new) and sum(a != b for a, b in zip(old, new)) == 1
    lines[line] = lines[line][:at] + new + lines[line][at + len(old):]
    target.write_bytes(b"\n".join(lines))
    return target


def flip_last(hex_text: str) -> str:
    return hex_text[:-1] + ("0" if hex_text[-1] != "0" else "1")


def swap(text: str, a: str, b: str) -> str:
    return text.replace(a, "\0").replace(b, a).replace("\0", b)


def main() -> int:
    t = SelfTest()
    run = bench.Run("selftest", seed=7, seconds=0, traced=False)
    run.work.mkdir(parents=True)
    try:
        out = run.work / "chain"
        bench.exited_ok(run.simulate(11, out, products=PRODUCTS))
        genesis_path, chain_path = bench.chain_files(out)
        genesis, blocks = read_genesis(genesis_path), read_blocks(chain_path)
        fold = Fold(genesis, blocks)

        # The tip state_root against the oracle fold.
        t.accepts("state root", fold.check_tip)
        tip = blocks[-1]["header"]["state_root"]
        flipped = flip_last(tip)
        bad_root = edited(chain_path, run.work / "root.jsonl", tip.encode(), flipped.encode(), len(blocks) - 1)
        t.rejects("state root, one byte of the tip root edited", lambda: Fold(genesis, read_blocks(bad_root)).check_tip())
        line = next(i for i, b in enumerate(blocks) if any(tx["kind"]["type"] == "register" for tx in b["txs"]))
        bad_name = edited(chain_path, run.work / "name.jsonl", b'"Product ', b'"Pruduct ', line)
        t.rejects("state root, one byte of a product name edited", lambda: Fold(genesis, read_blocks(bad_name)).check_tip())
        bad_json = edited(chain_path, run.work / "json.jsonl", b'"header":', b'"header" ', 1)
        t.rejects("chain reader, one byte that breaks the JSON", lambda: read_blocks(bad_json))

        # Command outputs against the oracle's records.
        base = ["--db", str(chain_path), "--genesis", str(genesis_path)]
        contract = fold.state["contract"]["address"]
        pid = sorted(fold.state["products"])[0]
        record = fold.product(pid)
        verify = run.cli(base + ["verify", "--qr", qr_payload(genesis.chain_id, contract, pid)])
        expected = bench.answer(verify_output(record), 0)
        t.accepts("verify", lambda: expected(verify))
        swapped = swap(verify.out, record["manufacturer"], record["current_owner"])
        t.rejects("verify, manufacturer and owner swapped", lambda: expected(replace(verify, out=swapped)))

        history = run.cli(base + ["history", "--id", pid])
        expected_history = bench.answer(history_output(record["history"]), 0)
        t.accepts("history", lambda: expected_history(history))
        first, last = record["history"][0], record["history"][-1]
        t.rejects(
            "history, two owners swapped",
            lambda: expected_history(replace(history, out=swap(history.out, first, last))),
        )

        fake = "X-000000001"
        counterfeit = run.cli(base + ["verify", "--qr", qr_payload(genesis.chain_id, contract, fake)])
        expected_fake = bench.answer(counterfeit_output(fake), 3)
        t.accepts("counterfeit scan", lambda: expected_fake(counterfeit))
        t.rejects("counterfeit scan, exit 0", lambda: expected_fake(replace(counterfeit, code=0)))
        foreign = run.cli(base + ["verify", "--qr", qr_payload(genesis.chain_id, "0x" + "ab" * 20, pid)])
        expected_foreign = bench.answer(FOREIGN_OUTPUT, 3)
        t.accepts("foreign payload", lambda: expected_foreign(foreign))
        t.rejects(
            "foreign payload, answered as genuine",
            lambda: expected_foreign(replace(foreign, code=0, out=verify.out)),
        )

        validate = run.cli(base + ["validate"])
        expected_validate = bench.answer(validate_output(blocks, fold.commitment), 0)
        t.accepts("validate", lambda: expected_validate(validate))
        t.rejects(
            "validate, another tip",
            lambda: expected_validate(replace(validate, out=validate.out.replace(tip, flipped))),
        )

        report = run.cli(base + ["gas-report"])
        expected_report = bench.answer(gas_report_csv(fold.gas_by_tx), 0)
        t.accepts("gas-report", lambda: expected_report(report))
        total = report.out.splitlines()[-1].split(",")
        total[2] = str(int(total[2]) + 1)
        wrong_total = report.out.replace(report.out.splitlines()[-1], ",".join(total))
        t.rejects("gas-report, TOTAL gas off by one", lambda: expected_report(replace(report, out=wrong_total)))

        # Receipts of the shop session against the gas table.
        shop = bench.Shop(run, 0)
        (m_key, maker) = shop.keys["manufacturer"][0]
        kind = {"metadata": "", "name": "Widget", "product_id": "SKU-1", "type": "register"}
        register = run.cli(shop.base + ["tx", "register", "--key", m_key, "--id", "SKU-1", "--name", "Widget"])
        receipt = json.loads(register.out)
        price = shop.gas_price

        def with_receipt(**changes):
            return json.dumps({**receipt, **changes})

        t.accepts("receipt", lambda: check_receipt(register.out, kind, 2, price, None))
        t.rejects(
            "receipt, fee off by one wei",
            lambda: check_receipt(with_receipt(fee=receipt["fee"] + 1), kind, 2, price, None),
        )
        gas = receipt["gas_used"] + 16
        t.rejects(
            "receipt, gas off the table (fee consistent)",
            lambda: check_receipt(with_receipt(gas_used=gas, fee=gas * price), kind, 2, price, None),
        )
        t.rejects(
            "receipt, accepted where a rejection is due",
            lambda: check_receipt(register.out, kind, 2, price, "ProductUnavailable"),
        )
        shop_blocks = read_blocks(shop.chain_path)
        t.accepts("receipt hash", lambda: check_receipt_hashes(shop_blocks, [receipt]))
        t.rejects(
            "receipt hash, one digit changed",
            lambda: check_receipt_hashes(shop_blocks, [{**receipt, "tx_hash": flip_last(receipt["tx_hash"])}]),
        )

        # Two runs of one seed must write the same bytes.
        again = run.work / "again"
        bench.exited_ok(run.simulate(11, again, products=PRODUCTS))
        t.accepts("determinism", lambda: bench.expect(file_digest(chain_path) == file_digest(again / "chain.jsonl"), "differs"))
        t.rejects(
            "determinism, one byte edited",
            lambda: bench.expect(file_digest(chain_path) == file_digest(bad_root), "differs"),
        )
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    print(f"{'all checks behave' if not t.bad else f'{t.bad} case(s) wrong'}")
    return 1 if t.bad else 0


if __name__ == "__main__":
    sys.exit(main())
