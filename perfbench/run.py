"""The acprov benchmark.

    python3 perfbench/run.py --workload {scan,simulate,counter} --seed N \\
        --seconds S --trace {0,1}

Each workload is one client in a closed loop: the next operation starts when
the previous one has ended.  Every operation is a fresh program process, so
no warm signature cache or import hides a cost a user pays.  With
``--trace 0`` the run repeats whole rounds of operations for S seconds and
prints the end-to-end metrics; with ``--trace 1`` it runs one round with the
layers untraced and the same round traced (see tracer.py), and prints the
per-layer metrics with the tracing overhead.  The last line of stdout is the
result as JSON; the line before it holds the workload's detailed figures.
Outputs are checked against the oracle fold and the README gas table
(checks.py); a mismatch counts the operation as failed.

Workloads (README.md in this directory has the why and the layer map):
  scan      verify/history/validate/gas-report on a 400-product chain
  simulate  simnet.run_scenario of a 400-product scenario
  counter   a shop's register/transfer/sell/resale/verify/history session;
            not in BENCHMARK.json, run by hand (README.md says why)
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from statistics import mean, median
from typing import Callable, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

PRODUCTS = 400  # scan and simulate chains: about 685 blocks, 1,970 transactions
SETUP_REPEATS = 3  # setup_s is the median of this many set-ups
TRACE_COUNTER_PRODUCTS = 4  # products in each session of a traced counter run
LAST_ROUND_START_S = 120  # no round starts later than this into a run
TIMEOUT_S = 175
COUNTER_CENSUS = (
    ("authority", 3),
    ("manufacturer", 2),
    ("distributor", 2),
    ("retailer", 2),
    ("consumer", 6),
)
FUNDS_WEI = 10**18
TRUSTED = ("manufacturer", "distributor", "retailer")

# The benchmark runs the acprov of the checkout it sits in, never an
# installed copy; without the sources it stops before measuring anything.
if not (SRC / "acprov" / "__init__.py").is_file():
    sys.exit(f"perfbench: no acprov sources under {SRC}")
sys.path.insert(0, str(SRC))

from acprov import cli, oracle  # noqa: E402,F401  (cli byte-compiles every layer once, untimed)
from acprov.crypto import KeyPair  # noqa: E402
from checks import (  # noqa: E402
    FOREIGN_OUTPUT,
    CheckFailed,
    Fold,
    check_receipt,
    check_receipt_hashes,
    contract_address,
    counterfeit_output,
    expect,
    file_digest,
    gas_report_csv,
    history_output,
    qr_payload,
    read_blocks,
    read_genesis,
    tx_count,
    validate_output,
    verify_output,
)


def derive(seed: int, *labels) -> int:
    """A 32-bit seed for one part of a run, fixed by the benchmark seed."""
    material = ":".join(["perfbench", str(seed), *map(str, labels)]).encode("utf-8")
    return int.from_bytes(hashlib.sha256(material).digest()[:4], "big")


@dataclass
class Call:
    code: int
    out: str
    err: str
    wall: float  # spawn to exit, seconds
    rss_mb: float  # peak resident set of the child
    doc: Optional[dict] = None  # JSON line printed by a simulate child


class Run:
    """Spawns program processes and keeps the tallies of one benchmark run."""

    def __init__(self, workload: str, seed: int, seconds: int, traced: bool):
        self.seed, self.seconds, self.traced = seed, seconds, traced
        self.work = HERE / "work" / f"{workload}-{seed}-{os.getpid()}"
        self.env = dict(os.environ)
        inherited = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), inherited)))
        self.started = time.perf_counter()
        self.attempted = self.failed = 0
        self.correct = True
        self.traces: List[dict] = []
        self.proc: Optional[subprocess.Popen] = None
        self._ids = 0

    def next_path(self, stem: str) -> Path:
        self._ids += 1
        return self.work / f"{stem}{self._ids}"

    def spawn(self, argv: List[str], cwd: Path) -> Call:
        err_path = self.next_path("stderr")
        with open(err_path, "wb") as err:
            start = time.perf_counter()
            self.proc = subprocess.Popen(argv, cwd=cwd, env=self.env, stdout=subprocess.PIPE, stderr=err)
            out = self.proc.stdout.read()
            self.proc.stdout.close()
            # wait4 rather than wait: it also gives this child's peak RSS (KiB).
            _, status, usage = os.wait4(self.proc.pid, 0)
            wall = time.perf_counter() - start
        code = self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc = None
        text = err_path.read_text(encoding="utf-8", errors="replace")
        err_path.unlink()
        return Call(code, out.decode("utf-8"), text, wall, usage.ru_maxrss / 1024)

    def _child(self, plain: List[str], mode: str, args: List[str], traced: bool) -> Call:
        """Run `plain`, or with `traced` the same work through child.py's tracer."""
        if not traced:
            return self.spawn(plain, self.work)
        trace_path = self.next_path("trace")
        argv = [sys.executable, str(HERE / "child.py"), "--trace", str(trace_path)]
        call = self.spawn(argv + ["--spawned-at", repr(time.time()), mode, *args], self.work)
        if trace_path.exists():
            self.traces.append(json.loads(trace_path.read_text(encoding="utf-8")))
            trace_path.unlink()
        return call

    def cli(self, args: List[str], traced: bool = False) -> Call:
        """One `acprov` command in a fresh process."""
        return self._child([sys.executable, "-m", "acprov.cli", *args], "cli", args, traced)

    def simulate(self, seed: int, out_dir: Path, traced: bool = False, products: int = PRODUCTS) -> Call:
        """simnet.run_scenario in a fresh process; doc holds its timing."""
        args = [str(seed), str(products), str(out_dir)]
        spawned = time.time()
        call = self._child([sys.executable, str(HERE / "child.py"), "simulate", *args], "simulate", args, traced)
        if call.code == 0:
            call.doc = json.loads(call.out)
            call.doc["startup"] = call.doc["entry"] - spawned
        return call

    def operation(self, call: Call, check: Callable[[Call], None]) -> bool:
        """Count one operation; it fails when its answer differs from the check."""
        self.attempted += 1
        try:
            check(call)
        except CheckFailed as exc:
            self.failed += 1
            print(f"failed operation: {exc}", file=sys.stderr)
            return False
        return True

    def whole(self, check: Callable[[], None]) -> None:
        """A check on the run's output as a whole; a mismatch makes it incorrect."""
        try:
            check()
        except CheckFailed as exc:
            self.correct = False
            print(f"incorrect output: {exc}", file=sys.stderr)

    def rounds(self, one_round: Callable[[], None], minimum: int = 1) -> None:
        """Whole rounds for about --seconds.

        A round starts when it would end nearer to --seconds, at the mean
        round time so far, than stopping now; so a run measures --seconds
        give or take half a round, rather than up to a round more.
        """
        count, start = 0, time.perf_counter()
        while True:
            elapsed = time.perf_counter() - start
            if count >= minimum and (
                elapsed + elapsed / count / 2 >= self.seconds
                or time.perf_counter() - self.started >= LAST_ROUND_START_S
            ):
                return
            one_round()
            count += 1


def answer(stdout: str, code: int) -> Callable[[Call], None]:
    def check(call: Call) -> None:
        expect(call.code == code, f"exit {call.code}, expected {code}: {call.err.strip()[-300:]}")
        expect(call.out == stdout, f"stdout {call.out[:300]!r}, expected {stdout[:300]!r}")

    return check


def exited_ok(call: Call) -> None:
    expect(call.code == 0, f"exit {call.code}: {call.err.strip()[-300:]}")


def tail(name: str, values: List[float]) -> Dict[str, dict]:
    """The highest of p75/p90/p95/p99 with at least ten samples beyond it."""
    shown = {}
    for q in (99, 95, 90, 75):
        if len(values) * (100 - q) / 100 >= 10:
            cut = statistics.quantiles(values, n=100)[q - 1]
            shown[f"{name}_p{q}_s"] = {"value": cut, "unit": "s", "samples": len(values)}
            break
    return shown


def chain_files(directory: Path) -> Tuple[Path, Path]:
    return directory / "genesis.json", directory / "chain.jsonl"


# ---------------------------------------------------------------------------
# scan: consumer and auditor reads on a deep chain


def scan(run: Run):
    scenario_seed = derive(run.seed, "scan")
    setups, digests = [], []
    for index in range(1 if run.traced else SETUP_REPEATS):
        out = run.work / f"chain{index}"
        call = run.simulate(scenario_seed, out)
        exited_ok(call)
        setups.append(call.wall)
        digests.append(file_digest(*chain_files(out), out / "trace.jsonl"))
    genesis_path, chain_path = chain_files(run.work / "chain0")
    genesis, blocks = read_genesis(genesis_path), read_blocks(chain_path)
    fold = Fold(genesis, blocks)
    run.whole(fold.check_tip)
    run.whole(lambda: expect(len(set(digests)) == 1, "one scenario seed wrote different files"))
    txs = tx_count(blocks)
    contract = fold.state["contract"]["address"]
    product_ids = sorted(fold.state["products"])
    sold_ids = [pid for pid in product_ids if fold.product(pid)["status"] == "unavailable"]
    gas_csv = gas_report_csv(fold.gas_by_tx)
    base = ["--db", str(chain_path), "--genesis", str(genesis_path)]
    rng = random.Random(derive(run.seed, "scan-reads"))

    def payload(product_id: str, address: str = contract) -> List[str]:
        return ["verify", "--qr", qr_payload(genesis.chain_id, address, product_id)]

    def round_ops():
        ops = []
        sold, owned = rng.choice(sold_ids), rng.choice(product_ids)
        ops.append(("read", payload(sold), answer(verify_output(fold.product(sold)), 0)))
        ops.append(("read", ["history", "--id", owned], answer(history_output(fold.product(owned)["history"]), 0)))
        fake = f"X-{rng.randrange(10**9):09d}"  # simnet ids are P-<n>
        ops.append(("read", payload(fake), answer(counterfeit_output(fake), 3)))
        foreign = contract
        while foreign == contract:
            foreign = "0x" + rng.randbytes(20).hex()
        ops.append(("read", payload(rng.choice(product_ids), foreign), answer(FOREIGN_OUTPUT, 3)))
        ops.append(("validate", ["validate"], answer(validate_output(blocks, fold.commitment), 0)))
        ops.append(("gas-report", ["gas-report"], answer(gas_csv, 0)))
        return ops

    samples: Dict[str, List[float]] = defaultdict(list)
    rss: List[float] = []

    def play(ops, traced: bool) -> float:
        wall = 0.0
        for kind, args, check in ops:
            call = run.cli(base + args, traced)
            run.operation(call, check)
            wall += call.wall
            if not traced:
                samples[kind].append(call.wall)
                rss.append(call.rss_mb)
        return wall

    if run.traced:
        ops = round_ops()
        plain = play(ops, False)
        traced = play(ops, True)
        return layer_metrics(run, [txs] * len(ops), plain, traced)

    run.rounds(lambda: play(round_ops(), False))
    reads = samples["read"]
    # Means and rates over the whole run, not medians: this machine's speed
    # flips between a fast and a slow state, about 1.4x apart, that each
    # last one to several minutes. A run's median takes the state that held
    # most of the run; its mean weighs both, so it spreads less between runs.
    validate_rate = txs * len(samples["validate"]) / sum(samples["validate"])
    metrics = {
        "setup_s": (median(setups), "s"),
        "op_mean_s": (mean(reads), "s"),
        "tx_per_s": (validate_rate, "tx/s"),
        "peak_rss_mb": (max(rss), "MB"),
    }
    detail = {
        "scan_p50_s": {"value": median(reads), "unit": "s", "samples": len(reads)},
        "validate_tx_per_s": {"value": validate_rate, "unit": "tx/s", "samples": len(samples["validate"])},
        "gas_report_s": {
            "value": median(samples["gas-report"]),
            "unit": "s",
            "samples": len(samples["gas-report"]),
        },
        "chain": {"blocks": len(blocks), "txs": txs, "bytes": chain_path.stat().st_size},
        **tail("scan", reads),
    }
    return metrics, detail


# ---------------------------------------------------------------------------
# simulate: bulk block production in one process


def simulate(run: Run):
    seeds = [derive(run.seed, "simulate", k) for k in range(2)]
    kept: Dict[int, Tuple[Path, str]] = {}  # seed -> (first output, its digest)
    startups, seconds, sealed, rss = [], [], [], []

    def iteration(seed: int, traced: bool = False) -> Call:
        out = run.next_path("sim")
        call = run.simulate(seed, out, traced)

        def check(call: Call) -> None:
            exited_ok(call)
            blocks = read_blocks(out / "chain.jsonl")
            expect(call.doc["tip"] == blocks[-1]["header"]["state_root"], "reported tip is not the file's")
            digest = file_digest(*chain_files(out), out / "trace.jsonl")
            first = kept.setdefault(seed, (out, digest))
            expect(first[1] == digest, "one scenario seed wrote different files")
            call.doc["txs"] = tx_count(blocks)

        if run.operation(call, check) and not traced:
            startups.append(call.doc["startup"])
            seconds.append(call.doc["seconds"])
            sealed.append(call.doc["txs"])
            rss.append(call.rss_mb)
        if kept.get(seed, (None,))[0] != out:
            shutil.rmtree(out, ignore_errors=True)
        return call

    if run.traced:
        plain = iteration(seeds[0])
        traced = iteration(seeds[0], traced=True)
        check_folds(run, kept)
        return layer_metrics(run, [plain.doc["txs"]], plain.doc["seconds"], traced.doc["seconds"])

    # Two rounds at least, so that each seed is simulated twice.
    run.rounds(lambda: [iteration(seed) for seed in seeds], minimum=2)
    check_folds(run, kept)
    # Means and rates over the whole run; see scan.
    rate = sum(sealed) / sum(seconds)
    metrics = {
        "setup_s": (median(startups), "s"),
        "op_mean_s": (mean(seconds), "s"),
        "tx_per_s": (rate, "tx/s"),
        "peak_rss_mb": (max(rss), "MB"),
    }
    detail = {
        "simulate_tx_per_s": {"value": rate, "unit": "tx/s", "samples": len(sealed)},
        "simulate_s": {"value": median(seconds), "unit": "s", "samples": len(seconds)},
    }
    return metrics, detail


def check_folds(run: Run, kept: Dict[int, Tuple[Path, str]]) -> None:
    for out, _ in kept.values():
        genesis_path, chain_path = chain_files(out)
        run.whole(lambda: Fold(read_genesis(genesis_path), read_blocks(chain_path)).check_tip())


# ---------------------------------------------------------------------------
# counter: a shop's interactive session on a shallow chain


class Shop:
    """A fresh chain from `acprov init`, with its key files in one directory."""

    def __init__(self, run: Run, index: int):
        self.run = run
        self.dir = run.work / f"shop{index}"
        key_dir = self.dir / "keys"
        key_dir.mkdir(parents=True)
        self.genesis_path, self.chain_path = chain_files(self.dir)
        self.base = ["--db", str(self.chain_path), "--genesis", str(self.genesis_path)]
        start = time.perf_counter()
        self.keys: Dict[str, List[Tuple[str, str]]] = {}  # role -> [(key file, address)]
        for role, count in COUNTER_CENSUS:
            for number in range(count):
                material = f"perfbench:{run.seed}:{role}:{number}".encode("utf-8")
                key = KeyPair.from_seed(hashlib.sha256(material).digest())
                path = key_dir / f"{role}{number}.json"
                doc = {"address": key.address, "public_key": key.public_key, "role": role, "secret_key": key.secret_key}
                path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")
                self.keys.setdefault(role, []).append((str(path), key.address))
        init = ["init"]
        for path, address in self.keys["authority"]:
            init += ["--authority", path]
        for role in TRUSTED + ("consumer",):
            for path, address in self.keys[role]:
                init += ["--account", f"{path}:{role}"]
                if role in TRUSTED:
                    init += ["--fund", f"{address}={FUNDS_WEI}"]
        keys_s = time.perf_counter() - start
        init_call = run.cli(self.base + init)
        exited_ok(init_call)
        self.genesis = read_genesis(self.genesis_path)
        self.gas_price = self.genesis.gas_params.default_gas_price
        self.blocks = 1
        self.txs = 0
        self.chain_txs: List[int] = []  # transactions on the chain after each operation
        self.receipts: List[dict] = []
        maker_path, maker = self.keys["manufacturer"][0]
        deploy_call = run.cli(self.base + ["tx", "deploy", "--key", maker_path])
        self.setup_s = keys_s + init_call.wall + deploy_call.wall
        genesis_root = oracle.reference_commitment(oracle.reference_genesis_state(self.genesis))
        expect(init_call.out.endswith(f"tip: {genesis_root}\n"), "init printed another genesis root")
        code_size = self.genesis.gas_params.default_code_size
        self.receipt_check({"code_size": code_size, "type": "deploy"}, None)(deploy_call)
        self.contract = contract_address(maker, 0)

    def receipt_check(self, kind_doc: dict, error) -> Callable[[Call], None]:
        def check(call: Call) -> None:
            block_index = self.blocks
            if call.code in (0, 1):  # the transaction landed, accepted or rejected
                self.blocks += 1
                self.txs += 1
            expect(call.code == (0 if error is None else 1), f"tx exit {call.code}: {call.err.strip()[-300:]}")
            self.receipts.append(check_receipt(call.out, kind_doc, block_index, self.gas_price, error))

        return check

    def product_round(self, number: int, rng: random.Random, traced: bool, samples, rss) -> float:
        """Register, move and sell one product, try to resell it, then scan it."""
        pid = f"SKU-{number:05d}"
        name = f"Item {rng.randrange(10**6)}"
        (m_key, maker), (d_key, dist), (r_key, shop) = (
            rng.choice(self.keys[role]) for role in TRUSTED
        )
        (_, buyer), (_, second) = rng.sample(self.keys["consumer"], 2)
        record = {
            "product_id": pid,
            "status": "unavailable",
            "manufacturer": maker,
            "current_owner": buyer,
            "history": [maker, dist, shop, buyer],
        }
        fake = f"{pid}-FAKE"

        def qr(product_id: str) -> str:
            return qr_payload(self.genesis.chain_id, self.contract, product_id)

        ops = [
            ("tx", ["tx", "register", "--key", m_key, "--id", pid, "--name", name],
             self.receipt_check({"metadata": "", "name": name, "product_id": pid, "type": "register"}, None)),
            ("tx", ["tx", "transfer", "--key", m_key, "--id", pid, "--to", dist],
             self.receipt_check({"new_owner": dist, "product_id": pid, "type": "transfer"}, None)),
            ("tx", ["tx", "transfer", "--key", d_key, "--id", pid, "--to", shop],
             self.receipt_check({"new_owner": shop, "product_id": pid, "type": "transfer"}, None)),
            ("tx", ["tx", "sell", "--key", r_key, "--id", pid, "--to", buyer],
             self.receipt_check({"consumer": buyer, "product_id": pid, "type": "sell"}, None)),
            ("tx", ["tx", "sell", "--key", r_key, "--id", pid, "--to", second],
             self.receipt_check({"consumer": second, "product_id": pid, "type": "sell"}, "ProductUnavailable")),
            ("read", ["verify", "--qr", qr(pid)], answer(verify_output(record), 0)),
            ("read", ["verify", "--qr", qr(fake)], answer(counterfeit_output(fake), 3)),
            ("read", ["history", "--id", pid], answer(history_output(record["history"]), 0)),
        ]
        wall = 0.0
        for kind, args, check in ops:
            call = self.run.cli(self.base + args, traced)
            self.run.operation(call, check)
            wall += call.wall
            self.chain_txs.append(self.txs)
            if not traced:
                samples[kind].append(call.wall)
                rss.append(call.rss_mb)
        return wall

    def check_chain(self) -> None:
        blocks = read_blocks(self.chain_path)
        Fold(self.genesis, blocks).check_tip()
        check_receipt_hashes(blocks, self.receipts)


def counter(run: Run):
    samples: Dict[str, List[float]] = defaultdict(list)
    rss: List[float] = []

    def session(index: int, products: Optional[int], traced: bool) -> Tuple[Shop, float]:
        shop = Shop(run, index)
        rng = random.Random(derive(run.seed, "counter"))
        walls = []
        if products is None:
            run.rounds(lambda: walls.append(shop.product_round(len(walls) + 1, rng, traced, samples, rss)))
        else:
            for number in range(1, products + 1):
                walls.append(shop.product_round(number, rng, traced, samples, rss))
        run.whole(shop.check_chain)
        return shop, sum(walls)

    if run.traced:
        plain_shop, plain = session(0, TRACE_COUNTER_PRODUCTS, False)
        traced_shop, traced = session(1, TRACE_COUNTER_PRODUCTS, True)
        run.whole(
            lambda: expect(
                file_digest(plain_shop.chain_path) == file_digest(traced_shop.chain_path),
                "the traced session wrote another chain",
            )
        )
        return layer_metrics(run, traced_shop.chain_txs, plain, traced)

    setups = [Shop(run, index).setup_s for index in range(1, SETUP_REPEATS)]
    shop, wall = session(0, None, False)
    setups.append(shop.setup_s)
    txs = samples["tx"]
    metrics = {
        "setup_s": (median(setups), "s"),
        "op_mean_s": (mean(txs), "s"),
        "tx_per_s": (len(txs) / wall, "tx/s"),
        "peak_rss_mb": (max(rss), "MB"),
    }
    detail = {
        "tx_p50_s": {"value": median(txs), "unit": "s", "samples": len(txs)},
        "scan_p50_s": {"value": median(samples["read"]), "unit": "s", "samples": len(samples["read"])},
        "chain": {"blocks": shop.blocks, "txs": shop.txs},
        **tail("tx", txs),
        **tail("scan", samples["read"]),
    }
    return metrics, detail


# ---------------------------------------------------------------------------
# Per-layer metrics of a traced run

# Layer times that are zero on a workload where the layer does not run; they
# are printed with the detail line, not with the result.
DETAIL_LAYER_TIMES = (
    "crypto.sign_s",
    "ledger.parse_chain_s",
    "ledger.replay_s",
    "ledger.seal_block_s",
    "ledger.append_block_s",
    "qr.decode_s",
    "simnet.run_scenario_self_s",
    "cli.command_s",
)


def layer_metrics(run: Run, chain_txs: List[int], plain_s: float, traced_s: float):
    spans: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
    counters: Dict[str, float] = defaultdict(float)
    startup = 0.0
    for report in run.traces:
        for name, (calls, total, own) in report["spans"].items():
            span = spans[name]
            span[0] += calls
            span[1] += total
            span[2] += own
        for name, value in report["counters"].items():
            counters[name] += value
        startup += report["startup_s"]

    def calls(name: str) -> int:
        return spans[name][0] if name in spans else 0

    def total(name: str) -> float:
        return spans[name][1] if name in spans else 0.0

    def own(name: str) -> float:
        return spans[name][2] if name in spans else 0.0

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    replays = ("ledger.load_chain", "ledger.replay_chain", "ledger.validate_chain")
    commands = calls("cli.main") + calls("simnet.run_scenario")
    values = {
        "registry.state_commitment_calls": (calls("registry.state_commitment"), "count"),
        "registry.state_commitment_s": (total("registry.state_commitment"), "s"),
        "registry.state_commitment_bytes": (counters["registry.state_commitment_bytes"], "bytes"),
        "crypto.verify_calls": (calls("crypto.verify"), "count"),
        "crypto.verify_s": (total("crypto.verify"), "s"),
        "crypto.verify_cache_hit_ratio": (
            ratio(counters["crypto.verify_repeats"], calls("crypto.verify")),
            "ratio",
        ),
        "crypto.sign_calls": (calls("crypto.sign"), "count"),
        "crypto.sign_s": (total("crypto.sign"), "s"),
        "registry.apply_tx_calls": (calls("registry.apply_tx"), "count"),
        "registry.apply_tx_s": (own("registry.apply_tx"), "s"),
        "registry.apply_tx_per_tx": (ratio(calls("registry.apply_tx"), sum(chain_txs)), "calls/tx"),
        "registry.tx_hash_calls": (calls("registry.tx_hash"), "count"),
        "gas.intrinsic_gas_calls": (calls("gas.intrinsic_gas"), "count"),
        "gas.intrinsic_gas_s": (total("gas.intrinsic_gas"), "s"),
        "canonical.serialize_calls": (calls("canonical.canonical_serialize"), "count"),
        "canonical.serialize_s": (total("canonical.canonical_serialize"), "s"),
        "canonical.serialize_bytes": (counters["canonical.serialize_bytes"], "bytes"),
        "canonical.hash_calls": (calls("canonical.hash_of"), "count"),
        "ledger.parse_chain_calls": (calls("ledger.parse_chain_bytes"), "count"),
        "ledger.parse_chain_s": (total("ledger.parse_chain_bytes"), "s"),
        "ledger.parse_chain_bytes": (counters["ledger.parse_chain_bytes"], "bytes"),
        "ledger.replay_s": (
            sum(total(name) for name in replays) - counters["ledger.parse_in_load_s"],
            "s",
        ),
        "ledger.replays_per_command": (
            ratio(sum(calls(name) for name in replays), commands),
            "replays/cmd",
        ),
        "ledger.seal_block_calls": (calls("ledger.seal_block"), "count"),
        "ledger.seal_block_s": (total("ledger.seal_block"), "s"),
        "ledger.append_block_calls": (calls("ledger.append_block"), "count"),
        "ledger.append_block_s": (total("ledger.append_block"), "s"),
        "ledger.bytes_appended": (counters["ledger.bytes_appended"], "bytes"),
        "ledger.header_hash_calls": (calls("ledger.header_hash"), "count"),
        "qr.decode_calls": (calls("qr.decode_payload"), "count"),
        "qr.decode_s": (total("qr.decode_payload"), "s"),
        "simnet.run_scenario_self_s": (own("simnet.run_scenario"), "s"),
        "cli.calls": (calls("cli.main"), "count"),
        "cli.command_s": (total("cli.main"), "s"),
        "process.startup_s": (startup, "s"),
        "trace.overhead_pct": (100.0 * (traced_s - plain_s) / plain_s, "%"),
    }
    detail = {
        "spans": {name: {"calls": c, "total_s": t, "self_s": s} for name, (c, t, s) in sorted(spans.items())},
        "layer_times": {name: {"value": values[name][0], "unit": "s"} for name in DETAIL_LAYER_TIMES},
        "untraced_s": plain_s,
        "traced_s": traced_s,
    }
    return {name: value for name, value in values.items() if name not in DETAIL_LAYER_TIMES}, detail


# ---------------------------------------------------------------------------

WORKLOADS = {"scan": scan, "simulate": simulate, "counter": counter}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def on_alarm(signum, frame):
    raise TimeoutError(f"run exceeded {TIMEOUT_S} s")


def main(argv=None) -> int:
    args = parse_args(argv)
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(TIMEOUT_S)
    run.work.mkdir(parents=True)
    try:
        metrics, detail = WORKLOADS[args.workload](run)
    except (TimeoutError, CheckFailed) as exc:
        print(f"perfbench: {args.workload} did not complete: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        if run.proc is not None:
            run.proc.kill()
            run.proc.wait()
        shutil.rmtree(run.work, ignore_errors=True)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace, "detail": detail}))
    print(
        json.dumps(
            {
                "correct": run.correct,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
