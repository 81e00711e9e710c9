"""Acceptance checks for the whole package.

Each test prints one PASS/FAIL line on the terminal (bypassing pytest's
capture) so a full run doubles as a release checklist:

    pytest tests/test_acceptance.py -q

The checks pin the shipped cost model, tamper evidence of persisted
chains, registry/oracle equivalence, the product lifecycle, the QR
payload format, faucet economics, and replay determinism.
"""

import json
import random
import string
import time
from decimal import Decimal
from pathlib import Path

import pytest

import support
from acprov import gas, ledger, oracle, qr, registry, simnet
from acprov.registry import Role

FIXTURES = Path(__file__).parent / "fixtures"
CALIBRATION_SCRIPT = Path(__file__).parent.parent / "scripts" / "calibrate_gas_price.py"

# shipped cost model: one Deploy at the default code size, one Register,
# one Sell, all at the default gas price
EXPECTED_GAS = {"Deploy": 453_544, "Register": 82_120, "Sell": 52_472}
COST_TARGET_ETH = Decimal("0.00064428")

ID_CHARS = string.ascii_letters + string.digits + "._-"
CRC32_CHECK_VALUE = 0xCBF43926

LIFECYCLE = simnet.Scenario(
    seed=42,
    actors={
        "manufacturer": 1,
        "distributor": 1,
        "retailer": 1,
        "consumer": 1,
        "authority": 1,
    },
    products=1,
)


def report(capsys, label, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    with capsys.disabled():
        print(f"[acceptance] {label:<24} {verdict}{suffix}")


def crc32_oracle(data: bytes) -> int:
    """Bitwise reflected CRC-32, independent of the shipped implementation."""
    crc = 0xFFFFFFFF
    for byte in data:
        crc ^= byte
        for _ in range(8):
            crc = (crc >> 1) ^ (0xEDB88320 * (crc & 1))
    return crc ^ 0xFFFFFFFF


@pytest.fixture(scope="module")
def random_log_runs():
    """1000 seeded random transaction logs folded by both machines.

    Shared between the equivalence and the faucet-conservation checks so
    the logs are generated and folded only once.
    """
    t0 = time.monotonic()
    runs = []
    for seed in range(20_000, 21_000):
        case = support.random_log(seed)
        state, receipts = support.fold(case.genesis, case.txs, case.contexts)
        ostate = oracle.reference_state_machine(
            case.txs, case.genesis, contexts=list(case.contexts)
        )
        claims = sum(
            1
            for tx, receipt in zip(case.txs, receipts)
            if receipt.accepted and isinstance(tx.kind, registry.FaucetClaim)
        )
        runs.append(
            {
                "seed": seed,
                "match": registry.state_commitment(state)
                == oracle.reference_commitment(ostate),
                "initial_supply": case.initial_supply,
                "final_supply": support.supply(state),
                "faucet_amount": case.genesis.faucet_amount,
                "accepted_claims": claims,
            }
        )
    return {"runs": runs, "elapsed": time.monotonic() - t0}


def test_cost_ordering(capsys):
    t0 = time.monotonic()
    _, _, totals = simnet.build_cost_model_chain()
    rows = {row.category: row for row in gas.build_report(totals).rows}
    got = {k: rows[k].total_gas for k in EXPECTED_GAS}
    elapsed = time.monotonic() - t0

    ordered = got["Deploy"] > got["Register"] > got["Sell"]
    ok = ordered and got == EXPECTED_GAS and elapsed < 1.0
    report(
        capsys,
        "cost ordering",
        ok,
        f"Deploy {got['Deploy']} > Register {got['Register']} > Sell {got['Sell']}; {elapsed:.2f}s",
    )
    assert ordered, f"gas ordering violated: {got}"
    assert got == EXPECTED_GAS, f"gas drifted from the shipped model: {got}"
    assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_total_cost_calibration(capsys):
    t0 = time.monotonic()
    _, _, totals = simnet.build_cost_model_chain()
    total_wei = gas.build_report(totals).total.total_fee
    actual_eth = Decimal(total_wei) / gas.WEI_PER_ETH
    deviation = (actual_eth - COST_TARGET_ETH) / COST_TARGET_ETH
    elapsed = time.monotonic() - t0

    within = abs(deviation) <= Decimal("0.10")
    script_present = CALIBRATION_SCRIPT.is_file()
    ok = within and script_present and elapsed < 1.0
    report(
        capsys,
        "total cost calibration",
        ok,
        f"{actual_eth} ETH vs {COST_TARGET_ETH} target, {float(deviation):+.2%}; {elapsed:.2f}s",
    )
    assert script_present, f"calibration script missing: {CALIBRATION_SCRIPT}"
    assert within, f"total {actual_eth} ETH deviates {float(deviation):+.2%} from target"
    assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_tamper_evidence(capsys, tmp_path):
    t0 = time.monotonic()
    genesis = ledger.GenesisConfig.load(FIXTURES / "genesis50.json")
    body = [ln for ln in (FIXTURES / "chain50.jsonl").read_bytes().split(b"\n") if ln]
    assert len(body) == 50, f"fixture chain has {len(body)} blocks, expected 50"

    rng = random.Random(3553)
    misses = []
    for trial in range(100):
        target = rng.randrange(len(body))
        line = bytearray(body[target])
        offset = rng.randrange(len(line))
        new_byte = rng.randrange(256)
        while new_byte == line[offset]:
            new_byte = rng.randrange(256)
        line[offset] = new_byte
        mutated = body[:target] + [bytes(line)] + body[target + 1 :]
        chain = tmp_path / "chain.jsonl"
        chain.write_bytes(b"\n".join(mutated) + b"\n")
        try:
            named = support.first_offense(chain, genesis)
        except AssertionError:  # the chain is valid
            named = None
        if named != target:
            misses.append((trial, target, named))
    elapsed = time.monotonic() - t0

    ok = not misses and elapsed < 5.0
    report(
        capsys,
        "tamper evidence",
        ok,
        f"{100 - len(misses)}/100 mutations named the right block; {elapsed:.2f}s",
    )
    assert not misses, f"undetected or misattributed mutations: {misses[:5]}"
    assert elapsed < 5.0, f"took {elapsed:.2f}s"


def _exhaustive_walk(genesis, keys):
    """Drive registry and oracle through every Register/Transfer/Sell
    sequence of length <= 4 over one product and three actors.

    Returns (sequences checked, mismatches).  States agree when their
    canonical forms agree, which is exactly what both commitments hash;
    every 97th node also compares the commitments themselves.
    """
    cast = [
        ("M", keys["manufacturer"]),
        ("D", keys["distributor"]),
        ("C", keys["consumer"]),
    ]
    key_by = dict(cast)
    addresses = [kp.address for _, kp in cast]
    price = genesis.gas_params.default_gas_price

    variants = [
        (tag, registry.Register(product_id="P-1", name="Widget", metadata=""))
        for tag, _ in cast
    ]
    variants += [
        (tag, registry.Transfer(product_id="P-1", new_owner=target))
        for tag, _ in cast
        for target in addresses
    ]
    variants += [
        (tag, registry.Sell(product_id="P-1", consumer=target))
        for tag, _ in cast
        for target in addresses
    ]
    assert len(variants) == 21

    # every tx here is authenticated, so each one bumps its sender's
    # nonce; at depth d a sender's nonce is how often it acted so far
    presigned = {
        (v, nonce): registry.make_tx(key_by[tag], genesis.chain_id, nonce, kind, price)
        for v, (tag, kind) in enumerate(variants)
        for nonce in range(6)
    }

    deploy = registry.make_tx(
        key_by["M"],
        genesis.chain_id,
        0,
        registry.Deploy(code_size=genesis.gas_params.default_code_size),
        price,
    )
    ctx1 = support.ctx_for(genesis, 1)
    root_r, receipt = registry.apply_tx(ledger.genesis_state(genesis), deploy, ctx1)
    assert receipt.accepted, "deploy prefix must succeed"
    root_o = oracle.reference_state_machine(
        [deploy], genesis, contexts=[(1, ctx1.timestamp, ctx1.sealer)]
    )

    contexts = {}
    for depth in range(4):
        index = depth + 2
        ctx = support.ctx_for(genesis, index, timestamp=3600 * index)
        contexts[depth] = (ctx, (index, ctx.timestamp, ctx.sealer))

    checked = 0
    mismatches = []
    stack = [(root_r, root_o, {"M": 1, "D": 0, "C": 0}, 0)]
    while stack:
        rstate, ostate, nonces, depth = stack.pop()
        ctx, octx = contexts[depth]
        for v, (tag, _) in enumerate(variants):
            tx = presigned[(v, nonces[tag])]
            r_next, _ = registry.apply_tx(rstate, tx, ctx)
            o_next = oracle.reference_state_machine(
                [tx], genesis, contexts=[octx], initial=ostate
            )
            checked += 1
            agree = o_next == r_next.to_canonical()
            if agree and checked % 97 == 0:
                agree = registry.state_commitment(r_next) == oracle.reference_commitment(
                    o_next
                )
            if not agree:
                mismatches.append((depth, variants[v]))
                continue
            if depth < 3:
                bumped = dict(nonces)
                bumped[tag] += 1
                stack.append((r_next, o_next, bumped, depth + 1))
    return checked, mismatches


def test_oracle_equivalence(capsys, random_log_runs):
    t0 = time.monotonic()
    genesis, keys = support.five_role_genesis()
    checked, mismatches = _exhaustive_walk(genesis, keys)
    elapsed = time.monotonic() - t0 + random_log_runs["elapsed"]

    runs = random_log_runs["runs"]
    log_mismatches = [r["seed"] for r in runs if not r["match"]]
    expected_sequences = sum(21**k for k in range(1, 5))
    ok = (
        len(runs) == 1000
        and not log_mismatches
        and checked == expected_sequences
        and not mismatches
        and elapsed < 30.0
    )
    report(
        capsys,
        "oracle equivalence",
        ok,
        f"{len(runs) - len(log_mismatches)}/1000 logs, "
        f"{checked - len(mismatches)}/{expected_sequences} sequences; {elapsed:.1f}s",
    )
    assert len(runs) == 1000
    assert not log_mismatches, f"diverging log seeds: {log_mismatches[:10]}"
    assert checked == expected_sequences, f"walked {checked} sequences"
    assert not mismatches, f"diverging sequences: {mismatches[:5]}"
    assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_lifecycle_and_counterfeit(capsys, tmp_path):
    t0 = time.monotonic()
    result = simnet.run_scenario(LIFECYCLE, tmp_path)
    actors = simnet.scenario_actors(LIFECYCLE)
    expected_history = tuple(
        actors[role][0].address
        for role in (Role.MANUFACTURER, Role.DISTRIBUTOR, Role.RETAILER, Role.CONSUMER)
    )
    record = result.final_state.products["P-001"]

    retailer = actors[Role.RETAILER][0]
    nonce = result.final_state.accounts[retailer.address].nonce
    genesis = ledger.GenesisConfig.load(result.genesis_path)
    second_sell = registry.make_tx(
        retailer.key,
        genesis.chain_id,
        nonce,
        registry.Sell(product_id="P-001", consumer=record.current_owner),
        genesis.gas_params.default_gas_price,
    )
    _, receipt = registry.apply_tx(
        result.final_state, second_sell, support.ctx_for(genesis, len(result.blocks))
    )

    ghost = qr.encode_payload(
        genesis.chain_id, result.final_state.contract.address, "GHOST-1"
    )
    probe = support.run_cli(
        "--db",
        str(result.chain_path),
        "--genesis",
        str(result.genesis_path),
        "verify",
        "--qr",
        ghost,
    )
    elapsed = time.monotonic() - t0

    history_ok = record.history == expected_history
    status_ok = record.status == registry.Status.UNAVAILABLE
    resell_ok = (
        not receipt.accepted and receipt.error == registry.PRODUCT_UNAVAILABLE
    )
    probe_ok = probe.returncode == 3 and "SUSPECTED COUNTERFEIT" in probe.stdout
    ok = history_ok and status_ok and resell_ok and probe_ok and elapsed < 1.0
    report(
        capsys,
        "lifecycle semantics",
        ok,
        f"history M-D-R-C, resell {receipt.error}, verify exit {probe.returncode}; {elapsed:.2f}s",
    )
    assert history_ok, f"history {record.history} != {expected_history}"
    assert status_ok, f"final status {record.status}"
    assert resell_ok, f"second sell: accepted={receipt.accepted} error={receipt.error}"
    assert probe_ok, f"verify exit {probe.returncode}: {probe.stdout}{probe.stderr}"
    assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_qr_payload(capsys):
    t0 = time.monotonic()
    rng = random.Random(90210)

    def random_fields():
        chain_id = rng.randrange(1, 2**31)
        contract = "0x" + "".join(rng.choices("0123456789abcdef", k=40))
        product_id = "".join(rng.choices(ID_CHARS, k=rng.randint(1, 64)))
        return chain_id, contract, product_id

    broken_round_trips = 0
    for _ in range(10_000):
        fields = random_fields()
        decoded = qr.decode_payload(qr.encode_payload(*fields))
        if (decoded.chain_id, decoded.contract, decoded.product_id) != fields:
            broken_round_trips += 1

    pool = ID_CHARS + ": !@"
    accepted_corruptions = 0
    for _ in range(10_000):
        payload = qr.encode_payload(*random_fields())
        position = rng.randrange(len(payload))
        replacement = rng.choice(pool)
        while replacement == payload[position]:
            replacement = rng.choice(pool)
        corrupted = payload[:position] + replacement + payload[position + 1 :]
        try:
            qr.decode_payload(corrupted)
        except qr.PayloadError:
            pass
        else:
            accepted_corruptions += 1

    shipped = qr.checksum(b"123456789")
    independent = crc32_oracle(b"123456789")
    check_ok = shipped == CRC32_CHECK_VALUE == independent
    elapsed = time.monotonic() - t0

    ok = (
        broken_round_trips == 0
        and accepted_corruptions == 0
        and check_ok
        and elapsed < 5.0
    )
    report(
        capsys,
        "qr payload",
        ok,
        f"10000 round trips, 10000 corruptions rejected, "
        f"check value {shipped:#010x}; {elapsed:.2f}s",
    )
    assert broken_round_trips == 0, f"{broken_round_trips} round trips broke"
    assert accepted_corruptions == 0, f"{accepted_corruptions} corruptions slipped through"
    assert check_ok, f"checksum {shipped:#010x} vs oracle {independent:#010x}"
    assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_faucet_economics(capsys, random_log_runs):
    genesis, keys = support.five_role_genesis()
    consumer = keys["consumer"]
    price = genesis.gas_params.default_gas_price
    state = ledger.genesis_state(genesis)
    before = state.accounts[consumer.address].balance
    outcomes = []
    for nonce, timestamp in ((0, 0), (1, 86_399), (2, 86_400)):
        tx = registry.make_tx(
            consumer, genesis.chain_id, nonce, registry.FaucetClaim(), price
        )
        state, receipt = registry.apply_tx(
            state, tx, support.ctx_for(genesis, 1, timestamp=timestamp)
        )
        outcomes.append((receipt.accepted, receipt.error))

    schedule_ok = outcomes == [
        (True, None),
        (False, registry.FAUCET_COOLDOWN),
        (True, None),
    ]
    granted = state.accounts[consumer.address].balance - before
    grant_ok = granted == 2 * genesis.faucet_amount == 10**18

    violations = [
        r["seed"]
        for r in random_log_runs["runs"]
        if r["final_supply"]
        != r["initial_supply"] + r["faucet_amount"] * r["accepted_claims"]
    ]
    ok = schedule_ok and grant_ok and not violations
    report(
        capsys,
        "faucet economics",
        ok,
        f"grant/cooldown/grant at 0/86399/86400, "
        f"conservation {len(random_log_runs['runs']) - len(violations)}/1000",
    )
    assert schedule_ok, f"claim outcomes: {outcomes}"
    assert grant_ok, f"two grants moved {granted} wei"
    assert not violations, f"supply drifted in seeds: {violations[:10]}"


def test_replay_determinism(capsys):
    goldens = json.loads((FIXTURES / "goldens.json").read_text())
    genesis = ledger.GenesisConfig.load(FIXTURES / "genesis50.json")
    first = ledger.load_chain(FIXTURES / "chain50.jsonl", genesis)
    second = ledger.load_chain(FIXTURES / "chain50.jsonl", genesis)
    csv_first = gas.build_report(first.gas).to_csv()
    csv_second = gas.build_report(second.gas).to_csv()
    committed_csv = (FIXTURES / "gas_report50.csv").read_text()

    tip, second_tip = first.tip, second.tip
    in_process = tip.state_root == second_tip.state_root and csv_first == csv_second
    # the committed goldens were produced by scripts/make_fixtures.py in
    # a separate process, so agreeing with them is a restart replay
    across_restart = (
        tip.state_root == goldens["tip_commitment"]
        and csv_first == committed_csv
        and ledger.header_hash(tip) == goldens["tip_header_hash"]
        and ledger.header_hash(ledger.genesis_block(genesis).header) == goldens["genesis_header_hash"]
    )
    ok = in_process and across_restart
    report(
        capsys,
        "replay determinism",
        ok,
        f"tip {tip.state_root[:18]}..., gas-report bytes identical",
    )
    assert in_process, "two in-process replays disagree"
    assert across_restart, (
        f"replay drifted from committed run: tip {tip.state_root} "
        f"vs {goldens['tip_commitment']}"
    )
