"""Deterministic multi-actor supply-chain simulator and adversary.

A Scenario fully determines its output: actor keys derive from the
seed, every random choice comes from one seeded Mersenne Twister
(CPython's ``random.Random``, stable across supported versions), and
timestamps are logical seconds advancing ``clock_step`` per action.
Running the same scenario twice yields byte-identical chain and trace
files.

The adversary is file-level: Mutations overwrite single bytes of the
persisted chain, never in-memory state, after the honest run finishes.
"""

from __future__ import annotations

import functools
import hashlib
import json
import random
import tempfile
from pathlib import Path
from typing import Any, ClassVar, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from . import ledger, registry
from .canonical import (
    Record,
    _as_address,
    _as_int,
    _as_str,
    _canonical,
    _check_fields,
    _dict_of,
    _list_of,
    _optional,
    _record,
    _require,
)
from .crypto import KeyPair
from .gas import Totals
from .registry import (
    Deploy,
    FaucetClaim,
    Register,
    Role,
    Sell,
    Transfer,
)

ROLE_ORDER = (Role.MANUFACTURER, Role.DISTRIBUTOR, Role.RETAILER, Role.CONSUMER, Role.AUTHORITY)


class ScenarioInvalidError(Exception):
    pass


def _as_byte(value: Any, name: str) -> int:
    _require(_as_int(value, name) <= 255, f"{name} must fit in one byte")
    return value


class Mutation(Record):
    """One byte of the chain file to overwrite after the honest run."""
    CHECKS: ClassVar[dict] = {"target": _as_int, "byte_offset": _as_int, "new_byte": _as_byte}
    target: int  # block index == 0-based line number in the chain file
    byte_offset: int  # offset within that block's line
    new_byte: int

    to_canonical = _canonical


class Scenario(Record):
    """A simulation's inputs: seed, actors, products, pacing and tamper plan."""
    CHECKS: ClassVar[dict] = {
        "seed": functools.partial(_as_int, minimum=None),
        "actors": _dict_of(_as_int),
        "products": _as_int,
        "steps": _as_int,
        "clock_step": _as_int,
        "txs_per_block": functools.partial(_as_int, minimum=1),
        "chain_id": functools.partial(_as_int, minimum=1),
        "tamper_plan": _optional(_list_of(_record(Mutation))),
    }
    seed: int
    actors: Mapping[str, int]  # role value -> count
    products: int
    steps: int = 10_000
    clock_step: int = 3600
    txs_per_block: int = 4
    chain_id: int = 5
    tamper_plan: Optional[Tuple[Mutation, ...]] = None

    def validate(self) -> None:
        """The decoder's member checks, then the rules that span members."""
        try:
            _check_fields(self)
            unknown = set(self.actors) - {role.value for role in ROLE_ORDER}
            _require(not unknown, f"unknown actor roles: {sorted(unknown)}")
            _require(self.count(Role.MANUFACTURER) >= 1, "at least one manufacturer required")
            _require(self.count(Role.AUTHORITY) >= 1, "at least one authority required")
        except ValueError as exc:
            raise ScenarioInvalidError(str(exc)) from None

    def count(self, role: Role) -> int:
        return self.actors.get(role.value, 0)

    to_canonical = _canonical

    @classmethod
    def from_canonical(cls, doc: Any) -> "Scenario":
        """A scenario document; members left out take their defaults."""
        try:
            scenario = _record(cls, defaults=True)(doc, "scenario")
        except ValueError as exc:
            raise ScenarioInvalidError(str(exc)) from None
        scenario.validate()
        return scenario

    def save(self, path) -> None:
        Path(path).write_text(
            json.dumps(self.to_canonical(), sort_keys=True, indent=2) + "\n", encoding="utf-8"
        )

    @classmethod
    def load(cls, path) -> "Scenario":
        try:
            doc = json.loads(Path(path).read_text(encoding="utf-8"))
        # ValueError covers bad UTF-8 and JSON, and an int longer than int() reads
        except (ValueError, RecursionError) as exc:
            raise ScenarioInvalidError(f"scenario file is not valid JSON: {exc}") from exc
        return cls.from_canonical(doc)


def _any(value: Any, name: str) -> Any:
    return value


class TraceEvent(Record):
    """One trace line: a submitted transaction or a scan, and its outcome."""
    CHECKS: ClassVar[dict] = {
        "step": _as_int,
        "actor": _as_address,
        "action": _as_str,
        "detail": _dict_of(_any),
        "outcome": _dict_of(_any),
    }
    step: int
    actor: str
    action: str  # the wire type of the submitted kind, or verify
    detail: Mapping[str, Any]
    outcome: Mapping[str, Any]

    to_canonical = _canonical


class Actor(Record):
    """A simulated participant: its key and role."""
    key: KeyPair
    role: Role

    @property
    def address(self) -> str:
        return self.key.address


class SimulationResult(NamedTuple):
    """The files run_scenario wrote, and the chain and state it ended with."""
    scenario: Scenario
    genesis: ledger.GenesisConfig
    blocks: List[ledger.Block]
    final_state: registry.RegistryState
    trace: List[TraceEvent]
    chain_path: Path
    trace_path: Path
    genesis_path: Path

    @property
    def tip_commitment(self) -> str:
        return self.blocks[-1].header.state_root


def actor_keypair(seed: int, role: Role, index: int) -> KeyPair:
    material = f"acprov:actor:{seed}:{role.value}:{index}".encode("utf-8")
    return KeyPair.from_seed(hashlib.sha256(material).digest())


def scenario_actors(scenario: Scenario) -> Dict[Role, List[Actor]]:
    actors: Dict[Role, List[Actor]] = {}
    for role in ROLE_ORDER:
        actors[role] = [
            Actor(key=actor_keypair(scenario.seed, role, i), role=role)
            for i in range(scenario.count(role))
        ]
    return actors


def scenario_genesis(scenario: Scenario) -> Tuple[ledger.GenesisConfig, Dict[Role, List[Actor]]]:
    actors = scenario_actors(scenario)
    roles = {}
    account_keys = {}
    for role in ROLE_ORDER:
        for actor in actors[role]:
            roles[actor.address] = role
            if role is not Role.AUTHORITY:
                account_keys[actor.address] = actor.key.public_key
    genesis = ledger.GenesisConfig(
        chain_id=scenario.chain_id,
        authorities=tuple((a.address, a.key.public_key) for a in actors[Role.AUTHORITY]),
        roles=roles,
        initial_balances={},
        account_keys=account_keys,
    )
    genesis.validate()
    return genesis, actors


def apply_mutations(path, mutations: Sequence[Mutation]) -> None:
    """Overwrite single bytes of the persisted chain file."""
    path = Path(path)
    raw = path.read_bytes()
    lines = raw.split(b"\n")
    for mutation in mutations:
        if not 0 <= mutation.target < len(lines) or lines[mutation.target] == b"":
            raise ValueError(f"mutation target {mutation.target} is not a chain line")
        line = bytearray(lines[mutation.target])
        if not 0 <= mutation.byte_offset < len(line):
            raise ValueError(
                f"byte_offset {mutation.byte_offset} outside block {mutation.target}"
            )
        line[mutation.byte_offset] = mutation.new_byte
        lines[mutation.target] = bytes(line)
    path.write_bytes(b"\n".join(lines))


# A transaction the scenario submitted: (step, actor address, action, trace
# detail, the envelope, signed before the first block executes).
_Submitted = Tuple[int, str, str, dict, registry.TxEnvelope]


def run_scenario(scenario: Scenario, out_dir) -> SimulationResult:
    """Drive the scripted lifecycle and persist chain, trace, and genesis.

    Lifecycle per product: a random manufacturer registers, the owner
    makes 0-3 transfers along trusted nodes, sells to a random
    consumer, and the buyer verifies.  All actors bootstrap through
    the fee-free faucet; senders occasionally re-claim mid-run, which
    exercises the cooldown both ways.  ``steps`` caps the total number
    of submitted transactions.  The whole run is scripted before the
    first block executes, so that its envelopes are signed in one batch
    (registry.sign_txs); signatures made here are memoized, so not rechecked.
    The blocks it seals are known then too, so they are appended in one
    call, whose forked copy commits their state roots ahead
    (ledger.extend_plan); each block's trace lines are encoded once it is
    written, while the copy works, and the trace file is written after the
    last.  The run then writes the chain's tip checkpoint
    (ledger.checkpoint), before any tamper plan is applied.
    """
    scenario.validate()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    genesis, actors = scenario_genesis(scenario)
    genesis_path = out / "genesis.json"
    chain_path = out / "chain.jsonl"
    trace_path = out / "trace.jsonl"
    genesis.save(genesis_path)
    if chain_path.exists():
        chain_path.unlink()
    store = ledger.create_store(chain_path, genesis)

    rng = random.Random(scenario.seed)
    keys = {actor.address: actor.key for group in actors.values() for actor in group}
    nonces = {address: 0 for address in keys}
    trace: List[TraceEvent] = []
    lines: List[bytes] = []  # the trace's lines, encoded as they are traced
    # Scripting first is sound because the rng draws, nonces, block
    # boundaries, clocks and trace order depend on the scenario alone,
    # never on a receipt or the state.
    plan: List[ledger.PlannedBlock] = []  # the blocks the run seals, in order
    # for each block of plan: the transactions it seals as submitted, and
    # the scans (step, actor address, product id) that follow it
    sealed: List[Tuple[List[_Submitted], List[Tuple[int, str, str]]]] = []
    pending: List[_Submitted] = []
    clock = 0
    step = 0
    txs_sent = 0

    # block 0 as create_store wrote it (genesis_block would commit its state again)
    blocks = [ledger.Block(store.tip, (), ledger.ZERO_SEAL)]

    def traced(event: TraceEvent) -> None:
        trace.append(event)
        lines.append(event.to_bytes() + b"\n")

    def after(position: int, block: ledger.Block, receipts: List[registry.Receipt]) -> None:
        """Keep block position, trace its transactions, then the scans that follow it."""
        blocks.append(block)
        entries, scans = sealed[position]
        for (event_step, actor_address, action, detail, _), receipt in zip(entries, receipts):
            traced(TraceEvent(event_step, actor_address, action, detail, receipt.to_canonical()))
        for event_step, actor_address, product_id in scans:
            product = store.state.products.get(product_id)
            outcome = {
                "current_owner": product and product.current_owner,
                "exists": product is not None,
                "history": list(product.history) if product else [],
                "manufacturer": product and product.manufacturer,
                "status": product and product.status.value,
            }
            traced(TraceEvent(event_step, actor_address, "verify", {"product_id": product_id}, outcome))

    def flush() -> None:
        if pending:
            # the store's tip is block 0, so this is block len(plan) + 1
            plan.append((clock, genesis.sealer_of(len(plan) + 1), [entry[4] for entry in pending]))
            sealed.append((pending.copy(), []))
            pending.clear()

    def submit(actor: Actor, kind: registry.TxKind, detail: dict) -> None:
        nonlocal clock, step, txs_sent
        step += 1
        clock += scenario.clock_step
        txs_sent += 1
        tx = registry.TxEnvelope(
            actor.address,
            nonces[actor.address],
            kind,
            genesis.gas_params.default_gas_price,
            signature="",
        )
        nonces[actor.address] += 1
        pending.append((step, actor.address, kind.TYPE, detail, tx))
        if len(pending) >= scenario.txs_per_block:
            flush()

    def verify_event(actor: Actor, product_id: str) -> None:
        nonlocal clock, step
        flush()  # a sale precedes every scan, so a block does too
        step += 1
        clock += scenario.clock_step
        sealed[-1][1].append((step, actor.address, product_id))

    def budget_left() -> bool:
        return txs_sent < scenario.steps

    # Faucet bootstrap for every transaction-sending actor.
    for role in (Role.MANUFACTURER, Role.DISTRIBUTOR, Role.RETAILER, Role.CONSUMER):
        for actor in actors[role]:
            if not budget_left():
                break
            submit(actor, FaucetClaim(), {})

    deployer = actors[Role.MANUFACTURER][0]
    if budget_left():
        code_size = genesis.gas_params.default_code_size
        submit(deployer, Deploy(code_size=code_size), {"code_size": code_size})

    consumers = actors[Role.CONSUMER]

    def maybe_reclaim(actor: Actor) -> None:
        # Occasional mid-run faucet claims; grant or cooldown depends on
        # how much simulated time has passed for this actor.
        if budget_left() and rng.random() < 0.15:
            submit(actor, FaucetClaim(), {})

    for product_number in range(scenario.products):
        if not budget_left():
            break
        product_id = f"P-{product_number + 1:03d}"
        manufacturer = rng.choice(actors[Role.MANUFACTURER])
        maybe_reclaim(manufacturer)
        if not budget_left():
            break
        submit(
            manufacturer,
            Register(product_id=product_id, name=f"Product {product_number + 1}", metadata=""),
            {"product_id": product_id},
        )
        # Products travel downstream: distributor stage, then retailer
        # stage, with an optional extra hop inside a stage when it has
        # more than one actor.  0 to 3 transfers total.
        owner = manufacturer
        transfers = 0
        for stage in (actors[Role.DISTRIBUTOR], actors[Role.RETAILER]):
            if not stage or transfers >= 3 or not budget_left():
                continue
            target = rng.choice(stage)
            if target.address != owner.address:
                submit(
                    owner,
                    Transfer(product_id=product_id, new_owner=target.address),
                    {"product_id": product_id, "to": target.address},
                )
                owner = target
                transfers += 1
            peers = [a for a in stage if a.address != owner.address]
            if peers and transfers < 3 and budget_left() and rng.random() < 0.35:
                target = rng.choice(peers)
                submit(
                    owner,
                    Transfer(product_id=product_id, new_owner=target.address),
                    {"product_id": product_id, "to": target.address},
                )
                owner = target
                transfers += 1
        if consumers and budget_left():
            buyer = rng.choice(consumers)
            submit(
                owner,
                Sell(product_id=product_id, consumer=buyer.address),
                {"product_id": product_id, "to": buyer.address},
            )
            verify_event(buyer, product_id)
    flush()

    registry.sign_txs(genesis.chain_id, [(keys[tx.sender], tx) for _, _, txs in plan for tx in txs])
    ledger.extend_plan(store, plan, keys, after)
    ledger.checkpoint(store)  # so the first read after the run walks no block

    with trace_path.open("wb") as handle:
        handle.writelines(lines)

    result = SimulationResult(
        scenario=scenario,
        genesis=genesis,
        blocks=blocks,
        final_state=store.state,
        trace=trace,
        chain_path=chain_path,
        trace_path=trace_path,
        genesis_path=genesis_path,
    )
    if scenario.tamper_plan:
        try:
            apply_mutations(chain_path, scenario.tamper_plan)
        except ValueError as exc:  # a target or offset outside the chain
            raise ScenarioInvalidError(str(exc)) from exc
    return result


# ---------------------------------------------------------------------------
# Canonical cost-model chain (used by the calibration script and tests)


def _cost_model_key(label: str) -> KeyPair:
    return KeyPair.from_seed(hashlib.sha256(f"acprov:cost-model:{label}".encode()).digest())


def build_cost_model_chain(
    gas_price: Optional[int] = None,
) -> Tuple[ledger.GenesisConfig, List[ledger.Block], Totals]:
    """Deterministic chain with exactly one Deploy, Register, and Sell.

    The manufacturer is funded at genesis so no faucet claim appears;
    all three transactions pay the shipped default gas price unless a
    candidate ``gas_price`` (wei) is given.  This is the chain the total
    system cost is calibrated against.  Returns the genesis, the blocks
    and the chain's gas totals.
    """
    manufacturer = _cost_model_key("manufacturer")
    consumer = _cost_model_key("consumer")
    authority = _cost_model_key("authority")
    genesis = ledger.GenesisConfig(
        chain_id=5,
        authorities=((authority.address, authority.public_key),),
        roles={
            manufacturer.address: Role.MANUFACTURER,
            consumer.address: Role.CONSUMER,
            authority.address: Role.AUTHORITY,
        },
        initial_balances={manufacturer.address: 10**18},
        account_keys={
            manufacturer.address: manufacturer.public_key,
            consumer.address: consumer.public_key,
        },
    )
    params = genesis.gas_params
    price = params.default_gas_price if gas_price is None else gas_price
    kinds = (
        Deploy(code_size=params.default_code_size),
        Register(product_id="P-001", name="Widget", metadata=""),
        Sell(product_id="P-001", consumer=consumer.address),
    )
    blocks = [ledger.genesis_block(genesis)]
    with tempfile.TemporaryDirectory() as tmp:
        store = ledger.create_store(Path(tmp) / "chain.jsonl", genesis)
        for offset, kind in enumerate(kinds):
            tx = registry.make_tx(manufacturer, genesis.chain_id, offset, kind, price)
            block, (receipt,) = ledger.extend(store, [tx], authority, 3600 * (offset + 1))
            if not receipt.accepted:
                raise RuntimeError(f"cost-model tx rejected: {receipt.error}")
            blocks.append(block)
    return genesis, blocks, store.gas
