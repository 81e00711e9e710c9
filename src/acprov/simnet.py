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
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from . import ledger, registry
from .canonical import canonical_serialize
from .crypto import KeyPair
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


@dataclass(frozen=True)
class Mutation:
    target: int  # block index == 0-based line number in the chain file
    byte_offset: int  # offset within that block's line
    new_byte: int

    def to_canonical(self) -> dict:
        return {"byte_offset": self.byte_offset, "new_byte": self.new_byte, "target": self.target}

    @classmethod
    def from_canonical(cls, doc: Mapping[str, Any]) -> "Mutation":
        if not isinstance(doc, Mapping) or set(doc) != {"target", "byte_offset", "new_byte"}:
            raise ScenarioInvalidError("mutation has fields target, byte_offset, new_byte")
        target, offset, new_byte = doc["target"], doc["byte_offset"], doc["new_byte"]
        for name, value in (("target", target), ("byte_offset", offset), ("new_byte", new_byte)):
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                raise ScenarioInvalidError(f"mutation {name} must be a non-negative integer")
        if new_byte > 255:
            raise ScenarioInvalidError("mutation new_byte must fit in one byte")
        return cls(target=target, byte_offset=offset, new_byte=new_byte)


@dataclass(frozen=True)
class Scenario:
    seed: int
    actors: Mapping[str, int]  # role value -> count
    products: int
    steps: int = 10_000
    clock_step: int = 3600
    txs_per_block: int = 4
    chain_id: int = 5
    tamper_plan: Tuple[Mutation, ...] = ()

    def validate(self) -> None:
        def fail(message: str):
            raise ScenarioInvalidError(message)

        for name in ("seed", "products", "steps", "clock_step", "txs_per_block", "chain_id"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                fail(f"{name} must be an integer")
        known = {role.value for role in ROLE_ORDER}
        unknown = set(self.actors) - known
        if unknown:
            fail(f"unknown actor roles: {sorted(unknown)}")
        for role, count in self.actors.items():
            if not isinstance(count, int) or isinstance(count, bool) or count < 0:
                fail(f"actor count for {role} must be a non-negative integer")
        if self.actors.get(Role.MANUFACTURER.value, 0) < 1:
            fail("at least one manufacturer required")
        if self.actors.get(Role.AUTHORITY.value, 0) < 1:
            fail("at least one authority required")
        if self.products < 0:
            fail("products must be >= 0")
        if self.steps < 0:
            fail("steps must be >= 0")
        if self.clock_step < 0:
            fail("clock_step must be >= 0")
        if self.txs_per_block < 1:
            fail("txs_per_block must be >= 1")
        if self.chain_id < 1:
            fail("chain_id must be >= 1")

    def count(self, role: Role) -> int:
        return self.actors.get(role.value, 0)

    def to_canonical(self) -> dict:
        return {
            "actors": dict(self.actors),
            "chain_id": self.chain_id,
            "clock_step": self.clock_step,
            "products": self.products,
            "seed": self.seed,
            "steps": self.steps,
            "tamper_plan": [m.to_canonical() for m in self.tamper_plan] or None,
            "txs_per_block": self.txs_per_block,
        }

    @classmethod
    def from_canonical(cls, doc: Mapping[str, Any]) -> "Scenario":
        if not isinstance(doc, Mapping):
            raise ScenarioInvalidError("scenario must be an object")
        required = {"seed", "actors", "products"}
        optional = {"steps", "clock_step", "txs_per_block", "chain_id", "tamper_plan"}
        missing = required - set(doc)
        if missing:
            raise ScenarioInvalidError(f"scenario missing fields: {sorted(missing)}")
        unknown = set(doc) - required - optional
        if unknown:
            raise ScenarioInvalidError(f"scenario has unknown fields: {sorted(unknown)}")
        if not isinstance(doc["actors"], Mapping):
            raise ScenarioInvalidError("actors must be an object")
        plan = doc.get("tamper_plan") or []
        if not isinstance(plan, list):
            raise ScenarioInvalidError("tamper_plan must be a list")
        scenario = cls(
            seed=doc["seed"],
            actors=dict(doc["actors"]),
            products=doc["products"],
            tamper_plan=tuple(Mutation.from_canonical(m) for m in plan),
            **{name: doc[name] for name in optional - {"tamper_plan"} if name in doc},
        )
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


@dataclass(frozen=True)
class TraceEvent:
    step: int
    actor: str
    action: str  # the wire type of the submitted kind, or verify
    detail: Mapping[str, Any]
    outcome: Mapping[str, Any]

    def to_canonical(self) -> dict:
        return {
            "action": self.action,
            "actor": self.actor,
            "detail": dict(self.detail),
            "outcome": dict(self.outcome),
            "step": self.step,
        }


@dataclass(frozen=True)
class Actor:
    key: KeyPair
    role: Role

    @property
    def address(self) -> str:
        return self.key.address


@dataclass
class SimulationResult:
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
    key_by_address = {
        actor.address: actor.key for group in actors.values() for actor in group
    }
    nonces = {address: 0 for address in key_by_address}
    trace: List[TraceEvent] = []
    # Scripting first is sound because the rng draws, nonces, block
    # boundaries, clocks and trace order depend on the scenario alone,
    # never on a receipt or the state.  Each entry of script seals one
    # block or answers one scan.
    script: List[Callable[[], None]] = []
    unsigned: List[Tuple[KeyPair, registry.TxEnvelope]] = []
    pending: List[_Submitted] = []
    clock = 0
    step = 0
    txs_sent = 0

    def seal(timestamp: int, entries: List[_Submitted]) -> None:
        sealer_key = key_by_address[genesis.sealer_of(store.tip.header.index + 1)]
        _, receipts = ledger.extend(store, [entry[4] for entry in entries], sealer_key, timestamp)
        for (event_step, actor_address, action, detail, _), receipt in zip(entries, receipts):
            trace.append(
                TraceEvent(event_step, actor_address, action, detail, receipt.to_canonical())
            )

    def scan(event_step: int, actor_address: str, product_id: str) -> None:
        result = registry.verify_product(store.state, product_id)
        outcome = {
            "current_owner": result.current_owner,
            "exists": result.exists,
            "history": list(result.history),
            "manufacturer": result.manufacturer,
            "status": result.status.value if result.status else None,
        }
        trace.append(
            TraceEvent(event_step, actor_address, "verify", {"product_id": product_id}, outcome)
        )

    def flush() -> None:
        if pending:
            script.append(functools.partial(seal, clock, pending.copy()))
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
        unsigned.append((actor.key, tx))
        if len(pending) >= scenario.txs_per_block:
            flush()

    def verify_event(actor: Actor, product_id: str) -> None:
        nonlocal clock, step
        flush()
        step += 1
        clock += scenario.clock_step
        script.append(functools.partial(scan, step, actor.address, product_id))

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

    registry.sign_txs(genesis.chain_id, unsigned)
    for action in script:
        action()

    with trace_path.open("wb") as handle:
        for event in trace:
            handle.write(canonical_serialize(event.to_canonical()) + b"\n")

    result = SimulationResult(
        scenario=scenario,
        genesis=genesis,
        blocks=list(store.blocks),
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
) -> Tuple[ledger.GenesisConfig, List[ledger.Block], List[List[registry.Receipt]]]:
    """Deterministic chain with exactly one Deploy, Register, and Sell.

    The manufacturer is funded at genesis so no faucet claim appears;
    all three transactions pay the shipped default gas price unless a
    candidate ``gas_price`` (wei) is given.  This is the chain the total
    system cost is calibrated against.  Returns the genesis, the blocks
    and the receipts per block.
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
    with tempfile.TemporaryDirectory() as tmp:
        store = ledger.create_store(Path(tmp) / "chain.jsonl", genesis)
        for offset, kind in enumerate(kinds):
            tx = registry.make_tx(manufacturer, genesis.chain_id, offset, kind, price)
            _, (receipt,) = ledger.extend(store, [tx], authority, 3600 * (offset + 1))
            if not receipt.accepted:
                raise RuntimeError(f"cost-model tx rejected: {receipt.error}")
    return genesis, store.blocks, store.receipts
