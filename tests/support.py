"""Shared test helpers: deterministic keys, genesis builders, registry folds,
the randomized transaction-log generator used by the equivalence suites, and
the launcher for CLI child processes."""

from __future__ import annotations

import contextlib
import hashlib
import os
import random
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

import pytest

import acprov
from acprov import crypto, gas, ledger, registry
from acprov.registry import Deploy, FaucetClaim, Register, Role, Sell, Transfer

ETH = 10**18

# context triple: (block_index, timestamp, sealer address)
Context = Tuple[int, int, str]

# Directory the acprov under test was imported from (src/ in a checkout,
# site-packages for an installed copy).
IMPORT_ROOT = Path(acprov.__file__).resolve().parents[1]


def cli_env() -> Dict[str, str]:
    """Environment for a child process that must import this same acprov.

    IMPORT_ROOT goes first on PYTHONPATH as an absolute path, so the child
    finds the package whatever its working directory and whatever relative
    entries the parent's PYTHONPATH holds.
    """
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        os.pathsep.join((str(IMPORT_ROOT), inherited)) if inherited else str(IMPORT_ROOT)
    )
    return env


def run_cli(*argv: str, cwd=None) -> subprocess.CompletedProcess:
    """Run `python -m acprov.cli ARGV` on the package under test."""
    return subprocess.run(
        [sys.executable, "-m", "acprov.cli", *argv],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=cli_env(),
    )


def count_calls(monkeypatch, module, name: str) -> list:
    """Record the arguments of every call to module.name; returns the record."""
    calls = []
    real = getattr(module, name)

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


def record_forks(monkeypatch) -> list:
    """Record the pid of every child os.fork starts; returns the record."""
    pids = []
    real = os.fork

    def fork():
        pid = real()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


def wait_for_exit(pid: int, timeout: float = 10.0) -> None:
    """Wait until child pid has exited, leaving it for its parent to reap."""
    deadline = time.monotonic() + timeout
    while os.waitid(os.P_PID, pid, os.WEXITED | os.WNOHANG | os.WNOWAIT) is None:
        assert time.monotonic() < deadline, f"child {pid} is still running"
        time.sleep(0.001)


def verify_workers_finished(timeout: float = 10.0) -> None:
    """Inside a verify_ahead block: wait until every item has an answer in
    the shared map, which only the workers write until verify is called."""
    deadline = time.monotonic() + timeout
    while crypto._shared is not None and 0 in crypto._shared[:]:
        assert time.monotonic() < deadline, "the workers left items unanswered"
        time.sleep(0.001)


def copy_exits_first(monkeypatch, pids) -> None:
    """Make ledger.extend_plan start its appends only once the copy it
    forked, the last child in pids, has exited: a copy that runs to its end
    has then written every root."""
    forked = ledger._forked

    @contextlib.contextmanager
    def forked_then_wait(*args):
        with forked(*args):
            wait_for_exit(pids[-1])
            yield

    monkeypatch.setattr(ledger, "_forked", forked_then_wait)


def assert_reaped(pids) -> None:
    """Every child in pids has exited and been reaped."""
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def key_for(tag: str) -> crypto.KeyPair:
    return crypto.KeyPair.from_seed(hashlib.sha256(f"acprov-test:{tag}".encode()).digest())


def five_role_genesis(
    fund: int = ETH,
) -> Tuple[ledger.GenesisConfig, Dict[str, crypto.KeyPair]]:
    """One funded account per role plus two extra authorities."""
    tags = (
        "manufacturer",
        "distributor",
        "retailer",
        "consumer",
        "authority",
        "authority_b",
        "authority_c",
    )
    keys = {tag: key_for(tag) for tag in tags}
    roles = {
        keys["manufacturer"].address: Role.MANUFACTURER,
        keys["distributor"].address: Role.DISTRIBUTOR,
        keys["retailer"].address: Role.RETAILER,
        keys["consumer"].address: Role.CONSUMER,
        keys["authority"].address: Role.AUTHORITY,
        keys["authority_b"].address: Role.AUTHORITY,
        keys["authority_c"].address: Role.AUTHORITY,
    }
    genesis = ledger.GenesisConfig(
        chain_id=5,
        authorities=tuple(
            (keys[t].address, keys[t].public_key)
            for t in ("authority", "authority_b", "authority_c")
        ),
        roles=roles,
        initial_balances={addr: fund for addr in roles},
        account_keys={kp.address: kp.public_key for kp in keys.values()},
    )
    genesis.validate()
    return genesis, keys


def ctx_for(
    genesis: ledger.GenesisConfig,
    index: int = 1,
    timestamp: int = 3600,
    sealer: str = "",
) -> registry.TxContext:
    if not sealer:
        sealer = genesis.sealer_of(index)
    return ledger.make_context(genesis, index, timestamp, sealer)


def default_contexts(genesis: ledger.GenesisConfig, count: int) -> List[Context]:
    """One-transaction-per-block contexts with round-robin sealers."""
    return [(i + 1, 3600 * (i + 1), genesis.sealer_of(i + 1)) for i in range(count)]


def fold(
    genesis: ledger.GenesisConfig,
    txs,
    contexts: List[Context],
) -> Tuple[registry.RegistryState, List[registry.Receipt]]:
    """Fold a transaction log through the registry, one context per tx."""
    state = ledger.genesis_state(genesis)
    receipts = []
    for tx, (index, timestamp, sealer) in zip(txs, contexts):
        state, receipt = registry.apply_tx(
            state, tx, ctx_for(genesis, index, timestamp, sealer)
        )
        receipts.append(receipt)
    return state, receipts


def supply(state: registry.RegistryState) -> int:
    return sum(acct.balance for acct in state.accounts.values())


def first_offense(chain_path, genesis: ledger.GenesisConfig) -> int:
    """Block index of the first invalid block in a persisted chain.

    Mirrors what the validate command reports: a line that no longer
    parses names its own block (line N is block N-1); a parseable but
    invalid chain names the block where replay first fails.
    """
    try:
        ledger.load_chain(chain_path, genesis)
    except ledger.ParseError as err:
        return err.line_number - 1
    except ledger.ValidationFailedError as err:
        return err.report.block_index
    raise AssertionError(f"chain at {chain_path} is valid; no offense to report")


def validate_blocks(blocks, genesis: ledger.GenesisConfig) -> ledger.ValidationReport:
    """What load_chain reports on a file of blocks: ok, or the first block
    and rule they break."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "chain.jsonl"
        path.write_bytes(b"".join(ledger.block_line(block) for block in blocks))
        try:
            ledger.load_chain(path, genesis)
        except ledger.ValidationFailedError as err:
            return err.report
    return ledger.ValidationReport(ok=True)


def chain_tx_contexts(blocks) -> Tuple[list, List[Context]]:
    """Flatten a chain into (txs, contexts) as replay would see them."""
    txs, contexts = [], []
    for block in blocks[1:]:
        for tx in block.txs:
            txs.append(tx)
            contexts.append((block.header.index, block.header.timestamp, block.header.sealer))
    return txs, contexts


@dataclass(frozen=True)
class LogCase:
    genesis: ledger.GenesisConfig
    txs: tuple
    contexts: Tuple[Context, ...]
    initial_supply: int


_INVALID_IDS = ("", "no spaces allowed", "x" * 65, "ünït")
_NAMES = ("Widget", "Gadget", "Ünït 9", "")
_ROLE_POOL = (
    Role.MANUFACTURER,
    Role.MANUFACTURER,
    Role.DISTRIBUTOR,
    Role.RETAILER,
    Role.CONSUMER,
    Role.CONSUMER,
)


def random_log(seed: int) -> LogCase:
    """A randomized tx log within the caps: <=10 accounts, <=200 txs, <=20 products.

    Most logs stay short so a thousand of them fold quickly; one in five
    stretches toward the caps.  Bad signatures, stale nonces, malformed
    ids, oversized metadata, and broke senders are mixed in at low rates
    so every rejection path gets traffic.  The generator tracks nonces
    and balances by actually applying each tx, so honest transactions
    stay honest no matter what the registry rejected earlier.
    """
    rng = random.Random(seed)
    actors = [key_for(f"log{seed}:a{i}") for i in range(rng.randint(3, 9))]
    auth = key_for(f"log{seed}:auth")
    roles = {auth.address: Role.AUTHORITY}
    for i, kp in enumerate(actors):
        roles[kp.address] = (
            Role.MANUFACTURER if i == 0 else _ROLE_POOL[rng.randrange(len(_ROLE_POOL))]
        )
    balances = {
        kp.address: rng.choice([10**15, 10**17, ETH])
        for kp in actors
        if rng.random() < 0.5
    }
    genesis = ledger.GenesisConfig(
        chain_id=5,
        authorities=((auth.address, auth.public_key),),
        roles=roles,
        initial_balances=balances,
        account_keys={kp.address: kp.public_key for kp in actors},
    )
    valid_ids = [f"P{seed % 97}-{i:02d}" for i in range(rng.randint(1, 20))]

    def pick_pid() -> str:
        if rng.random() < 0.07:
            return rng.choice(_INVALID_IDS)
        return rng.choice(valid_ids)

    def pick_kind(sender_balance: int):
        if sender_balance < 10**14 and rng.random() < 0.7:
            return FaucetClaim()
        r = rng.random()
        if r < 0.12:
            return Deploy(code_size=rng.choice([0, 1, 500, 2000]))
        if r < 0.40:
            meta_len = rng.choice([0, 0, 10, 1024, 1030])
            return Register(
                product_id=pick_pid(),
                name=rng.choice(_NAMES),
                metadata="m" * meta_len,
            )
        if r < 0.64:
            return Transfer(product_id=pick_pid(), new_owner=rng.choice(actors).address)
        if r < 0.86:
            return Sell(product_id=pick_pid(), consumer=rng.choice(actors).address)
        return FaucetClaim()

    count = rng.randint(1, 200) if rng.random() < 0.2 else rng.randint(1, 60)
    state = ledger.genesis_state(genesis)
    txs, contexts = [], []
    timestamp = 0
    for i in range(count):
        timestamp += rng.choice([601, 3600, 43200, 86400])
        sender = rng.choice(actors)
        acct = state.accounts[sender.address]
        nonce = acct.nonce if rng.random() >= 0.05 else rng.randint(0, 3)
        price = rng.choice([genesis.gas_params.default_gas_price, 10**8, 10**9, 2 * 10**9])
        tx = registry.make_tx(sender, genesis.chain_id, nonce, pick_kind(acct.balance), price)
        if rng.random() < 0.02:
            sig = tx.signature
            flipped = "0" if sig[-1] != "0" else "1"
            tx = registry.TxEnvelope(
                sender=tx.sender,
                nonce=tx.nonce,
                kind=tx.kind,
                gas_price=tx.gas_price,
                signature=sig[:-1] + flipped,
            )
        ctx = (i + 1, timestamp, auth.address)
        state, _ = registry.apply_tx(state, tx, ctx_for(genesis, *ctx))
        txs.append(tx)
        contexts.append(ctx)
    return LogCase(
        genesis=genesis,
        txs=tuple(txs),
        contexts=tuple(contexts),
        initial_supply=sum(balances.values()),
    )
