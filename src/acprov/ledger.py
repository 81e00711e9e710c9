"""Hash-linked blocks with proof-of-authority sealing and file persistence.

Design notes that matter for interoperability:

* ``tx_root`` is a sequential hash fold over raw 32-byte digests,
  seeded with sha256 of the empty byte string; not a Merkle tree.
* The sealer of block i is ``authorities[i mod n]``, strict round
  robin with no skips.  Timestamps are logical seconds and only ever
  supplied by callers, never read from a wall clock.
* The genesis block is synthesized from the genesis config with an
  all-zero seal; the config file, not block 0, is the trust root.
* The ledger file holds one canonically serialized block per line,
  UTF-8 with LF endings.  Loading is strict: every line must re-encode
  byte-identically, so any single-byte edit of the file surfaces as a
  parse or validation failure.
* Every check of a chain is one walk (``_replay``) from a parent header
  over the blocks after it: header rules, seals, execution and state
  roots.  A full replay (``load_chain``: ``validate``, ``gas-report``)
  walks blocks 1.. from block 0, once block 0 matches the genesis config,
  and returns every block and receipt.  With a forked worker checking
  the signatures, the walk takes those not answered yet as valid and
  settles them after; if one is invalid, it walks again strictly.
* A store (``open_store``: the reads and ``tx``) is the chain's tip: its
  header, its state, the file's length and the sha256 of its bytes.  It
  walks only the blocks after a checkpoint k kept in a sidecar
  ``<chain>.tip``, which vouches for lines 0..k by the sha256 of their
  bytes and holds the state after block k, whose records a read decodes
  only as it reads them.  Its one writer is
  ``checkpoint(store)``: ``init`` at block 0, an open that walks past k,
  and ``tx`` and the simulator at the tip they wrote.  The sidecar is a
  cache: any doubt about it means a full replay.
* ``extend`` is the one path that builds and appends a block.  A writer
  that knows the blocks it will append (the simulator) hands them to
  ``extend_plan``, which appends each through ``extend``'s body: a forked
  copy executes those blocks and writes their state roots ahead, and an
  append takes a root from it only while the store holds the state the
  last planned append wrote, at the planned index.  The bytes are those
  of appends without it.  A writer that wants the blocks collects what
  the appends return.
* A torn last line, an append cut short, is cut off only by a writer
  (``cut_torn_tail``, for ``tx`` and ``repair``); reads stay strict.
"""

from __future__ import annotations

import contextlib
import fcntl
import hashlib
import json
import os
import tempfile
from functools import cache, cached_property, partial
from pathlib import Path
from types import MappingProxyType
from typing import Any, Callable, ClassVar, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from . import registry
from .canonical import (
    HASH_BYTES,
    Record,
    ZERO_HASH,
    _as_address,
    _as_hash,
    _as_int,
    _as_str,
    _canonical,
    _check_fields,
    _decode,
    _dict_of,
    _list_of,
    _one_of,
    _record,
    _require,
    canonical_serialize,
    from_hex,
    hash_of,
    hash_obj,
    to_hex,
)
from .crypto import (
    Check,
    KeyPair,
    _ahead,
    _Slots,
    _worker_count,
    derive_address,
    verify,
    verify_ahead,
)
from .gas import GasParams

EMPTY_TX_ROOT = hash_of(b"")
ZERO_SEAL = "0x" + "00" * 64

# Validation rule identifiers; stable, reported by ValidationReport.
RULE_GENESIS = "genesis"
RULE_INDEX = "index"
RULE_TIMESTAMP = "timestamp"
RULE_LINKAGE = "linkage"
RULE_SEALER = "sealer"
RULE_SEAL = "seal"
RULE_TX_ROOT = "tx_root"
RULE_TX_SIGNATURE = "tx_signature"
RULE_TX_NONCE = "tx_nonce"
RULE_STATE_ROOT = "state_root"


class LedgerError(Exception):
    pass


class StorageError(LedgerError):
    pass


class ParseError(LedgerError):
    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class TornTailError(ParseError):
    """The last line has no newline and does not parse: an interrupted append."""

    def __init__(self, line_number: int, intact_bytes: int, size: int, reason: str):
        super().__init__(
            line_number,
            f"interrupted append: the last line has no newline and is not a "
            f"complete block ({reason}); the first {intact_bytes} bytes hold every "
            f"complete block, so truncate the file to {intact_bytes} bytes to "
            f"recover and resend the lost block's transactions (`acprov repair` "
            f"cuts safely: it takes the writers' lock and checks the length first)",
        )
        self.intact_bytes = intact_bytes
        self.size = size  # the length of the file that was read


class ValidationReport(Record):
    """The verdict of a chain check: ok, or the first block and rule it breaks."""
    ok: bool
    block_index: Optional[int] = None
    rule: Optional[str] = None
    detail: Optional[str] = None


class ValidationFailedError(LedgerError):
    def __init__(self, report: ValidationReport):
        super().__init__(
            f"block {report.block_index}: rule {report.rule}: {report.detail}"
        )
        self.report = report


# ---------------------------------------------------------------------------
# Genesis configuration


def _key_pair(value: Any, name: str) -> Tuple[str, str]:
    _require(
        isinstance(value, list) and len(value) == 2 and all(isinstance(v, str) for v in value),
        f"{name} must be an [address, public_key] string pair",
    )
    return tuple(value)


class GenesisConfig(Record):
    """The trust root of a chain: its authorities, accounts, balances and rules."""
    CHECKS: ClassVar[dict] = {
        "chain_id": partial(_as_int, minimum=1),
        "authorities": _list_of(_key_pair),
        "roles": _dict_of(_one_of(registry.Role)),
        "initial_balances": _dict_of(_as_int),
        "gas_params": _record(GasParams, defaults=True),
        "faucet_amount": _as_int,
        "faucet_cooldown": _as_int,
        "account_keys": _dict_of(_as_str),
    }
    # A default is one object that every config leaving the field out
    # shares, so the maps' defaults are read-only.
    chain_id: int = 5
    authorities: Tuple[Tuple[str, str], ...] = ()
    roles: Mapping[str, registry.Role] = MappingProxyType({})
    initial_balances: Mapping[str, int] = MappingProxyType({})
    gas_params: GasParams = GasParams()
    faucet_amount: int = 5 * 10**17  # 0.5 ETH per claim
    faucet_cooldown: int = 86_400  # one claim per 24 h
    # Verification keys for non-authority accounts; authorities carry
    # theirs in the authority list.  Every role-bearing address needs a
    # key so transaction signatures can be checked during replay.
    account_keys: Mapping[str, str] = MappingProxyType({})

    @property
    def authority_addresses(self) -> Tuple[str, ...]:
        return tuple(addr for addr, _ in self.authorities)

    def sealer_of(self, index: int) -> str:
        """The authority due to seal block ``index``: strict round robin."""
        return self.authorities[index % len(self.authorities)][0]

    def public_key_of(self, address: str) -> Optional[str]:
        for addr, pub in self.authorities:
            if addr == address:
                return pub
        return self.account_keys.get(address)

    def validate(self) -> None:
        """The decoder's member checks, then the rules that span members."""
        _check_fields(self)
        _require(len(self.authorities) >= 1, "at least one authority required")
        addresses = self.authority_addresses
        _require(len(set(addresses)) == len(addresses), "authority addresses must be distinct")
        for addr, pub in self.authorities:
            _require(
                derive_address(pub) == addr,
                f"authority {addr} does not match its public key",
            )
            _require(
                self.roles.get(addr) is registry.Role.AUTHORITY,
                f"authority {addr} must have role authority",
            )
        for addr in self.roles:
            pub = self.public_key_of(addr)
            _require(pub is not None, f"no public key for account {addr}")
            _require(
                derive_address(pub) == addr,
                f"account {addr} does not match its public key",
            )
        for addr in self.initial_balances:
            _require(addr in self.roles, f"balance for unknown account {addr}")
        for addr in self.account_keys:
            _require(addr in self.roles, f"key for unknown account {addr}")

    to_canonical = _canonical

    @classmethod
    def from_canonical(cls, doc: Any) -> "GenesisConfig":
        config = _decode(cls, doc, "genesis")
        config.validate()
        return config

    def save(self, path) -> None:
        text = json.dumps(self.to_canonical(), sort_keys=True, indent=2) + "\n"
        Path(path).write_text(text, encoding="utf-8")

    @classmethod
    def load(cls, path) -> "GenesisConfig":
        try:
            doc = json.loads(Path(path).read_text(encoding="utf-8"))
        except UnicodeDecodeError as exc:
            raise ParseError(1, f"genesis file is not UTF-8: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ParseError(exc.lineno, f"genesis file: {exc.msg}") from exc
        # nested deeper than the decoder goes, or an int longer than int() reads
        except (RecursionError, ValueError) as exc:
            raise ParseError(1, f"genesis file: {exc}") from exc
        try:
            return cls.from_canonical(doc)
        except (ValueError, KeyError, TypeError) as exc:
            raise ParseError(1, f"genesis file: {exc}") from exc


# ---------------------------------------------------------------------------
# Blocks


class BlockHeader(Record):
    """A block header: what the seal signs and the next block links to."""
    CHECKS: ClassVar[dict] = {
        "index": _as_int,
        "timestamp": _as_int,
        "prev_hash": _as_hash,
        "tx_root": _as_hash,
        "sealer": _as_address,
        "state_root": _as_hash,
    }
    index: int
    timestamp: int
    prev_hash: str
    tx_root: str
    sealer: str
    state_root: str

    @cached_property
    def canonical_bytes(self) -> bytes:
        """The header's canonical encoding, computed on first use."""
        return canonical_serialize(self.to_canonical())

    @cached_property
    def hash(self) -> str:
        """The header's hash, computed on first use: linkage and seal share it."""
        return hash_of(self.canonical_bytes)

    to_canonical = _canonical


class Block(Record):
    """A sealed block: its header, its transactions and the sealer's signature."""
    CHECKS: ClassVar[dict] = {
        "header": _record(BlockHeader),
        "txs": _list_of(_record(registry.TxEnvelope)),
        "seal": _as_str,
    }
    header: BlockHeader
    txs: Tuple[registry.TxEnvelope, ...]
    seal: str

    to_canonical = _canonical

    @classmethod
    def from_canonical(cls, doc: Any) -> "Block":
        return _decode(cls, doc, "block")


def header_hash(header: BlockHeader) -> str:
    return header.hash


def tx_root_of(txs: Sequence[registry.TxEnvelope]) -> str:
    """Sequential fold: start at sha256(empty), absorb each tx digest."""
    acc = hashlib.sha256(b"").digest()
    for tx in txs:
        acc = hashlib.sha256(acc + from_hex(registry.tx_hash(tx))).digest()
    return to_hex(acc)


def genesis_state(genesis: GenesisConfig) -> registry.RegistryState:
    accounts = {}
    for addr in sorted(genesis.roles):
        accounts[addr] = registry.Account(
            address=addr,
            role=genesis.roles[addr],
            balance=genesis.initial_balances.get(addr, 0),
            nonce=0,
            last_faucet_claim=None,
            public_key=genesis.public_key_of(addr) or "",
        )
    return registry.RegistryState(
        chain_id=genesis.chain_id, contract=None, accounts=accounts, products={}
    )


def genesis_block(genesis: GenesisConfig) -> Block:
    header = BlockHeader(
        index=0,
        timestamp=0,
        prev_hash=ZERO_HASH,
        tx_root=EMPTY_TX_ROOT,
        sealer=genesis.sealer_of(0),
        state_root=registry.state_commitment(genesis_state(genesis)),
    )
    return Block(header=header, txs=(), seal=ZERO_SEAL)


def make_context(
    genesis: GenesisConfig, index: int, timestamp: int, sealer: str
) -> registry.TxContext:
    """The execution context of block ``index``; the only TxContext builder."""
    return registry.TxContext(
        block_index=index,
        timestamp=timestamp,
        sealer=sealer,
        gas_params=genesis.gas_params,
        faucet_amount=genesis.faucet_amount,
        faucet_cooldown=genesis.faucet_cooldown,
    )


def seal_block(
    pending: Sequence[registry.TxEnvelope],
    parent: BlockHeader,
    state_root: str,
    sealer_key: KeyPair,
    timestamp: int,
) -> Block:
    """Build the block after parent and sign its header with sealer_key.

    Nothing is checked here: the turn, the clock and the seal are rules of
    _check_header, which extend gives the block before writing it.
    """
    header = BlockHeader(
        index=parent.index + 1,
        timestamp=timestamp,
        prev_hash=header_hash(parent),
        tx_root=tx_root_of(pending),
        sealer=sealer_key.address,
        state_root=state_root,
    )
    seal = sealer_key.sign(from_hex(header_hash(header)))
    return Block(header=header, txs=tuple(pending), seal=seal)


# ---------------------------------------------------------------------------
# Validation and replay


def _invalid(index: int, rule: str, detail: str) -> ValidationFailedError:
    return ValidationFailedError(ValidationReport(False, index, rule, detail))


def _execute(
    state: registry.RegistryState,
    txs: Sequence[registry.TxEnvelope],
    ctx: registry.TxContext,
) -> Tuple[registry.RegistryState, List[registry.Receipt]]:
    """Apply txs in order; an unauthenticated one makes the block invalid."""
    receipts: List[registry.Receipt] = []
    for position, tx in enumerate(txs):
        state, receipt = registry.apply_tx(state, tx, ctx)
        if receipt.error == registry.BAD_SIGNATURE:
            raise _invalid(
                ctx.block_index, RULE_TX_SIGNATURE, f"tx {position} signature does not verify"
            )
        if receipt.error == registry.BAD_NONCE:
            raise _invalid(ctx.block_index, RULE_TX_NONCE, f"tx {position} nonce mismatch")
        receipts.append(receipt)
    return state, receipts


def _signatures(blocks: Sequence[Block], genesis: GenesisConfig) -> List[Check]:
    """The seals of blocks and the signatures of their transactions, for
    verify_ahead to check while the rules run.

    A signature is listed when its signer has a genesis key, since
    apply_tx and the seal rule verify only those.  Nothing is decided
    here: the rules run in their usual order and read the answers
    through verify.
    """
    key_of, chain_id = genesis.public_key_of, genesis.chain_id
    items = []
    for block in blocks:
        items.append((key_of(block.header.sealer), from_hex(block.header.hash), block.seal))
        items += (
            (key_of(tx.sender), tx.signing_payload(chain_id), tx.signature) for tx in block.txs
        )
    return [item for item in items if item[0] is not None]


def _check_header(block: Block, prev: BlockHeader, genesis: GenesisConfig) -> None:
    """The rules a block meets without executing it: index, timestamp,
    linkage, turn, seal and tx_root.  Raises ValidationFailedError."""
    index = prev.index + 1
    h = block.header
    if h.index != index:
        raise _invalid(index, RULE_INDEX, f"expected index {index}, found {h.index}")
    if h.timestamp < prev.timestamp:
        raise _invalid(index, RULE_TIMESTAMP, f"timestamp {h.timestamp} < parent {prev.timestamp}")
    expected_prev = header_hash(prev)
    if h.prev_hash != expected_prev:
        raise _invalid(index, RULE_LINKAGE, f"prev_hash {h.prev_hash} != {expected_prev}")
    due = genesis.sealer_of(index)
    if h.sealer != due:
        raise _invalid(index, RULE_SEALER, f"sealer {h.sealer} out of turn, expected {due}")
    if not verify(genesis.public_key_of(h.sealer), from_hex(header_hash(h)), block.seal):
        raise _invalid(index, RULE_SEAL, "seal signature does not verify")
    recomputed_root = tx_root_of(block.txs)
    if h.tx_root != recomputed_root:
        raise _invalid(index, RULE_TX_ROOT, f"tx_root {h.tx_root} != {recomputed_root}")


def _walk(
    parent: BlockHeader,
    blocks: Sequence[Block],
    genesis: GenesisConfig,
    state: registry.RegistryState,
) -> Tuple[registry.RegistryState, List[List[registry.Receipt]]]:
    """The rules of a replay, block by block; raises ValidationFailedError
    on the first offense.

    Each of blocks must meet the header rules against the block before
    it, parent first, is executed from state (the state after parent) on,
    and must commit to its state_root.  Returns the state after the last
    block and one receipt list per block.
    """
    receipts_per_block: List[List[registry.Receipt]] = []
    prev = parent
    for block in blocks:
        _check_header(block, prev, genesis)
        h = prev = block.header
        state, receipts = _execute(
            state, block.txs, make_context(genesis, h.index, h.timestamp, h.sealer)
        )
        commitment = registry.state_commitment(state)
        if h.state_root != commitment:
            raise _invalid(h.index, RULE_STATE_ROOT, f"state_root {h.state_root} != {commitment}")
        receipts_per_block.append(receipts)
    return state, receipts_per_block


def _replay(
    parent: BlockHeader,
    blocks: Sequence[Block],
    genesis: GenesisConfig,
    state: registry.RegistryState,
) -> Tuple[registry.RegistryState, List[List[registry.Receipt]]]:
    """The one walk over a chain (``_walk``): its result, or the
    ValidationFailedError of its first offense.

    The walk runs while forked workers check its listed signatures from
    the back, and takes each one they have not answered yet as valid;
    then the signatures are settled: the caller checks from the front
    what the workers have not.  If every one is valid, the assumed walk
    is the strict walk and its result stands.  If one is invalid, or the
    walk raised after assuming, the blocks are walked again, strictly,
    with every answer found so far memoized, so the report is the strict
    walk's first offense: an invalid chain may be walked twice, at most
    once in full.  With no worker the walk is strict from the start and
    runs once.
    """
    walk = partial(_walk, parent, blocks, genesis, state)
    with verify_ahead(_signatures(blocks, genesis)) as batch:
        try:
            walked = walk()
        except Exception:
            # A signature taken as valid may be what broke the walk, in any
            # way; the strict walk below tells, and raises what is real.
            if not batch.assumed:
                raise
        else:
            if batch.settle():
                return walked
    return walk()


def _genesis_parent(blocks: Sequence[Block], genesis: GenesisConfig) -> BlockHeader:
    """Block 0's header, where a full replay starts, once block 0 matches
    the genesis config."""
    if block_line(blocks[0]) != block_line(genesis_block(genesis)):
        raise _invalid(0, RULE_GENESIS, "block 0 does not match the genesis config")
    return blocks[0].header


# ---------------------------------------------------------------------------
# Persistence


def block_line(block: Block) -> bytes:
    """The block's line in the ledger file, joined from cached encodings."""
    return b'{"header":%s,"seal":%s,"txs":[%s]}\n' % (
        block.header.canonical_bytes,
        canonical_serialize(block.seal),
        b",".join(tx.canonical_bytes for tx in block.txs),
    )


class LedgerStore:
    """A chain file at its tip, as this process opened or wrote it: what a
    read answers from and an append extends."""

    def __init__(
        self,
        path: Path,
        genesis: GenesisConfig,
        tip: BlockHeader,
        state: registry.RegistryState,
        size: int,
        digest: Any,
    ):
        self.path, self.genesis, self.tip, self.state = path, genesis, tip, state
        # The file's length when this store last read or wrote it; an append
        # that finds another length refuses, since another writer got there first.
        self.size = size
        self.digest = digest  # the running sha256 (hashlib) of the file's first size bytes


def create_store(path, genesis: GenesisConfig) -> LedgerStore:
    """Start a new chain file containing only the genesis block; a write
    cut short leaves no file."""
    genesis.validate()
    path = Path(path)
    if path.exists():
        raise StorageError(f"chain file already exists: {path}")
    block = genesis_block(genesis)
    line = block_line(block)
    try:
        fd = os.open(str(path), os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
    except OSError as exc:
        raise StorageError(f"cannot create chain file {path}: {exc}") from exc
    try:
        try:
            written = os.write(fd, line)
        finally:
            os.close(fd)
        if written != len(line):
            raise OSError(f"wrote {written} of {len(line)} bytes")
    except OSError as exc:
        path.unlink()
        raise StorageError(f"cannot write chain file {path}: {exc}") from exc
    return LedgerStore(path, genesis, block.header, genesis_state(genesis), len(line), hashlib.sha256(line))


def _write(store: LedgerStore, block: Block, state: registry.RegistryState) -> None:
    """Append a checked block to the file in one write, then to the store.

    The write happens under an exclusive lock and only while the file is
    as long as the store last saw it, so two writers that loaded the same
    tip cannot both append a block at the same index.  A last block that
    lacks its newline (loading accepts one) gets it in the same write.  A
    write cut short is cut off again under the same lock, so it leaves
    neither a torn line nor a changed store.
    """
    line = block_line(block)
    try:
        fd = os.open(str(store.path), os.O_RDWR | os.O_APPEND)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            size = os.fstat(fd).st_size
            if size == store.size:
                if os.pread(fd, 1, size - 1) != b"\n":
                    line = b"\n" + line
                written = os.write(fd, line)
                if written != len(line):
                    os.ftruncate(fd, size)
                    raise OSError(f"wrote {written} of {len(line)} bytes")
        finally:
            os.close(fd)
    except OSError as exc:
        raise StorageError(f"cannot append to {store.path}: {exc}") from exc
    if size != store.size:
        raise StorageError(
            f"{store.path} is {size} bytes, not the {store.size} this store loaded: "
            "another writer appended to it; reload the chain and retry"
        )
    store.size += len(line)
    store.digest.update(line)
    store.tip, store.state = block.header, state


def _append(
    store: LedgerStore,
    txs: Sequence[registry.TxEnvelope],
    sealer_key: KeyPair,
    timestamp: int,
    root_of: Callable[[registry.RegistryState], str],
) -> Tuple[Block, List[registry.Receipt]]:
    """extend's body, where root_of(state) is the new state's root."""
    for tx in txs:
        tx.check_fields()
    parent = store.tip
    ctx = make_context(store.genesis, parent.index + 1, timestamp, sealer_key.address)
    state, receipts = _execute(store.state, txs, ctx)
    block = seal_block(txs, parent, root_of(state), sealer_key, timestamp)
    _check_header(block, parent, store.genesis)
    _write(store, block, state)
    return block, receipts


def extend(
    store: LedgerStore,
    txs: Sequence[registry.TxEnvelope],
    sealer_key: KeyPair,
    timestamp: int,
) -> Tuple[Block, List[registry.Receipt]]:
    """Execute txs once on the tip state, seal the next block, give it the
    replay's header rules, and append it.

    This is the one way the package writes a block.  It raises
    ValueError (a member the decoder rejects) or ValidationFailedError,
    with the report load_chain would give the block (rules tx_signature,
    tx_nonce, timestamp, sealer, seal), instead of writing a block that
    load_chain would reject.  Returns the block and its receipts.
    """
    return _append(store, txs, sealer_key, timestamp, registry.state_commitment)


# ---------------------------------------------------------------------------
# State roots committed ahead
#
# A writer that knows the blocks it will append hands them to extend_plan.
# A forked copy of the process executes them from the tip state, as the
# appends will, and puts each block's state root in a crypto slot; the
# caller hashes the state itself only for a block the copy has not reached.

# (timestamp, sealer address, txs): a block a writer will append.
PlannedBlock = Tuple[int, str, Sequence[registry.TxEnvelope]]


def _roots_in_order(
    genesis: GenesisConfig,
    base: int,
    state: registry.RegistryState,
    blocks: Sequence[PlannedBlock],
    slots: _Slots,
    positions: range,
) -> None:
    """The roots copy's job: execute blocks from state, the state after
    block base, and put each block's root in its slot.  Each block
    executes from the state before it, so the one copy walks them all
    from the front, executing even a block whose slot the caller has
    taken; positions goes unused."""
    for position, (timestamp, sealer, txs) in enumerate(blocks):
        ctx = make_context(genesis, base + 1 + position, timestamp, sealer)
        state, _ = _execute(state, txs, ctx)
        slots.put(position, lambda: from_hex(registry.state_commitment(state)))


def _slot_root(slots: _Slots, position: int, state: registry.RegistryState) -> str:
    """The copy's root in slot position if it is there; otherwise the
    slot is taken and state's root computed here."""
    root = slots.take(position)
    return registry.state_commitment(state) if root is None else to_hex(root)


def extend_plan(
    store: LedgerStore,
    blocks: Sequence[PlannedBlock],
    keys: Mapping[str, KeyPair],
    after: Callable[[int, Block, List[registry.Receipt]], None],
) -> None:
    """Append blocks to store's tip in order, each through extend's body
    and sealed with keys[its sealer address], and call after(position,
    block, receipts) once each block is written.

    With a second usable CPU and enough blocks (crypto's worker rule), one
    forked copy executes blocks from the tip state and puts each root in
    a slot, which an append takes once it has executed its block.  after
    may append a block or replace the state, so roots are taken only while
    the tip is block base + position and store.state is what the last
    planned append wrote; once either fails, every later root is computed
    here.  As in sign_batch, the same code on the same bytes gives the same
    root, so a copy that is slow, dies or cannot be forked costs time but
    changes no byte.  The copy holds no key and writes nothing but roots.
    """
    base, state = store.tip.index, store.state
    work = partial(_roots_in_order, store.genesis, base, state, blocks)
    with _ahead(min(1, _worker_count(len(blocks))), len(blocks), HASH_BYTES, work) as slots:
        planned = True  # latched false once it fails
        for position, (timestamp, sealer, txs) in enumerate(blocks):
            planned &= store.state is state and store.tip.index == base + position
            root_of = partial(_slot_root, slots, position) if planned else registry.state_commitment
            block, receipts = _append(store, txs, keys[sealer], timestamp, root_of)
            state = store.state
            after(position, block, receipts)


def _parse_line(line: bytes) -> Block:
    """One block line; ValueError says why it is not a canonical block."""
    try:
        doc = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"not valid canonical JSON: {exc}") from exc
    try:
        block = Block.from_canonical(doc)
        # a string escaping a lone surrogate parses but cannot re-encode
        encoded = block_line(block)
    except (KeyError, TypeError) as exc:
        raise ValueError(str(exc)) from exc
    if encoded[:-1] != line:
        raise ValueError("line is not the canonical block encoding")
    return block


def _lines(raw: bytes) -> List[bytes]:
    """The lines of raw without their newlines; the last may lack one."""
    lines = raw.split(b"\n")
    if lines[-1] == b"":
        lines.pop()
    return lines


def parse_chain_bytes(raw: bytes) -> List[Block]:
    """Strict parse of a ledger file: every line must re-encode identically.

    A last line after genesis that lacks its newline and does not parse
    raises TornTailError, the mark of an append cut short; nothing is
    truncated.
    """
    if raw == b"":
        raise ParseError(1, "empty file: genesis block required")
    lines = _lines(raw)
    blocks: List[Block] = []
    for line_number, line in enumerate(lines, start=1):
        try:
            blocks.append(_parse_line(line))
        except ValueError as exc:
            if line_number == len(lines) > 1 and not raw.endswith(b"\n"):
                raise TornTailError(
                    line_number, len(raw) - len(line), len(raw), str(exc)
                ) from exc
            raise ParseError(line_number, str(exc)) from exc
    return blocks


def read_chain(path) -> bytes:
    """The chain file's bytes, read under a shared lock: an append holds
    the exclusive lock for its write, so no read sees it half done.
    OSError (FileNotFoundError included) propagates to the caller."""
    with open(path, "rb") as handle:
        fcntl.flock(handle, fcntl.LOCK_SH)
        return handle.read()


def cut_torn_tail(path, torn: TornTailError) -> bool:
    """Truncate the interrupted append that torn reports, for a writer.

    The cut happens under the exclusive lock an append takes, and only
    while the file is still the length whose read raised torn, so a file
    that changed since is left alone.  Returns whether it was cut.
    Readers never call this: they stay strict.
    """
    try:
        fd = os.open(str(path), os.O_RDWR)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            if os.fstat(fd).st_size != torn.size:
                return False
            os.ftruncate(fd, torn.intact_bytes)
            return True
        finally:
            os.close(fd)
    except OSError as exc:
        raise StorageError(f"cannot truncate {path}: {exc}") from exc


class Chain(NamedTuple):
    """A chain file replayed in full."""
    blocks: List[Block]
    state: registry.RegistryState  # after the last block
    receipts: List[List[registry.Receipt]]  # one list per block, block 0's empty


def load_chain(path, genesis: GenesisConfig) -> Chain:
    """Read, strictly parse and fully replay a chain file, for the commands
    that need every block (validate, gas-report).  It neither reads nor
    writes the sidecar."""
    return _full_replay(read_chain(path), genesis)


def _full_replay(raw: bytes, genesis: GenesisConfig) -> Chain:
    """load_chain's answer for a chain file of the bytes raw."""
    blocks = parse_chain_bytes(raw)
    parent = _genesis_parent(blocks, genesis)
    state, receipts = _replay(parent, blocks[1:], genesis, genesis_state(genesis))
    return Chain(blocks, state, [[]] + receipts)


# ---------------------------------------------------------------------------
# Stores opened from a sealed tip checkpoint
#
# The sidecar <chain>.tip holds two lines:
#   1. canonical JSON {"bytes": L, "genesis": <hash of the canonical
#      genesis config>, "hash": <hash of header k>, "index": k,
#      "prefix": <sha256 of the chain file's first L bytes>}, where the
#      first L bytes are lines 0..k, each with its newline;
#   2. the canonical state document after block k, the bytes whose hash
#      is header k's state_root; a read checks that hash before it
#      decodes them.
# An open (a read or tx) whose file starts with those L bytes trusts blocks
# 0..k byte for byte, seals included, since init, a replay or the simulator
# on this machine wrote or accepted exactly them, and walks only the lines
# after L.  The genesis digest is needed because block 0 commits to roles,
# balances and keys but not to gas_params or the faucet settings, which
# change what every later block executes to.


def _tip_path(path: Path) -> Path:
    return path.with_name(path.name + ".tip")


def _genesis_digest(genesis: GenesisConfig) -> str:
    return hash_obj(genesis.to_canonical())


def _from_checkpoint(
    raw: bytes, genesis: GenesisConfig, sidecar: bytes
) -> Tuple[BlockHeader, int, registry.RegistryState, Any]:
    """(header k, L, state after block k, sha256 of the first L bytes) from
    a sidecar that vouches for the first L bytes of raw; only line k, the
    last of them, is parsed.

    The sidecar must be for this genesis, its digest must match raw's first
    L bytes, which end line k, that line must be header k under the
    sidecar's hash, and the state line's sha256 must be its state_root.
    Raises ValueError otherwise.  The root is the hash of exactly those
    bytes, so the state is not encoded again; a state line with other
    spacing is refused.

    Only then is the state line parsed.  Its account and product records
    are decoded strictly as they are read (registry.state_from_canonical),
    so a scan decodes the one product it prints.  The bytes are those of a
    committed state, so a record that fails to decode (a state written
    under other rules) is read from the full replay of the first L bytes:
    the state load_chain finds at block k, or the error it raises.
    """
    head, body, rest = sidecar.split(b"\n", 2)
    _require(rest == b"", "sidecar has more than two lines")
    doc = json.loads(head)
    _require(
        isinstance(doc, dict) and set(doc) == {"bytes", "genesis", "hash", "index", "prefix"},
        "sidecar head must have fields bytes, genesis, hash, index, prefix",
    )
    _require(doc["genesis"] == _genesis_digest(genesis), "sidecar is for another genesis")
    k, size = _as_int(doc["index"], "index"), _as_int(doc["bytes"], "bytes")
    _require(0 < size <= len(raw) and raw[size - 1] == 0x0A, "sidecar bytes do not end a line")
    digest = hashlib.sha256(memoryview(raw)[:size])
    _require(to_hex(digest.digest()) == doc["prefix"], "the chain's first bytes changed")
    header = _parse_line(raw[raw.rfind(b"\n", 0, size - 1) + 1 : size - 1]).header
    _require(header.index == k and header.hash == doc["hash"], f"sidecar names another block {k}")
    _require(
        hash_of(body) == header.state_root,
        f"sidecar state does not commit to block {k}'s state_root",
    )
    replayed = cache(lambda: _full_replay(raw[:size], genesis).state)
    return header, size, registry.state_from_canonical(json.loads(body), replayed), digest


# The temporary files of sidecar writes are named <chain>.tip.XXXXXXXX:
# mkstemp's prefix, then this many random characters.
_TEMP_SUFFIX_CHARS = 8


def checkpoint(store: LedgerStore) -> None:
    """Atomically replace the sidecar of store's file with a checkpoint at
    its tip, so that the next read walks no block.  This is the sidecar's
    one writer: ``init`` at block 0, an open that walked past the
    sidecar's k, and ``tx`` and the simulator at the tip they wrote.

    The sidecar vouches for the file's first store.size bytes by the
    digest the store kept of them as this process wrote or read them.  If
    the file changed since, the digest no longer matches its bytes and a
    read replays in full.  A store whose last line lacks its newline, or
    that holds no whole line, gets no sidecar, since a sidecar must end at
    a newline.

    The sidecar is only a cache, so an OSError (a chain file gone or
    unreadable, a read-only directory, a full disk) leaves things as they
    were and is not reported.  Any other exception (a KeyboardInterrupt)
    propagates, and in either case the temporary file is removed.  Once
    the sidecar is in place, any other temporary file is removed too: one
    a killed process left behind, or one a concurrent write would have put
    in place, whose os.replace then fails as an OSError.
    """
    target = _tip_path(store.path)
    try:
        with open(store.path, "rb") as handle:
            handle.seek(store.size - 1)
            if handle.read(1) != b"\n":
                return
        head = canonical_serialize({
            "bytes": store.size,
            "genesis": _genesis_digest(store.genesis),
            "hash": store.tip.hash,
            "index": store.tip.index,
            "prefix": to_hex(store.digest.digest()),
        })
        data = head + b"\n" + registry.state_bytes(store.state) + b"\n"
        fd, temp = tempfile.mkstemp(dir=target.parent, prefix=target.name + ".")
    except OSError:
        return
    try:
        with os.fdopen(fd, "wb") as out:
            os.fchmod(out.fileno(), 0o644)
            out.write(data)
            out.flush()
            os.fsync(out.fileno())
        os.replace(temp, target)
        stem = target.name + "."
        for name in os.listdir(target.parent):
            if name.startswith(stem) and len(name) == len(stem) + _TEMP_SUFFIX_CHARS:
                with contextlib.suppress(OSError):
                    os.unlink(target.parent / name)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.unlink(temp)
        if not isinstance(exc, OSError):
            raise


def open_store(path, genesis: GenesisConfig) -> LedgerStore:
    """The store of a chain file at its tip, for a read or an append.

    The file is read once.  With a sidecar checkpoint at block k whose
    digest matches the file's first bytes, only line k and the lines after
    it are parsed, and only the blocks after k are walked.  Any failure on
    that path, whether from the sidecar or the chain, falls back to a full
    parse and replay, so the store, or the error raised, is always that of
    load_chain.  ``validate`` never reads the sidecar.

    A walk past k (a fallback's walk starts before block 0) checkpoints
    the store at the last block whose line ends in a newline.  A sidecar
    must end at a newline, so a last line that lacks one stays in the
    tail, and the next append, which writes the newline first, leaves the
    sidecar valid.
    """
    path = Path(path)
    raw = read_chain(path)
    whole = raw.rfind(b"\n") + 1  # the bytes of the lines that end in a newline

    def walk(parent, blocks, state, start, digest, k) -> LedgerStore:
        """The store after blocks, the lines of raw after its first start
        bytes, walked from parent and the state after it; digest is the
        sha256 of those start bytes."""
        done = blocks if whole == len(raw) else blocks[:-1]
        state, _ = _replay(parent, done, genesis, state)
        digest.update(memoryview(raw)[start:whole])
        store = LedgerStore(path, genesis, done[-1].header if done else parent, state, whole, digest)
        if store.tip.index > k:
            checkpoint(store)
        if len(done) < len(blocks):
            store.state, _ = _replay(store.tip, blocks[-1:], genesis, store.state)
            store.tip = blocks[-1].header
        digest.update(memoryview(raw)[whole:])
        store.size = len(raw)
        return store

    try:
        parent, start, state, digest = _from_checkpoint(raw, genesis, _tip_path(path).read_bytes())
        tail = [_parse_line(line) for line in _lines(raw[start:])]
        return walk(parent, tail, state, start, digest, parent.index)
    except (OSError, LedgerError, ValueError, KeyError, TypeError, RecursionError):
        pass
    blocks = parse_chain_bytes(raw)
    parent = _genesis_parent(blocks, genesis)
    return walk(parent, blocks[1:], genesis_state(genesis), 0, hashlib.sha256(), -1)
