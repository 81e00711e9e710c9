"""Fuzz of the input files: ``cli.main`` over mutated genesis, scenario, key
and chain files must end with a code of the exit table (0, 1, 2, 3) and let
no exception escape.  So must ``tx`` with drawn arguments, and the chain it
leaves must still validate.

Each example copies a small workspace built once through the CLI, mutates
one of its files and runs one command that reads that file.  A mutation is
either a JSON-shaped edit (a value of the wrong type or out of range, a
member removed, an unknown member added), after which the document is
written back as its reader expects it, or raw bytes overwritten.  Examples
are derandomized so that every run of the suite tries the same inputs.
"""

import contextlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from acprov import cli, ledger, qr
from acprov.canonical import canonical_serialize
from acprov.registry import Role

import support

EXIT_CODES = (0, 1, 2, 3)

SCENARIO = {
    "seed": 7,
    "actors": {"manufacturer": 1, "distributor": 1, "retailer": 1, "consumer": 1, "authority": 1},
    "products": 2,
    "steps": 12,
    "txs_per_block": 4,
    "tamper_plan": [{"target": 1, "byte_offset": 5, "new_byte": 65}],
}

# Ints stay small so that a mutated scenario still simulates in milliseconds;
# negative ones and ones past a chain's length or a byte's range are in reach.
VALUES = st.one_of(
    st.integers(-2, 300),
    st.none(),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=6),
    st.sampled_from(["0x" + "ab" * 20, "0x" + "00" * 32, "0x", "manufacturer", "deploy"]),
    st.lists(st.integers(-1, 3), max_size=2),
    st.dictionaries(st.text("abxyz", max_size=3), st.integers(-1, 3), max_size=2),
)

# Argument text: any code point, lone surrogates (what an argument that is
# not UTF-8 decodes to) drawn often.
TEXT = st.text(st.one_of(st.characters(), st.characters(categories=["Cs"])), max_size=8)

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


def _run(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main([str(arg) for arg in argv])


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Keys, genesis, scenario and a deploy/register/sell chain made with `acprov`."""
    ws = tmp_path_factory.mktemp("fuzz")
    roles = {"authority": Role.AUTHORITY, "maker": Role.MANUFACTURER, "buyer": Role.CONSUMER}
    keys = {tag: support.key_for(f"fuzz:{tag}") for tag in roles}
    for tag, key in keys.items():
        cli._write_key(ws / f"{tag}.json", key, roles[tag])
    maker = ["--key", ws / "maker.json"]
    for argv in (
        ["init", "--authority", ws / "authority.json",
         "--account", f"{ws / 'maker.json'}:manufacturer", "--account", f"{ws / 'buyer.json'}:consumer",
         "--fund", f"{keys['maker'].address}={10**18}"],
        ["tx", "deploy", *maker],
        ["tx", "register", *maker, "--id", "P-001", "--name", "W"],
        ["tx", "sell", *maker, "--id", "P-001", "--to", keys["buyer"].address],
    ):
        assert _run(chain_args(ws) + argv) == 0, argv
    state = ledger.load_chain(ws / "chain.jsonl", ledger.GenesisConfig.load(ws / "genesis.json")).state
    (ws / "scenario.json").write_text(json.dumps(SCENARIO), encoding="utf-8")
    return ws, qr.encode_payload(5, state.contract.address, "P-001")


def chain_args(ws: Path) -> list:
    return ["--db", ws / "chain.jsonl", "--genesis", ws / "genesis.json"]


def reads(ws: Path, payload: str) -> list:
    """Every command that reads the genesis and the chain file."""
    return [
        chain_args(ws) + argv
        for argv in (
            ["validate"],
            ["repair"],
            ["verify", "--qr", payload],
            ["history", "--id", "P-001"],
            ["gas-report"],
            ["tx", "faucet", "--key", ws / "buyer.json"],
        )
    ]


def json_paths(doc, prefix=()):
    yield prefix
    if isinstance(doc, dict):
        for name, value in doc.items():
            yield from json_paths(value, prefix + (name,))
    elif isinstance(doc, list):
        for position, value in enumerate(doc):
            yield from json_paths(value, prefix + (position,))


def mutate_doc(data, doc):
    """One JSON-shaped edit of a parsed document: set, delete or add a member."""
    path = data.draw(st.sampled_from(list(json_paths(doc))))
    op = data.draw(st.sampled_from(["set", "delete", "add"]))
    if not path and op != "add":
        return data.draw(VALUES)
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    target = parent[path[-1]] if path else doc
    if op == "add" and isinstance(target, dict):
        target["extra"] = data.draw(VALUES)
    elif op == "add" and isinstance(target, list):
        target.append(data.draw(VALUES))
    elif op == "delete":
        del parent[path[-1]]
    elif path:
        parent[path[-1]] = data.draw(VALUES)
    return doc


def mutate_bytes(data, raw: bytes) -> bytes:
    out = bytearray(raw)
    for offset in data.draw(st.lists(st.integers(0, len(raw) - 1), min_size=1, max_size=3)):
        out[offset] = data.draw(st.integers(0, 255))
    return bytes(out)


def fuzz_json_file(data, path: Path, encode) -> None:
    raw = path.read_bytes()
    if data.draw(st.booleans()):
        path.write_bytes(mutate_bytes(data, raw))
    else:
        path.write_bytes(encode(mutate_doc(data, json.loads(raw))))


def fuzz_chain_file(data, path: Path) -> None:
    """The chain is JSON lines: edit one block's document, or the raw bytes."""
    raw = path.read_bytes()
    if data.draw(st.booleans()):
        path.write_bytes(mutate_bytes(data, raw))
        return
    blocks = [json.loads(line) for line in raw.splitlines()]
    position = data.draw(st.integers(0, len(blocks) - 1))
    blocks[position] = mutate_doc(data, blocks[position])
    path.write_bytes(b"".join(canonical_serialize(block) + b"\n" for block in blocks))


def compact(doc) -> bytes:
    return json.dumps(doc).encode("utf-8")


def pretty(doc) -> bytes:
    return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode("utf-8")


def run_in_copy(workspace, data, mutate, commands) -> None:
    """Mutate a copy of the workspace, then run one of its commands."""
    ws, payload = workspace
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "ws"
        shutil.copytree(ws, copy)
        (copy / "chain.jsonl.tip").unlink(missing_ok=True)
        mutate(copy)
        argv = data.draw(st.sampled_from(commands(copy, payload)))
        assert _run(argv) in EXIT_CODES


@SETTINGS
@given(data=st.data())
def test_genesis_file(workspace, data):
    run_in_copy(workspace, data, lambda ws: fuzz_json_file(data, ws / "genesis.json", pretty), reads)


@SETTINGS
@given(data=st.data())
def test_chain_file(workspace, data):
    run_in_copy(workspace, data, lambda ws: fuzz_chain_file(data, ws / "chain.jsonl"), reads)


@SETTINGS
@given(data=st.data())
def test_key_file(workspace, data):
    def commands(ws, payload):
        return [
            chain_args(ws) + ["tx", "faucet", "--key", ws / "buyer.json"],
            ["--db", ws / "new.jsonl", "--genesis", ws / "new.json", "init",
             "--authority", ws / "authority.json", "--account", f"{ws / 'buyer.json'}:consumer"],
        ]

    run_in_copy(workspace, data, lambda ws: fuzz_json_file(data, ws / "buyer.json", compact), commands)


@settings(SETTINGS, max_examples=100)
@given(data=st.data())
def test_scenario_file(workspace, data):
    def commands(ws, payload):
        return [["simulate", "--scenario", ws / "scenario.json", "--out", ws / "sim"]]

    run_in_copy(workspace, data, lambda ws: fuzz_json_file(data, ws / "scenario.json", compact), commands)


def tx_arguments(data, ws: Path) -> list:
    """One `tx` subcommand with drawn values for its options."""
    command = data.draw(st.sampled_from(["deploy", "register", "transfer", "sell", "faucet"]))
    options = {"--key": ws / data.draw(st.sampled_from(["maker.json", "buyer.json"]))}
    if data.draw(st.booleans()):
        options["--gas-price"] = data.draw(st.integers())
    if data.draw(st.booleans()):
        options["--timestamp"] = data.draw(st.integers())
    if command == "deploy" and data.draw(st.booleans()):
        options["--code-size"] = data.draw(st.integers())
    if command in ("register", "transfer", "sell"):
        options["--id"] = data.draw(st.one_of(st.just("P-001"), TEXT))
    if command == "register":
        options["--name"] = data.draw(TEXT)
        options["--metadata"] = data.draw(TEXT)
    if command in ("transfer", "sell"):
        address = support.key_for("fuzz:buyer").address
        options["--to"] = data.draw(st.one_of(st.just(address), TEXT))
    # --OPTION=VALUE, so that a value starting with "-" is not read as an option
    return ["tx", command] + [f"{option}={value}" for option, value in options.items()]


@SETTINGS
@given(data=st.data())
def test_tx_arguments(workspace, data):
    ws, _ = workspace
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "ws"
        shutil.copytree(ws, copy)
        assert _run(chain_args(copy) + tx_arguments(data, copy)) in EXIT_CODES
        assert _run(chain_args(copy) + ["validate"]) == 0
