"""Reads that walk only the tail after a sidecar checkpoint, and the writer
that cuts a torn tail, against the committed 50-block chain.

Every command runs in this process through cli.main, so the whole grid
stays fast: the signature memo answers each check after the first replay.
"""

import contextlib
import io
import json
import shutil
from pathlib import Path

import pytest

from acprov import cli, ledger, qr, simnet
from acprov.canonical import canonical_serialize

FIXTURES = Path(__file__).parent / "fixtures"


def run(argv):
    """(exit code, stdout, stderr) of one in-process command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def edited(raw: bytes, line: int, fraction: float) -> bytes:
    """raw with one byte of the given line changed."""
    start = sum(len(text) for text in raw.splitlines(keepends=True)[:line])
    position = start + int(len(raw.splitlines()[line]) * fraction)
    data = bytearray(raw)
    data[position] = ord("0") if data[position] != ord("0") else ord("1")
    return bytes(data)


def with_head(sidecar: bytes, **members) -> bytes:
    """sidecar with its head's members replaced; a None member is dropped."""
    head, body = sidecar.split(b"\n", 1)
    doc = {**json.loads(head), **members}
    return canonical_serialize({key: value for key, value in doc.items() if value is not None}) + b"\n" + body


@pytest.fixture(scope="module")
def grid(tmp_path_factory):
    """The fixture chain, the inputs made from it, the sidecars to read them
    with, and the commands."""
    out = tmp_path_factory.mktemp("tail")
    shutil.copy(FIXTURES / "genesis50.json", out / "genesis.json")
    raw = (FIXTURES / "chain50.jsonl").read_bytes()
    lines = raw.splitlines(keepends=True)
    assert len(lines) == 50
    genesis = ledger.GenesisConfig.load(out / "genesis.json")
    sidecars = {"none": None}
    for k in (0, 17, 48, 49):
        chain = out / f"prefix{k}.jsonl"
        chain.write_bytes(b"".join(lines[: k + 1]))
        ledger.read_state(chain, genesis)
        sidecars[f"k={k}"] = (out / f"prefix{k}.jsonl.tip").read_bytes()
    tip = sidecars["k=49"]
    head17 = json.loads(sidecars["k=17"].split(b"\n", 1)[0])
    sidecars["three-member"] = with_head(tip, bytes=None, prefix=None)
    sidecars["bytes-mid-line"] = with_head(tip, bytes=len(raw) - 1)
    sidecars["bytes-next-line"] = with_head(sidecars["k=17"], bytes=head17["bytes"] + len(lines[18]))
    digit = head17["prefix"][-1]
    sidecars["prefix-edited"] = with_head(
        sidecars["k=17"], prefix=head17["prefix"][:-1] + ("0" if digit != "0" else "1")
    )
    inputs = {
        "intact": raw,
        "no-newline": raw[:-1],
        "torn": raw[: -len(lines[-1]) // 2],
        "prefix30": b"".join(lines[:30]),
        # lines 48 and 49 joined by a carriage return: one line that does not parse
        "cr-for-newline": b"".join(lines[:48]) + lines[48][:-1] + b"\r" + lines[49],
    }
    for line in (0, 10, 17, 30, 48, 49):
        for fraction in (0.3, 0.8):
            inputs[f"edit-{line}-{fraction}"] = edited(raw, line, fraction)
    state = ledger.load_chain(FIXTURES / "chain50.jsonl", genesis).state
    product = sorted(state.products)[0]
    payload = qr.encode_payload(genesis.chain_id, state.contract.address, product)
    commands = [
        ["verify", "--qr", payload],
        ["history", "--id", product],
        ["qr", "--id", product],
        ["validate"],
        ["gas-report"],
    ]
    return {"dir": out, "inputs": inputs, "sidecars": sidecars, "commands": commands}


@pytest.mark.parametrize(
    "name",
    ["intact", "no-newline", "torn", "prefix30", "cr-for-newline"]
    + [f"edit-{line}-{fraction}" for line in (0, 10, 17, 30, 48, 49) for fraction in (0.3, 0.8)],
)
def test_every_sidecar_answers_as_no_sidecar(grid, name):
    """Exit code, stdout, stderr and the chain's bytes are those of the same
    command with the sidecar deleted, whatever the sidecar holds."""
    chain, data = grid["dir"] / "chain.jsonl", grid["inputs"][name]
    tip = Path(str(chain) + ".tip")
    base = ["--db", str(chain), "--genesis", str(grid["dir"] / "genesis.json")]
    chain.write_bytes(data)
    expected = []
    for command in grid["commands"]:
        tip.unlink(missing_ok=True)
        expected.append(run(base + command))
    assert chain.read_bytes() == data
    assert "Traceback" not in "".join(err for _, _, err in expected)
    for label, sidecar in grid["sidecars"].items():
        for command, answer in zip(grid["commands"], expected):
            tip.unlink(missing_ok=True)
            if sidecar is not None:
                tip.write_bytes(sidecar)
            assert run(base + command) == answer, (label, command[0])
            assert chain.read_bytes() == data, (label, command[0])


def write_key(path: Path, key) -> None:
    doc = {"address": key.address, "public_key": key.public_key, "secret_key": key.secret_key}
    path.write_text(json.dumps(doc), encoding="utf-8")


@pytest.fixture(scope="module")
def keys50(tmp_path_factory):
    """Key files of the fixture chain's actors, by role and number."""
    out = tmp_path_factory.mktemp("keys50")
    scenario = simnet.Scenario.load(FIXTURES / "scenario50.json")
    paths = {}
    for role, actors in simnet.scenario_actors(scenario).items():
        for number, actor in enumerate(actors):
            paths[actor.address] = out / f"{role.value}{number}.json"
            write_key(paths[actor.address], actor.key)
    return paths


class TestTornTail:
    """tx cuts an interrupted append off before it appends; reads never cut."""

    def chain(self, tmp_path, cut):
        shutil.copy(FIXTURES / "genesis50.json", tmp_path / "genesis.json")
        raw = (FIXTURES / "chain50.jsonl").read_bytes()
        last = raw.splitlines(keepends=True)[-1]
        intact = len(raw) - len(last)
        torn = raw[: intact + cut]
        (tmp_path / "chain.jsonl").write_bytes(torn)
        base = ["--db", str(tmp_path / "chain.jsonl"), "--genesis", str(tmp_path / "genesis.json")]
        return base, raw[:intact], torn

    def tx(self, base, keys50):
        genesis = ledger.GenesisConfig.load(FIXTURES / "genesis50.json")
        consumer = next(a for a, r in genesis.roles.items() if r.value == "consumer")
        return run(base + ["tx", "faucet", "--key", str(keys50[consumer]),
                           "--sealer-key", str(keys50[genesis.sealer_of(49)])])

    @pytest.mark.parametrize("share", [n / 21 for n in range(1, 21)])
    def test_tx_recovers_a_torn_tail(self, tmp_path, keys50, share):
        last = (FIXTURES / "chain50.jsonl").read_bytes().splitlines(keepends=True)[-1]
        base, intact, _ = self.chain(tmp_path, max(1, int(len(last) * share)))
        code, out, err = self.tx(base, keys50)
        assert code in (0, 1) and json.loads(out)["block_index"] == 49
        assert f"truncated it to {len(intact)} bytes" in err
        assert (tmp_path / "chain.jsonl").read_bytes().startswith(intact)
        code, out, _ = run(base + ["validate"])
        assert code == 0 and out.startswith("OK blocks=50 ")

    def test_reads_stay_strict(self, tmp_path):
        base, _, torn = self.chain(tmp_path, 100)
        for command in (["validate"], ["history", "--id", "P-1"], ["gas-report"]):
            code, _, _ = run(base + command)
            assert code == 1
        assert (tmp_path / "chain.jsonl").read_bytes() == torn

    def test_a_file_that_changed_since_the_read_is_not_cut(self, tmp_path):
        base, _, torn = self.chain(tmp_path, 100)
        genesis = ledger.GenesisConfig.load(tmp_path / "genesis.json")
        with pytest.raises(ledger.TornTailError) as err:
            ledger.load_chain(tmp_path / "chain.jsonl", genesis)
        (tmp_path / "chain.jsonl").write_bytes(torn + b"x")
        assert not ledger.cut_torn_tail(tmp_path / "chain.jsonl", err.value)
        assert (tmp_path / "chain.jsonl").read_bytes() == torn + b"x"
