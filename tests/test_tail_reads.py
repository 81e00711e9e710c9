"""Reads and appends that walk only the tail after a sidecar checkpoint, and
the writers that cut a torn tail (tx and repair), against the committed
50-block chain.

Every command runs in this process through cli.main, so the whole grid
stays fast: the signature memo answers each check after the first replay.
"""

import contextlib
import functools
import hashlib
import io
import json
import os
import shutil
from pathlib import Path

import pytest

from acprov import cli, ledger, qr, registry, simnet
from acprov.canonical import Record, canonical_serialize, from_hex

import support

replace = Record.replace  # the record with the given fields changed

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


def spaced(sidecar: bytes) -> bytes:
    """sidecar with its state line written with spaces: the same state, other bytes."""
    head, body = sidecar.split(b"\n", 1)
    return head + b"\n" + json.dumps(json.loads(body), sort_keys=True).encode() + b"\n"


def with_head(sidecar: bytes, **members) -> bytes:
    """sidecar with its head's members replaced; a None member is dropped."""
    head, body = sidecar.split(b"\n", 1)
    doc = {**json.loads(head), **members}
    return canonical_serialize({key: value for key, value in doc.items() if value is not None}) + b"\n" + body


INPUTS = ["intact", "no-newline", "torn", "prefix30", "cr-for-newline"] + [
    f"edit-{line}-{fraction}" for line in (0, 10, 17, 30, 48, 49) for fraction in (0.3, 0.8)
]


@pytest.fixture(scope="module")
def grid(tmp_path_factory, keys50):
    """The fixture chain, the inputs made from it, the sidecars to open them
    with, and the commands: the reads, then validate, gas-report and a tx."""
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
        ledger.open_store(chain, genesis)
        sidecars[f"k={k}"] = (out / f"prefix{k}.jsonl.tip").read_bytes()
    tip = sidecars["k=49"]
    head17 = json.loads(sidecars["k=17"].split(b"\n", 1)[0])
    sidecars["three-member"] = with_head(tip, bytes=None, prefix=None)
    sidecars["five-member"] = with_head(tip, gas=None)  # the head before the gas totals
    totals = json.loads(tip.split(b"\n", 1)[0])["gas"]
    count, total_gas, total_fee = totals["Deploy"]
    sidecars["gas-edited"] = with_head(tip, gas={**totals, "Deploy": [count, total_gas, total_fee + 1]})
    sidecars["bytes-mid-line"] = with_head(tip, bytes=len(raw) - 1)
    sidecars["bytes-next-line"] = with_head(sidecars["k=17"], bytes=head17["bytes"] + len(lines[18]))
    digit = head17["prefix"][-1]
    sidecars["prefix-edited"] = with_head(
        sidecars["k=17"], prefix=head17["prefix"][:-1] + ("0" if digit != "0" else "1")
    )
    sidecars["state-spaced"] = spaced(tip)
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
    consumer = next(a for a, r in genesis.roles.items() if r.value == "consumer")
    commands = [
        ["verify", "--qr", payload],
        ["history", "--id", product],
        ["qr", "--id", product],
        ["validate"],
        ["gas-report"],
        # the due sealer's key is found next to the sender's
        ["tx", "faucet", "--key", str(keys50[consumer])],
    ]
    return {
        "dir": out, "genesis": genesis, "inputs": inputs, "sidecars": sidecars, "commands": commands
    }


@pytest.mark.parametrize("name", INPUTS)
def test_every_sidecar_answers_as_no_sidecar(grid, name):
    """Exit code, stdout, stderr and the chain's bytes after the command
    are those of the same command with the sidecar deleted, whatever the
    sidecar holds.  Each command runs on a fresh copy of the input; only
    tx changes it."""
    chain, data = grid["dir"] / "chain.jsonl", grid["inputs"][name]
    tip = Path(str(chain) + ".tip")
    base = ["--db", str(chain), "--genesis", str(grid["dir"] / "genesis.json")]

    def answer(command, sidecar):
        chain.write_bytes(data)
        tip.unlink(missing_ok=True)
        if sidecar is not None:
            tip.write_bytes(sidecar)
        return run(base + command), chain.read_bytes()

    expected = [answer(command, None) for command in grid["commands"]]
    assert [after for _, after in expected[:-1]] == [data] * (len(expected) - 1)
    assert "Traceback" not in "".join(err for (_, _, err), _ in expected)
    for label, sidecar in grid["sidecars"].items():
        for command, expect in zip(grid["commands"], expected):
            assert answer(command, sidecar) == expect, (label, command[0])


@pytest.mark.parametrize("name", INPUTS)
def test_every_sidecar_opens_the_store_of_a_full_replay(grid, name):
    """open_store's tip, state, gas totals, size and digest, or the error
    it raises, are load_chain's whatever the sidecar holds."""
    chain, data, genesis = grid["dir"] / "chain.jsonl", grid["inputs"][name], grid["genesis"]
    tip = Path(str(chain) + ".tip")
    chain.write_bytes(data)

    def outcome(open_chain):
        try:
            opened = open_chain(chain, genesis)
        except ledger.LedgerError as exc:
            return type(exc), str(exc)
        return opened.tip, opened.state, opened.gas, opened.size, opened.digest.digest()

    expected = outcome(ledger.load_chain)
    assert len(expected) == 2 or expected[3:] == (len(data), hashlib.sha256(data).digest())
    for label, sidecar in grid["sidecars"].items():
        tip.unlink(missing_ok=True)
        if sidecar is not None:
            tip.write_bytes(sidecar)
        assert outcome(ledger.open_store) == expected, label
    assert chain.read_bytes() == data


def test_a_record_that_fails_its_decode_answers_as_no_sidecar(grid, tmp_path):
    """A state written under other rules: block 49 is sealed over a state
    whose first product, the one the reads ask for, has a status the
    decoder refuses, and the tip sidecar holds that state.  The sidecar's
    checks pass and the record is decoded only when it is read; then each
    command that reads the state answers as it does without the sidecar,
    which is load_chain's error at block 49.  gas-report reads no record,
    so it answers from the sidecar's gas totals."""
    genesis, raw = grid["genesis"], grid["inputs"]["intact"]
    blocks = ledger.parse_chain_bytes(raw)
    fixture = ledger.load_chain(FIXTURES / "chain50.jsonl", genesis)
    state = fixture.state
    product = sorted(state.products)[0]
    other = state.replace(products={**state.products, product: state.products[product].replace(status="stolen")})
    scenario = simnet.Scenario.load(FIXTURES / "scenario50.json")
    keys = {actor.address: actor.key for actors in simnet.scenario_actors(scenario).values() for actor in actors}
    header = blocks[49].header.replace(state_root=registry.state_commitment(other))
    sealed = blocks[49].replace(header=header, seal=keys[header.sealer].sign(from_hex(header.hash)))
    data = raw[: -len(ledger.block_line(blocks[49]))] + ledger.block_line(sealed)
    chain, tip = tmp_path / "chain.jsonl", tmp_path / "chain.jsonl.tip"
    chain.write_bytes(data)
    ledger.checkpoint(ledger.LedgerStore(chain, genesis, header, other, len(data), hashlib.sha256(data), fixture.gas))
    sidecar = tip.read_bytes()

    opened = ledger._from_checkpoint(chain, data, genesis, sidecar).state
    with pytest.raises(ledger.ValidationFailedError, match="rule state_root"):
        opened.products.get(product)
    base = ["--db", str(chain), "--genesis", str(grid["dir"] / "genesis.json")]

    def answer(command, sidecar):
        chain.write_bytes(data)
        tip.unlink(missing_ok=True)
        if sidecar is not None:
            tip.write_bytes(sidecar)
        return run(base + command), chain.read_bytes()

    for command in grid["commands"]:
        expect = answer(command, None)
        assert expect[0][0] == 1 and "rule=state_root" in "".join(expect[0][1:]), command[0]
        if command == ["gas-report"]:
            expect = (0, (FIXTURES / "gas_report50.csv").read_text(), ""), data
        assert answer(command, sidecar) == expect, command[0]


def test_a_tx_at_a_tip_sidecar_walks_no_block(grid, monkeypatch):
    """An append at a tip sidecar parses no line (it decodes the tip's
    header alone) and executes only its own transaction."""
    chain, tip = grid["dir"] / "chain.jsonl", grid["dir"] / "chain.jsonl.tip"
    chain.write_bytes(grid["inputs"]["intact"])
    tip.write_bytes(grid["sidecars"]["k=49"])
    base = ["--db", str(chain), "--genesis", str(grid["dir"] / "genesis.json")]
    parsed = support.count_calls(monkeypatch, ledger, "_parse_line")
    executed = support.count_calls(monkeypatch, registry, "apply_tx")
    code, out, err = run(base + grid["commands"][-1])
    assert code in (0, 1) and err == "" and json.loads(out)["block_index"] == 50
    assert parsed == [] and [tx.hash for _, tx, _ in executed] == [json.loads(out)["tx_hash"]]


@pytest.mark.parametrize("k", [49, 17])
def test_a_gas_report_at_a_sidecar_walks_only_the_tail(grid, monkeypatch, k):
    """gas-report at a tip sidecar parses no line and executes nothing: it
    prints the sidecar's gas totals.  At a stale one it parses and executes
    only the blocks after k.  Either way it prints the committed report."""
    chain, tip = grid["dir"] / "chain.jsonl", grid["dir"] / "chain.jsonl.tip"
    chain.write_bytes(grid["inputs"]["intact"])
    tip.write_bytes(grid["sidecars"][f"k={k}"])
    base = ["--db", str(chain), "--genesis", str(grid["dir"] / "genesis.json")]
    blocks = ledger.parse_chain_bytes(grid["inputs"]["intact"])[k + 1 :]
    parsed = support.count_calls(monkeypatch, ledger, "_parse_line")
    executed = support.count_calls(monkeypatch, registry, "apply_tx")
    code, out, err = run(base + ["gas-report"])
    assert (code, out, err) == (0, (FIXTURES / "gas_report50.csv").read_text(), "")
    assert len(parsed) == len(blocks) and len(executed) == sum(len(block.txs) for block in blocks)
    assert json.loads(tip.read_bytes().split(b"\n")[0])["index"] == 49


def test_a_gas_only_edit_of_the_sidecar_is_caught(grid, monkeypatch):
    """The head's prefix also hashes its gas totals, so a sidecar whose
    totals alone were edited misfits: gas-report replays the chain in
    full, prints the committed report and rewrites the sidecar."""
    chain, tip = grid["dir"] / "chain.jsonl", grid["dir"] / "chain.jsonl.tip"
    chain.write_bytes(grid["inputs"]["intact"])
    tip.write_bytes(grid["sidecars"]["gas-edited"])
    base = ["--db", str(chain), "--genesis", str(grid["dir"] / "genesis.json")]
    replays = support.count_calls(monkeypatch, ledger, "_replay")
    code, out, err = run(base + ["gas-report"])
    assert (code, out, err) == (0, (FIXTURES / "gas_report50.csv").read_text(), "")
    assert [(parent.index, len(blocks)) for parent, blocks, *_ in replays] == [(0, 49)]
    assert tip.read_bytes() == grid["sidecars"]["k=49"]


def test_a_short_append_prints_no_receipt(grid, monkeypatch):
    """A write cut short (a full disk, say) is cut off again: tx exits 2
    with no receipt and the chain keeps its bytes."""
    chain, data = grid["dir"] / "chain.jsonl", grid["inputs"]["intact"]
    chain.write_bytes(data)
    base = ["--db", str(chain), "--genesis", str(grid["dir"] / "genesis.json")]
    write = os.write
    monkeypatch.setattr(ledger.os, "write", lambda fd, line: write(fd, line[: len(line) // 2]))
    code, out, err = run(base + grid["commands"][-1])
    monkeypatch.undo()
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot append to {chain}: wrote ") and "Traceback" not in err
    assert chain.read_bytes() == data


def test_a_state_line_with_other_spacing_is_refused(grid):
    """The state line is checked by its sha256 before it is decoded, so the
    same state with other spacing is refused (and the grid above shows the
    answers do not change)."""
    raw, tip = grid["inputs"]["intact"], grid["sidecars"]["k=49"]
    other = grid["sidecars"]["state-spaced"]
    assert other != tip

    def state(sidecar):
        return registry.state_from_canonical(json.loads(sidecar.split(b"\n")[1]))

    chain = grid["dir"] / "chain.jsonl"
    assert state(other) == state(tip) == ledger._from_checkpoint(chain, raw, grid["genesis"], tip).state
    with pytest.raises(ValueError, match="sidecar state does not commit to block 49's state_root"):
        ledger._from_checkpoint(chain, raw, grid["genesis"], other)


def test_the_simulator_leaves_the_tip_checkpoint(grid, tmp_path, monkeypatch):
    """run_scenario writes the sidecar a read at the tip writes, so each read
    after it parses no line and executes nothing, and answers as a read
    without it."""
    result = simnet.run_scenario(simnet.Scenario.load(FIXTURES / "scenario50.json"), tmp_path)
    assert result.chain_path.read_bytes() == grid["inputs"]["intact"]
    tip = Path(str(result.chain_path) + ".tip")
    assert tip.read_bytes() == grid["sidecars"]["k=49"]
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "chain.jsonl", "chain.jsonl.tip", "genesis.json", "trace.jsonl"
    ]
    base = ["--db", str(result.chain_path), "--genesis", str(result.genesis_path)]
    tip_reads = grid["commands"][:3]  # verify, history, qr
    parsed = support.count_calls(monkeypatch, ledger, "_parse_line")
    executed = support.count_calls(monkeypatch, registry, "apply_tx")
    kept = [run(base + command) for command in tip_reads]
    assert (parsed, executed) == ([], [])
    bare = []
    for command in tip_reads:
        tip.unlink()
        bare.append(run(base + command))
    assert kept == bare and [code for code, _, _ in kept] == [0, 0, 0]


def test_a_tamper_plan_spoils_the_simulators_checkpoint(grid, tmp_path):
    """The sidecar is written before the tamper plan, so its digest no
    longer matches the file and a read reports load_chain's error."""
    line = grid["inputs"]["intact"].split(b"\n")[10]
    offset = int(len(line) * 0.3)
    mutation = simnet.Mutation(10, offset, ord("0") if line[offset] != ord("0") else ord("1"))
    scenario = replace(simnet.Scenario.load(FIXTURES / "scenario50.json"), tamper_plan=(mutation,))
    result = simnet.run_scenario(scenario, tmp_path)
    raw = result.chain_path.read_bytes()
    sidecar = Path(str(result.chain_path) + ".tip").read_bytes()
    with pytest.raises(ValueError, match="the chain's first bytes changed"):
        ledger._from_checkpoint(result.chain_path, raw, result.genesis, sidecar)
    with pytest.raises(ledger.ValidationFailedError) as loaded:
        ledger.load_chain(result.chain_path, result.genesis)
    report = loaded.value.report
    error = f"error: invalid chain: block={report.block_index} rule={report.rule} detail={report.detail}\n"
    kept = []
    base = ["--db", str(result.chain_path), "--genesis", str(result.genesis_path)]
    tip = Path(str(result.chain_path) + ".tip")
    for command in grid["commands"][:3]:
        tip.write_bytes(sidecar)
        kept.append(run(base + command))
        tip.unlink()
        assert run(base + command) == kept[-1]
    assert [(code, err) for code, _, err in kept] == [(1, error)] * 3


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
    """tx cuts an interrupted append off before it appends, and repair cuts
    it without appending; reads never cut."""

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

    def test_repair_cuts_a_torn_tail_at_every_offset(self, tmp_path, monkeypatch):
        """Wherever the last append was cut, repair leaves the 49-block
        prefix, or the whole chain when only its newline was lost, and
        appends nothing.  About 20 offsets run the whole command and a full
        load; every offset runs the cut, with validate's replay left out
        and the 49 intact lines' parse memoized to keep the loop fast."""
        raw = (FIXTURES / "chain50.jsonl").read_bytes()
        last = raw.splitlines(keepends=True)[-1]
        intact = len(raw) - len(last)
        base, _, _ = self.chain(tmp_path, 0)
        chain = tmp_path / "chain.jsonl"
        genesis = ledger.GenesisConfig.load(tmp_path / "genesis.json")

        def expected(cut):
            return raw[:-1] if cut == len(last) - 1 else raw[:intact]

        for cut in sorted({*range(0, len(last), len(last) // 20), len(last) - 1}):
            chain.write_bytes(raw[: intact + cut])
            code, out, err = run(base + ["repair"])
            assert chain.read_bytes() == expected(cut), cut
            blocks = 50 if cut == len(last) - 1 else 49
            assert code == 0 and out.startswith(f"OK blocks={blocks} "), (cut, out)
            assert (f"truncated it to {intact} bytes" in err) == (0 < cut < len(last) - 1), err
            assert ledger.load_chain(chain, genesis).tip.index + 1 == blocks

        args = cli.build_parser().parse_args(base + ["repair"])
        replayed = []

        def replay(parent, blocks, genesis, state, gas):
            replayed.append(parent)
            return state, gas

        monkeypatch.setattr(ledger, "_replay", replay)
        monkeypatch.setattr(ledger, "_parse_line", functools.lru_cache(maxsize=None)(ledger._parse_line))
        for cut in range(len(last)):
            chain.write_bytes(raw[: intact + cut])
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                assert cli.cmd_repair(args) == cli.EXIT_OK
            assert chain.read_bytes() == expected(cut), cut
        assert len(replayed) == len(last)

    @pytest.mark.parametrize("cut", ["partial-line-appended", "line-49-torn"])
    def test_a_sidecar_from_before_the_cut(self, tmp_path, monkeypatch, cut):
        """A sidecar at the tip, k = 49, written before a crash: after repair
        it is still accepted when the cut took only a partial line appended
        after it (no line parsed, nothing executed), and a read falls back
        to a full replay when the cut took line 49.  Either way the read
        answers as it does without the sidecar."""
        raw = (FIXTURES / "chain50.jsonl").read_bytes()
        last = raw.splitlines(keepends=True)[-1]
        base, intact, _ = self.chain(tmp_path, len(last))
        chain, tip = tmp_path / "chain.jsonl", tmp_path / "chain.jsonl.tip"
        history = base + ["history", "--id", "P-001"]
        assert run(history)[0] == 0
        assert json.loads(tip.read_bytes().split(b"\n")[0])["index"] == 49
        if cut == "partial-line-appended":
            chain.write_bytes(raw + last[: len(last) // 2])
            kept = raw
        else:
            chain.write_bytes(raw[: -len(last) // 2])
            kept = intact
        code, _, err = run(base + ["repair"])
        assert code == 0 and f"truncated it to {len(kept)} bytes" in err
        assert chain.read_bytes() == kept
        parsed = support.count_calls(monkeypatch, ledger, "_parse_line")
        executed = support.count_calls(monkeypatch, registry, "apply_tx")
        answer = run(history)
        if cut == "partial-line-appended":
            assert (len(parsed), len(executed)) == (0, 0)
        else:
            assert len(parsed) == 49 and executed
            assert json.loads(tip.read_bytes().split(b"\n")[0])["index"] == 48
        tip.unlink()
        assert run(history) == answer
        assert answer[0] == 0 and answer[2] == ""

    def test_repair_parses_an_intact_chain_once(self, tmp_path, monkeypatch):
        """repair reads the file again only after a cut, so each of an intact
        chain's 50 lines is parsed once, and it answers as validate does."""
        base, _, _ = self.chain(tmp_path, 0)
        (tmp_path / "chain.jsonl").write_bytes((FIXTURES / "chain50.jsonl").read_bytes())
        answer = run(base + ["validate"])
        parsed = support.count_calls(monkeypatch, ledger, "_parse_line")
        assert run(base + ["repair"]) == answer
        assert len(parsed) == 50 and answer[0] == 0

    @pytest.mark.parametrize("case", ["intact", "edited-and-torn", "last-line-edited"])
    def test_repair_cuts_nothing_else(self, tmp_path, case):
        """An intact chain, or one corrupt other than by a torn tail, is left
        as it is, and repair reports it as validate does."""
        raw = (FIXTURES / "chain50.jsonl").read_bytes()
        base, _, torn = self.chain(tmp_path, 100)
        data = {
            "intact": raw,
            "edited-and-torn": edited(torn, 10, 0.0),  # line 10 is not JSON
            "last-line-edited": edited(raw, 49, 0.5),
        }[case]
        chain = tmp_path / "chain.jsonl"
        chain.write_bytes(data)
        answer = run(base + ["validate"])
        assert answer[0] == (0 if case == "intact" else 1)
        assert run(base + ["repair"]) == answer
        assert chain.read_bytes() == data
