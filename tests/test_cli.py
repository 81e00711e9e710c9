import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import acprov
from acprov import cli, crypto, ledger, qr, registry, simnet
from acprov.canonical import canonical_serialize
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from support import cli_env, count_calls, run_cli

FIXTURES = Path(__file__).parent / "fixtures"


def test_child_imports_package_under_test(tmp_path):
    """Every CLI test below runs in a child process; it must load this acprov."""
    res = subprocess.run(
        [sys.executable, "-c", "import acprov; print(acprov.__file__)"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=cli_env(),
    )
    assert res.returncode == 0, res.stderr
    assert Path(res.stdout.strip()).resolve() == Path(acprov.__file__).resolve()


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A chain built end to end through the CLI: keys, init, full lifecycle."""
    ws = tmp_path_factory.mktemp("cli")
    addresses = {}
    for tag, role in (
        ("auth", "authority"),
        ("m", "manufacturer"),
        ("d", "distributor"),
        ("r", "retailer"),
        ("c", "consumer"),
    ):
        res = run_cli("keygen", "--role", role, "--out", f"{tag}.json", cwd=ws)
        assert res.returncode == 0, res.stderr
        addresses[tag] = res.stdout.strip()

    fund = [
        arg
        for tag in ("m", "d", "r", "c")
        for arg in ("--fund", f"{addresses[tag]}={10**18}")
    ]
    res = run_cli(
        "init",
        "--chain-id", "5",
        "--authority", "auth.json",
        "--account", "m.json:manufacturer",
        "--account", "d.json:distributor",
        "--account", "r.json:retailer",
        "--account", "c.json:consumer",
        *fund,
        cwd=ws,
    )
    assert res.returncode == 0, res.stderr

    steps = (
        ("deploy", "--key", "m.json"),
        ("register", "--key", "m.json", "--id", "P-100", "--name", "Widget"),
        ("transfer", "--key", "m.json", "--id", "P-100", "--to", addresses["d"]),
        ("sell", "--key", "d.json", "--id", "P-100", "--to", addresses["c"]),
    )
    for step in steps:
        res = run_cli("tx", *step, cwd=ws)
        assert res.returncode == 0, f"{step[0]} failed: {res.stdout}{res.stderr}"
        receipt = json.loads(res.stdout)
        assert receipt["accepted"] is True

    genesis = ledger.GenesisConfig.load(ws / "genesis.json")
    store = ledger.load_chain(ws / "chain.jsonl", genesis)
    return {
        "dir": ws,
        "addresses": addresses,
        "contract": store.state.contract.address,
    }


def clone(workspace, tmp_path):
    """Copy of the workspace chain for tests that append or tamper."""
    for name in ("genesis.json", "chain.jsonl", "m.json", "d.json", "c.json", "auth.json"):
        shutil.copy(workspace["dir"] / name, tmp_path / name)
    return tmp_path


class TestKeygen:
    def test_prints_address_and_writes_key(self, tmp_path):
        res = run_cli("keygen", "--role", "consumer", "--out", "k.json", cwd=tmp_path)
        assert res.returncode == 0
        doc = json.loads((tmp_path / "k.json").read_text())
        assert res.stdout.strip() == doc["address"]
        assert doc["role"] == "consumer"
        assert "secret" in res.stderr, "no warning about the unencrypted key"

    def test_refuses_overwrite(self, tmp_path):
        assert run_cli("keygen", "--role", "consumer", "--out", "k.json", cwd=tmp_path).returncode == 0
        res = run_cli("keygen", "--role", "consumer", "--out", "k.json", cwd=tmp_path)
        assert res.returncode == 2

    def test_unknown_role(self, tmp_path):
        res = run_cli("keygen", "--role", "wizard", "--out", "w.json", cwd=tmp_path)
        assert res.returncode == 2

    def test_the_key_file_is_owner_only_from_its_creation(self, tmp_path, monkeypatch):
        """The file is created with mode 0600, not narrowed to it afterwards."""
        monkeypatch.setattr(os, "chmod", lambda *args, **kwargs: None)
        old_umask = os.umask(0o022)
        try:
            assert cli.main(["keygen", "--role", "consumer", "--out", str(tmp_path / "k.json")]) == 0
        finally:
            os.umask(old_umask)
        assert (tmp_path / "k.json").stat().st_mode & 0o777 == 0o600


class TestInit:
    def test_refuses_existing_chain(self, workspace):
        res = run_cli("init", "--authority", "auth.json", cwd=workspace["dir"])
        assert res.returncode == 2

    def test_requires_valid_fund_syntax(self, tmp_path):
        assert run_cli("keygen", "--role", "authority", "--out", "a.json", cwd=tmp_path).returncode == 0
        res = run_cli("init", "--authority", "a.json", "--fund", "nonsense", cwd=tmp_path)
        assert res.returncode == 2

    def test_failed_chain_leaves_no_genesis_behind(self, tmp_path):
        assert run_cli("keygen", "--role", "authority", "--out", "a.json", cwd=tmp_path).returncode == 0
        res = run_cli("--genesis", "g.json", "--db", "nodir/chain.jsonl", "init",
                      "--authority", "a.json", cwd=tmp_path)
        assert res.returncode == 2 and "cannot create chain file" in res.stderr
        assert not (tmp_path / "g.json").exists()
        res = run_cli("--genesis", "g.json", "--db", "chain.jsonl", "init",
                      "--authority", "a.json", cwd=tmp_path)
        assert res.returncode == 0, res.stderr

    @pytest.mark.parametrize(
        "repeat",
        [
            ["--account", "m.json:consumer"],
            ["--fund", "{m}=1", "--fund", "{m}=2"],
        ],
        ids=["account", "fund"],
    )
    def test_a_repeated_address_is_usage_error(self, tmp_path, repeat):
        for name, role in (("a.json", "authority"), ("m.json", "manufacturer")):
            assert run_cli("keygen", "--role", role, "--out", name, cwd=tmp_path).returncode == 0
        address = json.loads((tmp_path / "m.json").read_text())["address"]
        res = run_cli("--genesis", "g.json", "--db", "chain.jsonl", "init",
                      "--authority", "a.json", "--account", "m.json:manufacturer",
                      *(arg.format(m=address) for arg in repeat), cwd=tmp_path)
        assert res.returncode == 2 and "a second time" in res.stderr
        assert not (tmp_path / "g.json").exists() and not (tmp_path / "chain.jsonl").exists()


class TestTx:
    def test_rejected_tx_exits_one_with_receipt(self, workspace, tmp_path):
        ws = clone(workspace, tmp_path)
        res = run_cli(
            "tx", "register", "--key", "m.json", "--id", "P-100", "--name", "Again",
            cwd=ws,
        )
        assert res.returncode == 1
        receipt = json.loads(res.stdout)
        assert receipt["accepted"] is False
        assert receipt["error"] == registry.DUPLICATE_PRODUCT_ID

    def test_faucet_claim_then_cooldown(self, workspace, tmp_path):
        ws = clone(workspace, tmp_path)
        first = run_cli("tx", "faucet", "--key", "c.json", cwd=ws)
        assert first.returncode == 0, first.stdout
        assert json.loads(first.stdout)["fee"] == 0
        second = run_cli("tx", "faucet", "--key", "c.json", cwd=ws)
        assert second.returncode == 1
        assert json.loads(second.stdout)["error"] == registry.FAUCET_COOLDOWN

    def test_gas_price_flag_is_gwei(self, workspace, tmp_path):
        ws = clone(workspace, tmp_path)
        res = run_cli(
            "tx", "transfer", "--key", "c.json", "--id", "P-100",
            "--to", workspace["addresses"]["d"], "--gas-price", "2",
            cwd=ws,
        )
        # consumer does not own P-100 after selling is irrelevant; the
        # receipt still proves the price conversion
        receipt = json.loads(res.stdout)
        assert receipt["fee"] == receipt["gas_used"] * 2 * 10**9

    @pytest.mark.parametrize(
        "victim, argv",
        [
            ("c.json", ["tx", "faucet", "--key", "forged.json", "--sealer-key", "auth.json"]),
            ("auth.json", ["tx", "faucet", "--key", "c.json", "--sealer-key", "forged.json"]),
            ("auth.json", ["--db", "new.jsonl", "--genesis", "new.json", "init",
                           "--authority", "forged.json"]),
        ],
        ids=["sender", "sealer", "init"],
    )
    def test_mismatched_key_writes_nothing(self, workspace, tmp_path, victim, argv):
        """A key file whose secret does not derive its public key is no key file."""
        ws = clone(workspace, tmp_path)
        doc = json.loads((ws / victim).read_text())
        doc["secret_key"] = json.loads((ws / "d.json").read_text())["secret_key"]
        (ws / "forged.json").write_text(json.dumps(doc))

        def files():
            """Every file but the sidecar, a cache that tx's open writes as a read's does."""
            return sorted((path.name, path.read_bytes()) for path in ws.iterdir() if path.suffix != ".tip")

        before = files()
        res = run_cli(*argv, cwd=ws)
        assert res.returncode == 2, res.stderr
        assert "error: not a key file: forged.json" in res.stderr
        assert "Traceback" not in res.stderr
        assert files() == before

    @pytest.mark.parametrize(
        "argv",
        [
            ("deploy", "--key", "m.json", "--code-size", "-1"),
            ("faucet", "--key", "c.json", "--gas-price", "-1"),
            ("sell", "--key", "d.json", "--id", "P-100", "--to", "bob"),
            ("transfer", "--key", "m.json", "--id", "P-100", "--to", "0xABC"),
            ("register", "--key", "m.json", "--id", "P-200", "--name", "\udcff"),
        ],
        ids=["negative-code-size", "negative-gas-price", "sell-to-name", "short-address",
             "name-not-utf8"],
    )
    def test_a_transaction_no_block_may_hold_is_usage_error(self, workspace, tmp_path, argv):
        ws = clone(workspace, tmp_path)
        before = (ws / "chain.jsonl").read_bytes()
        res = run_cli("tx", *argv, cwd=ws)
        assert res.returncode == 2, res.stderr
        assert res.stderr.startswith("error: bad transaction: ")
        assert "Traceback" not in res.stderr
        assert (ws / "chain.jsonl").read_bytes() == before
        res = run_cli("validate", cwd=ws)
        assert (res.returncode, res.stdout[:3]) == (0, "OK "), res.stdout

    @pytest.mark.parametrize("offset", [-1, 0], ids=["earlier", "equal"])
    def test_timestamp_against_the_tip(self, workspace, tmp_path, offset):
        ws = clone(workspace, tmp_path)
        before = (ws / "chain.jsonl").read_bytes()
        tip = ledger.parse_chain_bytes(before)[-1].header.timestamp
        res = run_cli("tx", "faucet", "--key", "c.json", f"--timestamp={tip + offset}", cwd=ws)
        if offset < 0:
            assert res.returncode == 2
            assert res.stderr == f"error: timestamp {tip - 1} precedes parent timestamp {tip}\n"
            assert (ws / "chain.jsonl").read_bytes() == before
        else:
            assert res.returncode == 0, res.stderr
            blocks = ledger.parse_chain_bytes((ws / "chain.jsonl").read_bytes())
            assert blocks[-1].header.timestamp == tip and len(blocks) == 6

    def test_sealer_key_out_of_turn_is_usage_error(self, tmp_path):
        for tag, role in (("a1", "authority"), ("a2", "authority"), ("c", "consumer")):
            assert run_cli("keygen", "--role", role, "--out", f"{tag}.json", cwd=tmp_path).returncode == 0
        res = run_cli("init", "--authority", "a1.json", "--authority", "a2.json",
                      "--account", "c.json:consumer", cwd=tmp_path)
        assert res.returncode == 0, res.stderr
        before = (tmp_path / "chain.jsonl").read_bytes()
        # block 1 is a2's to seal
        res = run_cli("tx", "faucet", "--key", "c.json", "--sealer-key", "a1.json", cwd=tmp_path)
        assert res.returncode == 2 and res.stderr.startswith("error: block 1 is "), res.stderr
        assert (tmp_path / "chain.jsonl").read_bytes() == before

    def test_missing_key_file(self, workspace, tmp_path):
        ws = clone(workspace, tmp_path)
        res = run_cli("tx", "faucet", "--key", "ghost.json", cwd=ws)
        assert res.returncode == 2

    @pytest.mark.parametrize(
        "field, value",
        [(None, b"\xff{"), ("public_key", 5), ("secret_key", "0x12"), (None, b"[" * 100000)],
        ids=["not-utf8", "numeric-public-key", "short-secret-key", "nested-too-deeply"],
    )
    def test_malformed_key_file_is_usage_error(self, workspace, tmp_path, field, value):
        ws = clone(workspace, tmp_path)
        chain_before = (ws / "chain.jsonl").read_bytes()
        if field is None:
            (ws / "bad.json").write_bytes(value)
        else:
            doc = json.loads((ws / "c.json").read_text())
            doc[field] = value
            (ws / "bad.json").write_text(json.dumps(doc))
        res = run_cli("tx", "faucet", "--key", "bad.json", cwd=ws)
        assert res.returncode == 2, res.stderr
        assert "error: not a key file" in res.stderr
        assert "Traceback" not in res.stderr
        assert (ws / "chain.jsonl").read_bytes() == chain_before


class TestVerify:
    def test_genuine_product(self, workspace):
        payload = qr.encode_payload(5, workspace["contract"], "P-100")
        res = run_cli("verify", "--qr", payload, cwd=workspace["dir"])
        assert res.returncode == 0, res.stdout
        assert "status: unavailable" in res.stdout
        a = workspace["addresses"]
        assert f"history: {a['m']} {a['d']} {a['c']}" in res.stdout

    def test_unregistered_id_is_counterfeit(self, workspace):
        payload = qr.encode_payload(5, workspace["contract"], "P-404")
        res = run_cli("verify", "--qr", payload, cwd=workspace["dir"])
        assert res.returncode == 3
        assert "SUSPECTED COUNTERFEIT" in res.stdout

    def test_wrong_chain_is_registry_mismatch(self, workspace):
        payload = qr.encode_payload(99, workspace["contract"], "P-100")
        res = run_cli("verify", "--qr", payload, cwd=workspace["dir"])
        assert res.returncode == 3
        assert "REGISTRY MISMATCH" in res.stdout

    def test_wrong_contract_is_registry_mismatch(self, workspace):
        other = registry.contract_address("0x" + "9" * 40, 7)
        payload = qr.encode_payload(5, other, "P-100")
        res = run_cli("verify", "--qr", payload, cwd=workspace["dir"])
        assert res.returncode == 3
        assert "REGISTRY MISMATCH" in res.stdout

    def test_malformed_payload_is_usage_error(self, workspace):
        payload = qr.encode_payload(5, workspace["contract"], "P-100")
        res = run_cli("verify", "--qr", payload[:-1], cwd=workspace["dir"])
        assert res.returncode == 2


class TestHistory:
    def test_known_product(self, workspace):
        res = run_cli("history", "--id", "P-100", cwd=workspace["dir"])
        a = workspace["addresses"]
        assert res.returncode == 0
        assert res.stdout.splitlines() == [f"0 {a['m']}", f"1 {a['d']}", f"2 {a['c']}"]

    def test_unknown_product_exits_three(self, workspace):
        res = run_cli("history", "--id", "P-404", cwd=workspace["dir"])
        assert res.returncode == 3


class TestQr:
    def test_payload_round_trips_through_verify(self, workspace):
        res = run_cli("qr", "--id", "P-100", cwd=workspace["dir"])
        assert res.returncode == 0, res.stderr
        assert res.stdout == qr.encode_payload(5, workspace["contract"], "P-100") + "\n"
        scan = run_cli("verify", "--qr", res.stdout.strip(), cwd=workspace["dir"])
        assert scan.returncode == 0, scan.stdout + scan.stderr
        assert scan.stdout.startswith("product: P-100\n")

    def test_unregistered_id_exits_three_as_history_does(self, workspace):
        res = run_cli("qr", "--id", "P-404", cwd=workspace["dir"])
        history = run_cli("history", "--id", "P-404", cwd=workspace["dir"])
        assert (res.returncode, res.stdout) == (3, history.stdout)
        assert res.stdout == "SUSPECTED COUNTERFEIT: product 'P-404' is not in the registry\n"

    def test_malformed_id_is_usage_error(self, workspace):
        res = run_cli("qr", "--id", "no spaces", cwd=workspace["dir"])
        assert (res.returncode, res.stdout) == (2, "")
        assert res.stderr == "error: invalid product id 'no spaces'\n"


class TestGasReport:
    def test_stdout_report(self, workspace):
        res = run_cli("gas-report", cwd=workspace["dir"])
        assert res.returncode == 0
        lines = res.stdout.splitlines()
        assert lines[0] == "category,tx_count,total_gas,avg_gas_per_tx,total_fee_wei,total_fee_eth"
        assert lines[1].startswith("Deploy,1,")
        assert lines[-1].startswith("TOTAL,4,")

    def test_csv_flag_writes_identical_bytes(self, workspace, tmp_path):
        out = tmp_path / "report.csv"
        res = run_cli("gas-report", "--csv", str(out), cwd=workspace["dir"])
        assert out.read_text() == res.stdout

    def test_replays_the_chain_once(self, workspace, monkeypatch, capsys):
        calls = []
        replay = ledger._replay

        def counting(parent, blocks, genesis, state):
            calls.append((parent.index, len(blocks)))
            return replay(parent, blocks, genesis, state)

        monkeypatch.setattr(ledger, "_replay", counting)
        ws = workspace["dir"]
        argv = ["--db", str(ws / "chain.jsonl"), "--genesis", str(ws / "genesis.json")]
        assert cli.main([*argv, "gas-report"]) == 0
        assert capsys.readouterr().out.splitlines()[-1].startswith("TOTAL,4,")
        assert calls == [(0, 4)]


class TestValidate:
    def test_intact_chain(self, workspace):
        res = run_cli("validate", cwd=workspace["dir"])
        assert res.returncode == 0
        assert res.stdout.startswith("OK blocks=5 tip=0x")

    def test_tampered_chain_names_block(self, workspace, tmp_path):
        ws = clone(workspace, tmp_path)
        raw = (ws / "chain.jsonl").read_bytes()
        lines = raw.split(b"\n")
        line = bytearray(lines[2])
        line[20] = ord("~") if line[20] != ord("~") else ord("!")
        lines[2] = bytes(line)
        (ws / "chain.jsonl").write_bytes(b"\n".join(lines))
        res = run_cli("validate", cwd=ws)
        assert res.returncode == 1
        assert "INVALID block=2" in res.stdout

    @pytest.mark.parametrize(
        "field, value",
        [
            ("roles", []),
            ("initial_balances", [1]),
            ("account_keys", "keys"),
            ("authorities", {}),
            ("authorities", [["0x" + "1" * 40]]),
            ("authorities", [[1, 2]]),
            ("gas_params", []),
            ("gas_params", {"base_tx": "21000"}),
            ("gas_params", {"base_tx": True}),
            (None, b"\xff{"),  # the whole file, not UTF-8
            pytest.param(None, b"[" * 100000, id="nested-too-deeply"),
        ],
    )
    def test_malformed_genesis_is_corrupt_file(self, workspace, tmp_path, field, value):
        doc = json.loads((workspace["dir"] / "genesis.json").read_text())
        if field is None:
            raw = value
        else:
            doc[field] = value
            raw = json.dumps(doc).encode()
        (tmp_path / "genesis.json").write_bytes(raw)
        shutil.copy(workspace["dir"] / "chain.jsonl", tmp_path / "chain.jsonl")
        res = run_cli("validate", cwd=tmp_path)
        assert res.returncode == 1, res.stderr
        assert "error: corrupt file" in res.stderr
        assert "Traceback" not in res.stderr

    def test_torn_tail_is_named_and_left_alone(self, workspace, tmp_path):
        """A block append cut short: rule torn_tail, and the file is not truncated."""
        ws = clone(workspace, tmp_path)
        intact = (ws / "chain.jsonl").read_bytes()
        torn = intact + intact.split(b"\n")[-2][:40]
        (ws / "chain.jsonl").write_bytes(torn)
        res = run_cli("validate", cwd=ws)
        assert res.returncode == 1, res.stderr
        assert res.stdout == (
            f"INVALID block=5 rule=torn_tail detail=line 6 is an interrupted append; "
            f"truncate the file to {len(intact)} bytes to recover\n"
        )
        payload = qr.encode_payload(5, workspace["contract"], "P-100")
        res = run_cli("verify", "--qr", payload, cwd=ws)
        assert res.returncode == 1
        assert res.stderr.startswith("error: corrupt file: line 6: interrupted append")
        assert f"truncate the file to {len(intact)} bytes" in res.stderr
        assert "(`acprov repair` cuts safely: it takes the writers' lock" in res.stderr
        assert "Traceback" not in res.stderr
        assert (ws / "chain.jsonl").read_bytes() == torn

    def test_missing_chain_file_is_usage_error(self, workspace, tmp_path):
        shutil.copy(workspace["dir"] / "genesis.json", tmp_path / "genesis.json")
        res = run_cli("validate", cwd=tmp_path)
        assert res.returncode == 2


HUGE = "9" * 5000  # more digits than int() reads from a string


@pytest.mark.parametrize(
    "source, code, stderr",
    [
        ("genesis", 1, "error: corrupt file: line 1: genesis file: "),
        ("scenario", 2, "error: invalid scenario: "),
        ("qr", 2, "error: bad payload: chain_id field has 5000 digits\n"),
        ("chain", 1, "error: corrupt file: line 2: "),
        ("header", 1, "error: corrupt file: line 3: header has fields index, timestamp, "
                      "prev_hash, tx_root, sealer, state_root\n"),
    ],
    ids=["genesis", "scenario", "qr", "chain", "header"],
)
def test_a_misfit_input_is_named_without_traceback(workspace, tmp_path, source, code, stderr):
    """A JSON int longer than int() reads, in each input file or in a QR
    payload, and a chain header missing a member."""
    ws = clone(workspace, tmp_path)
    argv = ["history", "--id", "P-100"]
    chain = (ws / "chain.jsonl").read_bytes().split(b"\n")
    if source == "genesis":
        text = (ws / "genesis.json").read_text()
        (ws / "genesis.json").write_text(text.replace('"chain_id": 5', f'"chain_id": {HUGE}'))
    elif source == "scenario":
        (ws / "scenario.json").write_text(
            '{"seed": %s, "actors": {"authority": 1}, "products": 1}' % HUGE
        )
        argv = ["simulate", "--scenario", "scenario.json"]
    elif source == "qr":
        body = f"acp:v1:{HUGE}:{workspace['contract']}:P-100"
        argv = ["verify", "--qr", f"{body}:{qr.checksum(body.encode()):08x}"]
    elif source == "chain":
        chain[1] = chain[1].replace(b'"index":1,', b'"index":%s,' % HUGE.encode())
    else:
        block = json.loads(chain[2])
        del block["header"]["tx_root"]
        chain[2] = canonical_serialize(block)
    (ws / "chain.jsonl").write_bytes(b"\n".join(chain))
    res = run_cli(*argv, cwd=ws)
    assert res.returncode == code, res.stdout
    assert res.stderr.startswith(stderr), res.stderr
    assert "Traceback" not in res.stderr


def answers(ws, argvs, genesis="genesis.json"):
    """(exit code, stdout, stderr) of each command, in child processes."""
    results = []
    for argv in argvs:
        res = run_cli("--genesis", genesis, *argv, cwd=ws)
        results.append((res.returncode, res.stdout, res.stderr))
    return results


class TestSidecar:
    """verify and history answer exactly as a full replay does, whatever the sidecar holds."""

    def reads(self, workspace):
        payload = qr.encode_payload(5, workspace["contract"], "P-100")
        ghost = qr.encode_payload(5, workspace["contract"], "P-404")
        return [("verify", "--qr", payload), ("verify", "--qr", ghost),
                ("history", "--id", "P-100"), ("history", "--id", "P-404")]

    def without_sidecar(self, ws, argvs, genesis="genesis.json"):
        tip = ws / "chain.jsonl.tip"
        kept = tip.read_bytes() if tip.exists() else None
        results = []
        for argv in argvs:
            tip.unlink(missing_ok=True)
            results.extend(answers(ws, [argv], genesis))
        tip.unlink(missing_ok=True)
        if kept is not None:
            tip.write_bytes(kept)
        return results

    def with_sidecar(self, ws, argvs, sidecar, genesis="genesis.json"):
        results = []
        for argv in argvs:
            (ws / "chain.jsonl.tip").write_bytes(sidecar)
            results.extend(answers(ws, [argv], genesis))
        return results

    @pytest.mark.parametrize("spoil", ["tampered", "truncated", "foreign"])
    def test_spoiled_sidecar(self, workspace, tmp_path, spoil):
        ws = clone(workspace, tmp_path)
        reads = self.reads(workspace)
        answers(ws, reads[:1])
        good = (ws / "chain.jsonl.tip").read_bytes()
        if spoil == "tampered":
            sidecar = good.replace(b'"status":"unavailable"', b'"status":"available"')
            assert sidecar != good
        elif spoil == "truncated":
            sidecar = good[: len(good) // 2]
        else:  # a valid sidecar of the committed 50-block chain
            for name in ("genesis50.json", "chain50.jsonl"):
                shutil.copy(FIXTURES / name, tmp_path / name)
            genesis = ledger.GenesisConfig.load(tmp_path / "genesis50.json")
            ledger.open_store(tmp_path / "chain50.jsonl", genesis)
            sidecar = (tmp_path / "chain50.jsonl.tip").read_bytes()
        expected = self.without_sidecar(ws, reads)
        assert [code for code, _, _ in expected] == [0, 3, 0, 3]
        assert self.with_sidecar(ws, reads, sidecar) == expected

    def test_stale_sidecar_after_tx(self, workspace, tmp_path):
        ws = clone(workspace, tmp_path)
        reads = self.reads(workspace)
        answers(ws, reads[:1])
        stale = (ws / "chain.jsonl.tip").read_bytes()
        res = run_cli("tx", "transfer", "--key", "c.json", "--id", "P-100",
                      "--to", workspace["addresses"]["d"], cwd=ws)
        assert res.returncode == 1  # sold already: rejected, but sealed as block 5
        assert b'"index":5,' in (ws / "chain.jsonl.tip").read_bytes().split(b"\n")[0]  # tx's tip
        expected = self.without_sidecar(ws, reads)
        assert self.with_sidecar(ws, reads, stale) == expected
        assert b'"index":5,' in (ws / "chain.jsonl.tip").read_bytes().split(b"\n")[0]

    def test_tx_leaves_the_sidecar_at_its_tip(self, workspace, tmp_path, monkeypatch, capsys):
        """After a tx at a tip sidecar the sidecar is at the block tx wrote,
        so the next verify parses the tip's line alone, executes nothing
        and, in a child process, loads no signature library."""
        ws = clone(workspace, tmp_path)
        reads = self.reads(workspace)
        answers(ws, reads[:1])
        base = ["--db", str(ws / "chain.jsonl"), "--genesis", str(ws / "genesis.json")]
        assert cli.main(base + ["tx", "faucet", "--key", str(ws / "c.json")]) == 0
        assert json.loads(capsys.readouterr().out)["block_index"] == 5
        head = json.loads((ws / "chain.jsonl.tip").read_bytes().split(b"\n")[0])
        assert head["index"] == 5
        lines = count_calls(monkeypatch, ledger, "_parse_line")
        applied = count_calls(monkeypatch, registry, "apply_tx")
        assert cli.main(base + list(reads[0])) == 0
        assert (len(lines), applied) == (1, [])
        script = (
            "import sys; from acprov import cli; code = cli.main(sys.argv[1:]); "
            "print(code, 'cryptography' in sys.modules)"
        )
        res = subprocess.run(
            [sys.executable, "-c", script, *base, *reads[0]], capture_output=True, text=True, env=cli_env()
        )
        assert res.stdout.splitlines()[-1] == "0 False", res.stderr

    def test_other_genesis(self, workspace, tmp_path):
        """Same chain, other gas_params: the sidecar written under the real genesis is not used."""
        ws = clone(workspace, tmp_path)
        reads = self.reads(workspace)
        answers(ws, reads[:1])
        sidecar = (ws / "chain.jsonl.tip").read_bytes()
        doc = json.loads((ws / "genesis.json").read_text())
        doc["gas_params"]["base_tx"] += 1
        (ws / "other.json").write_text(json.dumps(doc))
        expected = self.without_sidecar(ws, reads, "other.json")
        assert all(code == 1 and "rule=state_root" in err for code, _, err in expected)
        assert self.with_sidecar(ws, reads, sidecar, "other.json") == expected

    def test_read_only_directory(self, workspace, tmp_path):
        """No sidecar can be written; every read still answers.  (Root may write
        anyway; test_ledger.py fails the writes themselves.)"""
        (tmp_path / "ro").mkdir()
        ws = clone(workspace, tmp_path / "ro")
        reads = self.reads(workspace)
        expected = self.without_sidecar(ws, reads)
        os.chmod(ws, 0o555)
        try:
            assert answers(ws, reads) == expected
            if os.geteuid() != 0:
                assert not (ws / "chain.jsonl.tip").exists()
        finally:
            os.chmod(ws, 0o755)

    def test_second_history_executes_nothing(self, workspace, tmp_path, monkeypatch, capsys):
        """At a tip sidecar a read parses the tip's line alone, and executes
        and verifies nothing."""
        ws = clone(workspace, tmp_path)
        argv = ["--db", str(ws / "chain.jsonl"), "--genesis", str(ws / "genesis.json"),
                "history", "--id", "P-100"]
        assert cli.main(argv) == 0
        first = capsys.readouterr()
        assert (ws / "chain.jsonl.tip").exists()
        monkeypatch.setattr(crypto, "_memo", {})
        lines = count_calls(monkeypatch, ledger, "_parse_line")
        applied = count_calls(monkeypatch, registry, "apply_tx")
        checks = count_calls(monkeypatch, crypto, "_check")
        assert cli.main(argv) == 0
        assert capsys.readouterr() == first
        assert (len(lines), applied, checks) == (1, [], [])

    def test_every_product_of_the_fixture(self, tmp_path, capsys):
        for name in ("genesis50.json", "chain50.jsonl"):
            shutil.copy(FIXTURES / name, tmp_path / name)
        genesis = ledger.GenesisConfig.load(tmp_path / "genesis50.json")
        store = ledger.load_chain(tmp_path / "chain50.jsonl", genesis)
        base = ["--db", str(tmp_path / "chain50.jsonl"), "--genesis", str(tmp_path / "genesis50.json")]
        tip = tmp_path / "chain50.jsonl.tip"
        ids = sorted(store.state.products) + ["GHOST-1"]
        assert len(ids) == 10
        for product_id in ids:
            payload = qr.encode_payload(genesis.chain_id, store.state.contract.address, product_id)
            for args in (["verify", "--qr", payload], ["history", "--id", product_id]):
                tip.unlink(missing_ok=True)
                replayed = cli.main(base + args), capsys.readouterr()
                assert tip.exists()
                assert (cli.main(base + args), capsys.readouterr()) == replayed
                assert replayed[0] == (3 if product_id == "GHOST-1" else 0)


@pytest.fixture(scope="module")
def fuzz_chain(tmp_path_factory):
    """The committed 50-block chain, and valid sidecars of other blocks and chains."""
    out = tmp_path_factory.mktemp("fuzz")
    for name in ("genesis50.json", "chain50.jsonl"):
        shutil.copy(FIXTURES / name, out / name)
    genesis = ledger.GenesisConfig.load(out / "genesis50.json")
    lines = (out / "chain50.jsonl").read_bytes().splitlines(keepends=True)
    others = []
    for k in (0, 17, 48):
        prefix = out / f"prefix{k}.jsonl"
        prefix.write_bytes(b"".join(lines[: k + 1]))
        ledger.open_store(prefix, genesis)
        others.append((out / f"prefix{k}.jsonl.tip").read_bytes())
    state = ledger.open_store(out / "chain50.jsonl", genesis).state
    good = (out / "chain50.jsonl.tip").read_bytes()
    ctx = simnet.Scenario(
        seed=4,
        actors={"manufacturer": 1, "distributor": 1, "retailer": 1, "consumer": 1, "authority": 1},
        products=1,
    )
    foreign = simnet.run_scenario(ctx, out / "foreign")
    ledger.open_store(foreign.chain_path, ledger.GenesisConfig.load(foreign.genesis_path))
    others.append(Path(str(foreign.chain_path) + ".tip").read_bytes())
    product_id = sorted(state.products)[0]
    payload = qr.encode_payload(genesis.chain_id, state.contract.address, product_id)
    reads = [["verify", "--qr", payload], ["history", "--id", product_id]]
    base = ["--db", str(out / "chain50.jsonl"), "--genesis", str(out / "genesis50.json")]
    return {"dir": out, "good": good, "others": others, "reads": reads, "base": base}


def flipped(raw: bytes, bits) -> bytes:
    data = bytearray(raw)
    for bit in bits:
        data[bit // 8 % len(data)] ^= 1 << (bit % 8)
    return bytes(data)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_fuzzed_sidecar_answers_as_a_replay(fuzz_chain, data):
    good = fuzz_chain["good"]
    sidecar = data.draw(
        st.one_of(
            st.binary(max_size=400),
            st.lists(st.integers(0, 8 * len(good) - 1), min_size=1, max_size=4).map(
                lambda bits: flipped(good, bits)
            ),
            st.sampled_from(fuzz_chain["others"]),
        )
    )
    tip = fuzz_chain["dir"] / "chain50.jsonl.tip"
    for args in fuzz_chain["reads"]:
        results = []
        for content in (None, sidecar):
            tip.unlink(missing_ok=True)
            if content is not None:
                tip.write_bytes(content)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(fuzz_chain["base"] + args)
            results.append((code, out.getvalue(), err.getvalue()))
        assert results[0] == results[1]
        code, _, err = results[1]
        assert code in (0, 1, 2, 3) and "Traceback" not in err


class TestSimulate:
    def test_runs_scenario_and_emits_valid_chain(self, tmp_path):
        scenario = simnet.Scenario(
            seed=3,
            actors={"manufacturer": 1, "distributor": 1, "retailer": 1, "consumer": 1, "authority": 1},
            products=1,
        )
        scenario.save(tmp_path / "scenario.json")
        res = run_cli(
            "simulate", "--scenario", "scenario.json", "--out", "sim",
            cwd=tmp_path,
        )
        assert res.returncode == 0, res.stderr
        check = run_cli(
            "--db", "sim/chain.jsonl", "--genesis", "sim/genesis.json", "validate",
            cwd=tmp_path,
        )
        assert check.returncode == 0, check.stdout

    def test_seed_override_changes_output(self, tmp_path):
        scenario = simnet.Scenario(
            seed=3,
            actors={"manufacturer": 1, "distributor": 1, "retailer": 1, "consumer": 1, "authority": 1},
            products=1,
        )
        scenario.save(tmp_path / "scenario.json")
        a = run_cli("simulate", "--scenario", "scenario.json", "--out", "a", cwd=tmp_path)
        b = run_cli("simulate", "--scenario", "scenario.json", "--seed", "4", "--out", "b", cwd=tmp_path)
        assert a.returncode == b.returncode == 0
        assert (tmp_path / "a/chain.jsonl").read_bytes() != (tmp_path / "b/chain.jsonl").read_bytes()

    def test_bad_scenario_file_is_usage_error(self, tmp_path):
        actors = {"manufacturer": 1, "authority": 1}
        for raw in (
            b"{not json",
            b"\xff",  # not UTF-8
            b"[" * 100000,  # deeper than the JSON decoder goes
            *(
                json.dumps(doc).encode()
                for doc in (
                    {"seed": 1, "actors": actors, "products": "9"},
                    {"seed": 1, "actors": ["manufacturer"], "products": 1},
                    {"seed": 1, "actors": actors, "products": 1, "tamper_plan": 5},
                    # a falsy value that is not a list is no plan either
                    *({"seed": 1, "actors": actors, "products": 1, "tamper_plan": plan}
                      for plan in (0, False, "", {})),
                    {"seed": 1, "actors": actors, "products": 1, "tamper_plan": [5]},
                    # a target past the chain's end, an offset past its line
                    {"seed": 1, "actors": actors, "products": 1,
                     "tamper_plan": [{"target": 99, "byte_offset": 0, "new_byte": 65}]},
                    {"seed": 1, "actors": actors, "products": 1,
                     "tamper_plan": [{"target": 1, "byte_offset": 10**6, "new_byte": 65}]},
                )
            ),
        ):
            (tmp_path / "scenario.json").write_bytes(raw)
            res = run_cli("simulate", "--scenario", "scenario.json", cwd=tmp_path)
            assert res.returncode == 2, raw
            assert "invalid scenario" in res.stderr and "Traceback" not in res.stderr, raw


class TestUnreadableInputs:
    """An input path that exists but cannot be read is a usage error, not a
    traceback: error: cannot read <path>: <reason>, exit 2."""

    COMMANDS = {
        "validate": ["validate"],
        "repair": ["repair"],
        "history": ["history", "--id", "P-100"],
        "verify": ["verify", "--qr", "{qr}"],
        "gas-report": ["gas-report"],
        "tx": ["tx", "faucet", "--key", "c.json"],
        "simulate": ["simulate", "--scenario", "scenario.json", "--out", "sim"],
    }
    CASES = [
        (command, flag)
        for command in ("validate", "repair", "history", "verify", "gas-report", "tx")
        for flag in ("--db", "--genesis")
    ] + [("tx", "--key"), ("simulate", "--scenario")]

    def argv(self, workspace, command, flag, path):
        args = ["--db", "chain.jsonl", "--genesis", "genesis.json"]
        qr_text = qr.encode_payload(5, workspace["contract"], "P-100")
        args += [arg.format(qr=qr_text) for arg in self.COMMANDS[command]]
        args[args.index(flag) + 1] = path
        return args

    @pytest.mark.parametrize("command, flag", CASES)
    def test_directory(self, workspace, tmp_path, monkeypatch, capsys, command, flag):
        clone(workspace, tmp_path)
        (tmp_path / "adir").mkdir()
        monkeypatch.chdir(tmp_path)
        code = cli.main(self.argv(workspace, command, flag, "adir"))
        out, err = capsys.readouterr()
        assert (code, out, err) == (2, "", "error: cannot read adir: Is a directory\n")

    def test_no_traceback_from_the_command_line(self, workspace, tmp_path):
        clone(workspace, tmp_path)
        (tmp_path / "adir").mkdir()
        for flag in ("--db", "--genesis"):
            res = run_cli(*self.argv(workspace, "validate", flag, "adir"), cwd=tmp_path)
            assert (res.returncode, res.stdout) == (2, "")
            assert res.stderr == "error: cannot read adir: Is a directory\n"

    @pytest.mark.skipif(os.geteuid() == 0, reason="root reads any file")
    def test_no_permission(self, workspace, tmp_path, monkeypatch, capsys):
        clone(workspace, tmp_path)
        (tmp_path / "chain.jsonl").chmod(0)
        monkeypatch.chdir(tmp_path)
        code = cli.main(self.argv(workspace, "validate", "--db", "chain.jsonl"))
        assert code == 2
        assert capsys.readouterr().err == "error: cannot read chain.jsonl: Permission denied\n"

    def test_missing_file_is_still_not_found(self, workspace, tmp_path, monkeypatch, capsys):
        clone(workspace, tmp_path)
        monkeypatch.chdir(tmp_path)
        assert cli.main(self.argv(workspace, "history", "--db", "nowhere.jsonl")) == 2
        assert capsys.readouterr().err == "error: file not found: nowhere.jsonl\n"



class TestUnwritableOutputs:
    """An output path that cannot be written is a usage error, not a
    traceback: error: cannot write <path>: <reason>, exit 2."""

    @pytest.mark.parametrize(
        "argv, path, reason",
        [
            (["gas-report", "--csv", "adir"], "adir", "Is a directory"),
            (["simulate", "--scenario", "scenario.json", "--out", "afile"], "afile", "File exists"),
            (["keygen", "--role", "consumer", "--out", "nowhere/k.json"], "nowhere/k.json",
             "No such file or directory"),
            (["--db", "new.jsonl", "--genesis", "nowhere/g.json", "init", "--authority", "auth.json"],
             "nowhere/g.json", "No such file or directory"),
        ],
        ids=["gas-report-csv-directory", "simulate-out-file", "keygen-out-missing-directory",
             "init-genesis-missing-directory"],
    )
    def test_output_path(self, workspace, tmp_path, monkeypatch, capsys, argv, path, reason):
        clone(workspace, tmp_path)
        (tmp_path / "adir").mkdir()
        (tmp_path / "afile").write_bytes(b"")
        simnet.Scenario(seed=1, actors={"manufacturer": 1, "authority": 1}, products=1).save(
            tmp_path / "scenario.json"
        )
        monkeypatch.chdir(tmp_path)
        code = cli.main(["--db", "chain.jsonl", "--genesis", "genesis.json", *argv])
        out, err = capsys.readouterr()
        assert (code, err) == (2, f"error: cannot write {path}: {reason}\n")
        assert (tmp_path / "afile").read_bytes() == b""
        assert not (tmp_path / "nowhere").exists() and not (tmp_path / "new.jsonl").exists()


def test_cold_commands_import_neither_simnet_nor_key_serialization():
    res = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, acprov.cli; print(sorted(m for m in ('acprov.simnet', "
            "'cryptography.hazmat.primitives.serialization') if m in sys.modules))",
        ],
        capture_output=True,
        text=True,
        env=cli_env(),
    )
    assert (res.returncode, res.stdout) == (0, "[]\n"), res.stderr


def test_a_tip_read_loads_no_signature_or_decimal_library(tmp_path, monkeypatch, capsys):
    """verify and history at a tip sidecar check no signature and format no
    money, so a child process that runs them imports neither cryptography
    nor decimal.  validate loads cryptography, and run here with no worker
    it checks each signature ledger._signatures lists once."""
    for name in ("genesis50.json", "chain50.jsonl"):
        shutil.copy(FIXTURES / name, tmp_path / name)
    genesis = ledger.GenesisConfig.load(tmp_path / "genesis50.json")
    state = ledger.open_store(tmp_path / "chain50.jsonl", genesis).state  # writes the tip sidecar
    product = sorted(state.products)[0]
    payload = qr.encode_payload(genesis.chain_id, state.contract.address, product)
    base = ["--db", str(tmp_path / "chain50.jsonl"), "--genesis", str(tmp_path / "genesis50.json")]
    script = (
        "import sys; from acprov import cli; code = cli.main(sys.argv[1:]); "
        "print(code, sorted({m.split('.')[0] for m in sys.modules} & {'cryptography', 'decimal'}))"
    )
    loaded = {}
    for args in (["verify", "--qr", payload], ["history", "--id", product], ["validate"]):
        res = subprocess.run(
            [sys.executable, "-c", script, *base, *args], capture_output=True, text=True, env=cli_env()
        )
        assert res.returncode == 0, res.stderr
        loaded[args[0]] = res.stdout.splitlines()[-1]
    assert loaded == {"verify": "0 []", "history": "0 []", "validate": "0 ['cryptography']"}

    monkeypatch.setattr(crypto, "_memo", {})
    monkeypatch.setattr(crypto, "_usable_cpus", lambda: 1)
    checks = count_calls(monkeypatch, crypto, "_check")
    assert cli.main(base + ["validate"]) == 0
    assert capsys.readouterr().out.startswith("OK blocks=50 ")
    blocks = ledger.parse_chain_bytes((tmp_path / "chain50.jsonl").read_bytes())
    listed = ledger._signatures(blocks[1:], genesis)
    assert len(listed) > len(blocks) - 1  # every seal, and the transactions' signatures
    assert sorted(checks) == sorted(listed)


class TestUsage:
    def test_no_command_is_usage_error(self, tmp_path):
        res = run_cli(cwd=tmp_path)
        assert res.returncode == 2

    def test_unknown_command_is_usage_error(self, tmp_path):
        res = run_cli("mine", cwd=tmp_path)
        assert res.returncode == 2
