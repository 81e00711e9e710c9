import importlib.util
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from acprov import canonical, crypto, gas, ledger, registry, simnet
from acprov.canonical import Record
from acprov.registry import Role, Status

import support

replace = Record.replace  # the record with the given fields changed

SMALL = simnet.Scenario(
    seed=7,
    actors={"manufacturer": 1, "distributor": 1, "retailer": 1, "consumer": 1, "authority": 2},
    products=2,
)
MAKE_FIXTURES = Path(__file__).parent.parent / "scripts" / "make_fixtures.py"


def load_make_fixtures():
    """scripts/make_fixtures.py as a module."""
    spec = importlib.util.spec_from_file_location("make_fixtures", MAKE_FIXTURES)
    make_fixtures = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_fixtures)
    return make_fixtures


LIFECYCLE = simnet.Scenario(
    seed=42,
    actors={"manufacturer": 1, "distributor": 1, "retailer": 1, "consumer": 1, "authority": 1},
    products=1,
)


class TestScenarioConfig:
    def test_save_load_round_trip(self, tmp_path):
        path = tmp_path / "scenario.json"
        SMALL.save(path)
        assert simnet.Scenario.load(path) == SMALL

    def test_tamper_plan_survives_the_file(self, tmp_path):
        scenario = replace(SMALL, tamper_plan=(simnet.Mutation(1, 4, 109),))
        scenario.save(tmp_path / "s.json")
        assert simnet.Scenario.load(tmp_path / "s.json") == scenario

    def test_manufacturer_required(self):
        bad = simnet.Scenario(seed=1, actors={"authority": 1, "consumer": 1}, products=1)
        with pytest.raises(simnet.ScenarioInvalidError):
            bad.validate()

    def test_authority_required(self):
        bad = simnet.Scenario(seed=1, actors={"manufacturer": 1}, products=1)
        with pytest.raises(simnet.ScenarioInvalidError):
            bad.validate()

    def test_unknown_role_rejected(self):
        bad = simnet.Scenario(
            seed=1, actors={"manufacturer": 1, "authority": 1, "wizard": 1}, products=1
        )
        with pytest.raises(simnet.ScenarioInvalidError):
            bad.validate()

    def test_unknown_file_field_rejected(self, tmp_path):
        doc = SMALL.to_canonical()
        doc["surprise"] = 1
        (tmp_path / "s.json").write_text(json.dumps(doc))
        with pytest.raises(simnet.ScenarioInvalidError):
            simnet.Scenario.load(tmp_path / "s.json")

    def test_fixture_files_save_back_byte_for_byte(self, fixtures_dir, tmp_path):
        genesis = ledger.GenesisConfig.load(fixtures_dir / "genesis50.json")
        genesis.save(tmp_path / "genesis.json")
        scenario = simnet.Scenario.load(fixtures_dir / "scenario50.json")
        scenario.save(tmp_path / "scenario.json")
        for name in ("genesis", "scenario"):
            saved = (tmp_path / f"{name}.json").read_bytes()
            assert saved == (fixtures_dir / f"{name}50.json").read_bytes()
        # and every trace line is a TraceEvent's canonical bytes
        for line in (fixtures_dir / "trace50.jsonl").read_bytes().splitlines():
            event = canonical._decode(simnet.TraceEvent, json.loads(line), "trace event")
            assert canonical.canonical_serialize(event.to_canonical()) == line

    def test_optional_members_may_be_left_out(self, fixtures_dir, tmp_path):
        actors = {"manufacturer": 1, "authority": 1}
        for doc in (
            {"seed": 3, "actors": actors, "products": 2},
            {"seed": -3, "actors": actors, "products": 2},
            {"seed": 3, "actors": actors, "products": 2, "tamper_plan": []},
        ):
            (tmp_path / "s.json").write_text(json.dumps(doc))
            scenario = simnet.Scenario.load(tmp_path / "s.json")
            assert (scenario.seed, scenario.steps, scenario.chain_id) == (doc["seed"], 10_000, 5)
            assert not scenario.tamper_plan
        doc = json.loads((fixtures_dir / "genesis50.json").read_text())
        doc["gas_params"] = {"base_tx": 30_000}
        (tmp_path / "g.json").write_text(json.dumps(doc))
        params = ledger.GenesisConfig.load(tmp_path / "g.json").gas_params
        assert params == replace(gas.GasParams(), base_tx=30_000)

    def test_actor_keys_are_seed_deterministic(self):
        a = simnet.actor_keypair(9, Role.MANUFACTURER, 0)
        b = simnet.actor_keypair(9, Role.MANUFACTURER, 0)
        c = simnet.actor_keypair(10, Role.MANUFACTURER, 0)
        assert a == b
        assert a != c


class TestDeterminism:
    def test_same_scenario_same_bytes(self, tmp_path):
        first = simnet.run_scenario(SMALL, tmp_path / "a")
        second = simnet.run_scenario(SMALL, tmp_path / "b")
        assert first.chain_path.read_bytes() == second.chain_path.read_bytes()
        assert first.trace_path.read_bytes() == second.trace_path.read_bytes()
        assert first.genesis_path.read_bytes() == second.genesis_path.read_bytes()

    def test_different_seed_different_chain(self, tmp_path):
        first = simnet.run_scenario(SMALL, tmp_path / "a")
        second = simnet.run_scenario(replace(SMALL, seed=8), tmp_path / "b")
        assert first.chain_path.read_bytes() != second.chain_path.read_bytes()


    def test_workers_change_no_byte(self, tmp_path, monkeypatch):
        """The signatures and state roots made in forked copies leave the
        files as an all-in-process run writes them."""
        runs = []
        for cpus, name in ((1, "alone"), (2, "workers")):
            monkeypatch.setattr(crypto, "_memo", {})
            monkeypatch.setattr(crypto, "_MIN_CHECKS_PER_WORKER", 1)
            monkeypatch.setattr(crypto, "_usable_cpus", lambda: cpus)
            forks = support.record_forks(monkeypatch)
            result = simnet.run_scenario(SMALL, tmp_path / name)
            # with a second CPU, a worker that signs the script and a
            # copy that commits its state roots
            assert len(forks) == (0 if cpus == 1 else 2)
            runs.append([path.read_bytes() for path in (
                result.genesis_path, result.chain_path, result.trace_path
            )])
        assert runs[0] == runs[1]

    def test_execution_checks_no_signature_it_made(self, tmp_path, monkeypatch):
        """Every signature a run checks, it made, and the memo holds those
        as valid: the run checks none and starts no verify worker.  A
        reader's memo is empty, so it checks each signature once."""
        monkeypatch.setattr(crypto, "_memo", {})
        monkeypatch.setattr(crypto, "_MIN_CHECKS_PER_WORKER", 1)
        monkeypatch.setattr(crypto, "_usable_cpus", lambda: 2)
        checked = support.count_calls(monkeypatch, crypto, "_check")
        ahead = [
            support.count_calls(monkeypatch, module, "verify_ahead")
            for module in (crypto, ledger, simnet)
            if hasattr(module, "verify_ahead")
        ]
        result = simnet.run_scenario(SMALL, tmp_path)
        assert checked == [] and not any(ahead)

        monkeypatch.setattr(crypto, "_memo", {})
        monkeypatch.setattr(crypto, "_usable_cpus", lambda: 1)
        ledger.load_chain(result.chain_path, result.genesis)
        signatures = {block.seal for block in result.blocks[1:]}
        signatures |= {tx.signature for block in result.blocks[1:] for tx in block.txs}
        assert sorted(signature for _, _, signature in checked) == sorted(signatures)

    def test_fixture_script_reproduces_the_committed_files(self, capsys):
        assert load_make_fixtures().check() == 0, capsys.readouterr().err

    def test_fixture_check_skips_a_tip_sidecar_only(self, tmp_path, monkeypatch, capsys):
        """A sidecar a read leaves next to the fixture chain is a cache,
        not a fixture; any other file the fixtures lack still fails."""
        make_fixtures = load_make_fixtures()
        fixtures = tmp_path / "fixtures"
        shutil.copytree(make_fixtures.FIXTURES, fixtures, ignore=shutil.ignore_patterns("*.tip"))
        monkeypatch.setattr(make_fixtures, "FIXTURES", fixtures)
        genesis = ledger.GenesisConfig.load(fixtures / "genesis50.json")
        ledger.open_store(fixtures / "chain50.jsonl", genesis)
        assert (fixtures / "chain50.jsonl.tip").is_file()
        assert make_fixtures.check() == 0, capsys.readouterr().err
        assert capsys.readouterr().out == "6 fixture files match\n"
        (fixtures / "extra.txt").write_text("stray\n")
        assert make_fixtures.check() == 1
        assert "extra.txt: present in only one of the two sets" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "script", [["make_fixtures.py", "--check"], ["calibrate_gas_price.py"]], ids=lambda s: s[0]
    )
    def test_scripts_run_from_the_checkout_alone(self, script):
        """The README runs the scripts from the repository root, with no
        PYTHONPATH and no installed acprov needed."""
        env = {name: value for name, value in os.environ.items() if name != "PYTHONPATH"}
        root = MAKE_FIXTURES.resolve().parents[1]
        command = [sys.executable, str(Path("scripts") / script[0]), *script[1:]]
        res = subprocess.run(command, cwd=root, env=env, capture_output=True, text=True)
        assert res.returncode == 0, res.stderr


FIXTURE_SCENARIO = simnet.Scenario.load(Path(__file__).parent / "fixtures" / "scenario50.json")
ROOTS_IN_ORDER = ledger._roots_in_order


def roots_then(count, end):
    """A roots copy that writes the first count roots, then calls end."""

    def work(genesis, base, state, blocks, slots, positions):
        ROOTS_IN_ORDER(genesis, base, state, blocks[:count], slots, positions)
        end()

    return work


class TestRootsAhead:
    """run_scenario commits its state roots in a forked copy (ledger.extend_plan)."""

    def run(self, scenario, out, monkeypatch, cpus):
        """(the files, the roots the caller computed, the forks) of one run."""
        monkeypatch.setattr(crypto, "_MIN_CHECKS_PER_WORKER", 1)
        monkeypatch.setattr(crypto, "_usable_cpus", lambda: cpus)
        forks = support.record_forks(monkeypatch)
        if cpus > 1:
            support.copies_exit_first(monkeypatch, forks)
        roots = support.count_calls(monkeypatch, registry, "state_commitment")
        result = simnet.run_scenario(scenario, out)
        files = [path.read_bytes() for path in (
            result.genesis_path, result.chain_path, result.trace_path
        )]
        support.assert_reaped(forks)
        return files, len(roots), len(forks)

    @pytest.mark.parametrize("scenario", [SMALL, FIXTURE_SCENARIO], ids=["small", "fixture"])
    def test_a_copy_writes_the_bytes_of_one_cpu(self, tmp_path, monkeypatch, scenario):
        alone, roots, forks = self.run(scenario, tmp_path / "alone", monkeypatch, 1)
        blocks = len(alone[1].splitlines())
        assert (roots, forks) == (blocks, 0)
        # the caller computes the genesis root only; the copy, every other
        assert self.run(scenario, tmp_path / "copy", monkeypatch, 2) == (alone, 1, 2)

    @pytest.mark.parametrize(
        "count, end",
        [
            (0, lambda: os._exit(0)),
            (20, lambda: None),
            (20, lambda: os.kill(os.getpid(), signal.SIGKILL)),
        ],
        ids=["exits_at_once", "exits_after_20", "killed_after_20"],
    )
    def test_a_failed_copy_has_the_rest_computed_here(self, tmp_path, monkeypatch, count, end):
        alone, _, _ = self.run(FIXTURE_SCENARIO, tmp_path / "alone", monkeypatch, 1)
        blocks = len(alone[1].splitlines())
        monkeypatch.setattr(ledger, "_roots_in_order", roots_then(count, end))
        files, roots, _ = self.run(FIXTURE_SCENARIO, tmp_path / "copy", monkeypatch, 2)
        assert files == alone
        assert roots == blocks - count


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("simnet")
    return simnet.run_scenario(SMALL, out)


@pytest.fixture(scope="module")
def lifecycle_run(tmp_path_factory):
    return simnet.run_scenario(LIFECYCLE, tmp_path_factory.mktemp("lifecycle"))


class TestRunOutputs:

    def test_chain_validates(self, small_run):
        genesis = ledger.GenesisConfig.load(small_run.genesis_path)
        chain = ledger.load_chain(small_run.chain_path, genesis)
        assert chain.blocks == small_run.blocks
        assert chain.blocks[-1].header.state_root == small_run.tip_commitment

    def test_batching_respects_block_size(self, small_run):
        sizes = [len(b.txs) for b in small_run.blocks[1:]]
        assert max(sizes) <= SMALL.txs_per_block
        assert any(size > 1 for size in sizes), "batching never happened"

    def test_every_registered_product_ends_sold(self, small_run):
        for record in small_run.final_state.products.values():
            assert record.status == Status.UNAVAILABLE, f"{record.product_id} unsold"
            assert len(record.history) >= 2

    def test_trace_is_canonical_json_lines(self, small_run):
        import json

        for line in small_run.trace_path.read_bytes().splitlines():
            doc = json.loads(line)
            encoded = json.dumps(
                doc, sort_keys=True, separators=(",", ":"), ensure_ascii=False
            ).encode()
            assert encoded == line, "trace line is not canonically encoded"

    def test_each_sealed_transaction_executes_once(self, tmp_path, monkeypatch):
        calls = []
        apply_tx = registry.apply_tx

        def counting(state, tx, ctx):
            calls.append(tx)
            return apply_tx(state, tx, ctx)

        monkeypatch.setattr(registry, "apply_tx", counting)
        result = simnet.run_scenario(SMALL, tmp_path / "once")
        assert calls == [tx for block in result.blocks for tx in block.txs]

    def test_steps_caps_total_transactions(self, tmp_path):
        capped = replace(SMALL, steps=3)
        result = simnet.run_scenario(capped, tmp_path / "capped")
        total = sum(len(b.txs) for b in result.blocks)
        assert total == 3


class TestLifecycle:

    def test_full_history_and_final_status(self, lifecycle_run):
        record = lifecycle_run.final_state.products["P-001"]
        actors = simnet.scenario_actors(LIFECYCLE)
        expected = tuple(
            actors[role][0].address
            for role in (Role.MANUFACTURER, Role.DISTRIBUTOR, Role.RETAILER, Role.CONSUMER)
        )
        assert record.history == expected
        assert record.status == Status.UNAVAILABLE

    def test_verify_trace_event_matches_state(self, lifecycle_run):
        verifies = [e for e in lifecycle_run.trace if e.action == "verify"]
        assert len(verifies) == 1
        outcome = verifies[0].outcome
        record = lifecycle_run.final_state.products["P-001"]
        assert outcome["exists"] is True
        assert outcome["status"] == "unavailable"
        assert tuple(outcome["history"]) == record.history

    def test_second_sell_would_be_rejected(self, lifecycle_run):
        record = lifecycle_run.final_state.products["P-001"]
        seller = record.history[-2]  # the retailer who completed the sale
        err = registry.transition_error(
            lifecycle_run.final_state,
            seller,
            registry.Sell(product_id="P-001", consumer=record.current_owner),
        )
        assert err == registry.PRODUCT_UNAVAILABLE

    def test_counterfeit_probe(self, lifecycle_run):
        assert "FAKE-999" not in lifecycle_run.final_state.products


class TestMutations:
    def test_apply_mutations_changes_exactly_one_byte(self, tmp_path):
        result = simnet.run_scenario(SMALL, tmp_path / "m")
        pristine = result.chain_path.read_bytes()
        lines = pristine.split(b"\n")
        target, offset = 1, 10
        new_byte = (lines[target][offset] + 1) % 256
        simnet.apply_mutations(result.chain_path, [simnet.Mutation(target, offset, new_byte)])
        mutated = result.chain_path.read_bytes()
        diffs = [i for i, (a, b) in enumerate(zip(pristine, mutated)) if a != b]
        assert len(pristine) == len(mutated)
        assert len(diffs) == 1

    def test_mutation_target_bounds(self, tmp_path):
        result = simnet.run_scenario(SMALL, tmp_path / "m")
        with pytest.raises(ValueError):
            simnet.apply_mutations(result.chain_path, [simnet.Mutation(9_999, 0, 1)])
        with pytest.raises(ValueError):
            simnet.apply_mutations(result.chain_path, [simnet.Mutation(0, 10**6, 1)])

    def test_tamper_plan_breaks_validation_at_the_block(self, tmp_path):
        honest = simnet.run_scenario(SMALL, tmp_path / "honest")
        line = honest.chain_path.read_bytes().split(b"\n")[2]
        offset = 14
        new_byte = ord("~") if line[offset] != ord("~") else ord("!")
        tampered_scenario = replace(
            SMALL, tamper_plan=(simnet.Mutation(2, offset, new_byte),)
        )
        result = simnet.run_scenario(tampered_scenario, tmp_path / "tampered")
        genesis = ledger.GenesisConfig.load(result.genesis_path)
        assert support.first_offense(result.chain_path, genesis) == 2


class TestCostModelChain:
    def test_chain_validates_and_has_one_tx_per_category(self):
        genesis, blocks, _ = simnet.build_cost_model_chain()
        report = support.validate_blocks(blocks, genesis)
        assert report.ok, f"{report.rule}: {report.detail}"
        kinds = [type(tx.kind).__name__ for b in blocks for tx in b.txs]
        assert kinds == ["Deploy", "Register", "Sell"]

    def test_candidate_price_flows_through(self):
        _, blocks, _ = simnet.build_cost_model_chain(gas_price=2 * 10**9)
        prices = {tx.gas_price for b in blocks for tx in b.txs}
        assert prices == {2 * 10**9}
