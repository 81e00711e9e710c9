import fcntl
import hashlib
import json
import os
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from acprov import canonical, cli, crypto, gas, ledger, registry
from acprov.canonical import Record, from_hex
from acprov.registry import Deploy, FaucetClaim, Register, Transfer

import support

replace = Record.replace  # the record with the given fields changed

PRICE = 10**9


def authority_key_map(genesis, keys):
    by_addr = {kp.address: kp for kp in keys.values()}
    return {addr: by_addr[addr] for addr in genesis.authority_addresses}


def extend(store, keys, txs, timestamp):
    """Seal txs into the next block of store with the due authority."""
    genesis = store.genesis
    due = genesis.sealer_of(store.tip.index + 1)
    return ledger.extend(store, txs, authority_key_map(genesis, keys)[due], timestamp)


def walked(blocks, genesis):
    """The state and gas totals after the last of blocks, replayed from block 0."""
    return ledger._replay(blocks[0].header, blocks[1:], genesis, ledger.genesis_state(genesis), gas.NO_GAS)


def state_after(blocks, genesis):
    """The state after the last of blocks, replayed from block 0."""
    return walked(blocks, genesis)[0]


def chain_of(path):
    """The blocks of the chain file at path."""
    return ledger.parse_chain_bytes(Path(path).read_bytes())


def held(store):
    """What a store holds of its chain: the tip header, the state and the gas totals."""
    return store.tip, store.state, store.gas


@pytest.fixture()
def chain(genesis, keys, tmp_path):
    """Five sealed blocks on top of genesis, all accepted transactions."""
    m, d, c = keys["manufacturer"], keys["distributor"], keys["consumer"]
    store = ledger.create_store(tmp_path / "fixture-chain.jsonl", genesis)
    blocks = [ledger.genesis_block(genesis)]
    for txs, timestamp in (
        ([registry.make_tx(m, 5, 0, Deploy(code_size=100), PRICE)], 10),
        ([registry.make_tx(m, 5, 1, Register(product_id="P-001", name="W", metadata=""), PRICE)], 20),
        ([registry.make_tx(c, 5, 0, FaucetClaim(), PRICE)], 30),
        ([registry.make_tx(m, 5, 2, Transfer(product_id="P-001", new_owner=d.address), PRICE)], 40),
        ([registry.make_tx(d, 5, 0, FaucetClaim(), PRICE),
          registry.make_tx(c, 5, 1, FaucetClaim(), PRICE)], 90_000),
    ):
        block, receipts = extend(store, keys, txs, timestamp)
        assert all(r.accepted for r in receipts)
        blocks.append(block)
    return blocks, store.state


class TestTxRoot:
    def test_empty_root_is_empty_digest(self):
        assert ledger.tx_root_of(()) == "0x" + hashlib.sha256(b"").hexdigest()
        assert ledger.EMPTY_TX_ROOT == ledger.tx_root_of(())

    def test_fold_recomputed_by_hand(self, keys):
        txs = [
            registry.make_tx(keys["manufacturer"], 5, 0, FaucetClaim(), PRICE),
            registry.make_tx(keys["consumer"], 5, 0, Deploy(code_size=3), PRICE),
        ]
        acc = hashlib.sha256(b"").digest()
        for tx in txs:
            acc = hashlib.sha256(acc + from_hex(canonical.hash_obj(tx.to_canonical()))).digest()
        assert ledger.tx_root_of(txs) == "0x" + acc.hex()

    def test_order_matters(self, keys):
        a = registry.make_tx(keys["manufacturer"], 5, 0, FaucetClaim(), PRICE)
        b = registry.make_tx(keys["consumer"], 5, 0, FaucetClaim(), PRICE)
        assert ledger.tx_root_of([a, b]) != ledger.tx_root_of([b, a])


class TestGenesisConfig:
    def test_save_load_round_trip(self, genesis, tmp_path):
        path = tmp_path / "genesis.json"
        genesis.save(path)
        assert ledger.GenesisConfig.load(path) == genesis

    def test_save_is_deterministic(self, genesis, tmp_path):
        genesis.save(tmp_path / "a.json")
        genesis.save(tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_validate_requires_authorities(self):
        with pytest.raises(ValueError):
            ledger.GenesisConfig(authorities=()).validate()

    def test_validate_checks_authority_key_binding(self, genesis, keys):
        wrong = ((keys["authority"].address, keys["authority_b"].public_key),)
        bad = replace(genesis, authorities=wrong)
        with pytest.raises(ValueError):
            bad.validate()

    def test_validate_checks_account_key_binding(self, genesis, keys):
        bad_keys = dict(genesis.account_keys)
        bad_keys[keys["consumer"].address] = keys["manufacturer"].public_key
        bad = replace(genesis, account_keys=bad_keys)
        with pytest.raises(ValueError):
            bad.validate()


class TestGenesisBlock:
    def test_shape(self, genesis):
        block = ledger.genesis_block(genesis)
        h = block.header
        assert h.index == 0
        assert h.prev_hash == canonical.ZERO_HASH
        assert h.tx_root == ledger.EMPTY_TX_ROOT
        assert h.sealer == genesis.authority_addresses[0]
        assert block.seal == ledger.ZERO_SEAL
        assert block.txs == ()
        assert h.state_root == registry.state_commitment(ledger.genesis_state(genesis))

    def test_deterministic(self, genesis):
        assert ledger.genesis_block(genesis) == ledger.genesis_block(genesis)


class TestSealing:
    def test_round_robin_schedule(self, genesis, chain):
        blocks, _ = chain
        due = [
            genesis.authority_addresses[b.header.index % 3] for b in blocks[1:]
        ]
        assert [b.header.sealer for b in blocks[1:]] == due

    def refused(self, genesis, tmp_path, sealer_key, timestamp):
        """(index, rule) of the block extend refuses to append to the chain
        fixture's file, which must be left as it was."""
        store = ledger.open_store(tmp_path / "fixture-chain.jsonl", genesis)
        before = store.path.read_bytes()
        with pytest.raises(ledger.ValidationFailedError) as err:
            ledger.extend(store, [], sealer_key, timestamp)
        assert store.path.read_bytes() == before and store.tip.index == 5
        return err.value.report.block_index, err.value.report.rule

    def test_non_authority_cannot_seal(self, genesis, keys, chain, tmp_path):
        assert self.refused(genesis, tmp_path, keys["manufacturer"], 99_999) == (
            6, ledger.RULE_SEALER
        )

    def test_out_of_turn_authority_rejected(self, genesis, keys, chain, tmp_path):
        blocks, _ = chain
        index = blocks[-1].header.index + 1
        due = genesis.authority_addresses[index % 3]
        wrong = next(
            keys[t] for t in ("authority", "authority_b", "authority_c")
            if keys[t].address != due
        )
        assert self.refused(genesis, tmp_path, wrong, 99_999) == (6, ledger.RULE_SEALER)

    def test_clock_regression_rejected(self, genesis, keys, chain, tmp_path):
        blocks, _ = chain
        index = blocks[-1].header.index + 1
        due_key = authority_key_map(genesis, keys)[genesis.authority_addresses[index % 3]]
        timestamp = blocks[-1].header.timestamp - 1
        assert self.refused(genesis, tmp_path, due_key, timestamp) == (
            6, ledger.RULE_TIMESTAMP
        )

    def test_equal_timestamp_is_allowed(self, genesis, keys, chain):
        blocks, state = chain
        index = blocks[-1].header.index + 1
        due_key = authority_key_map(genesis, keys)[genesis.authority_addresses[index % 3]]
        block = ledger.seal_block(
            [], blocks[-1].header, registry.state_commitment(state),
            due_key, blocks[-1].header.timestamp,
        )
        assert support.validate_blocks(blocks + [block], genesis).ok


class TestValidation:
    def reseal(self, genesis, keys, header):
        key = authority_key_map(genesis, keys)[header.sealer]
        return key.sign(from_hex(ledger.header_hash(header)))

    def test_intact_chain_passes(self, genesis, chain):
        blocks, _ = chain
        report = support.validate_blocks(blocks, genesis)
        assert report.ok, f"{report.rule}: {report.detail}"

    def test_genesis_mismatch(self, genesis, chain):
        blocks, _ = chain
        forged = replace(blocks[0], header=replace(blocks[0].header, timestamp=7))
        report = support.validate_blocks([forged] + blocks[1:], genesis)
        assert (report.ok, report.block_index, report.rule) == (False, 0, ledger.RULE_GENESIS)

    def test_empty_chain_fails(self, genesis, tmp_path):
        (tmp_path / "chain.jsonl").write_bytes(b"")
        with pytest.raises(ledger.ParseError, match="genesis block required"):
            ledger.load_chain(tmp_path / "chain.jsonl", genesis)

    def test_index_rule(self, genesis, chain):
        blocks, _ = chain
        bad = replace(blocks[2], header=replace(blocks[2].header, index=9))
        report = support.validate_blocks(blocks[:2] + [bad], genesis)
        assert (report.block_index, report.rule) == (2, ledger.RULE_INDEX)

    def test_timestamp_rule(self, genesis, keys, chain):
        blocks, _ = chain
        h = replace(blocks[2].header, timestamp=blocks[1].header.timestamp - 1)
        bad = replace(blocks[2], header=h, seal=self.reseal(genesis, keys, h))
        report = support.validate_blocks(blocks[:2] + [bad], genesis)
        assert (report.block_index, report.rule) == (2, ledger.RULE_TIMESTAMP)

    def test_linkage_rule(self, genesis, keys, chain):
        blocks, _ = chain
        h = replace(blocks[2].header, prev_hash=canonical.ZERO_HASH)
        bad = replace(blocks[2], header=h, seal=self.reseal(genesis, keys, h))
        report = support.validate_blocks(blocks[:2] + [bad], genesis)
        assert (report.block_index, report.rule) == (2, ledger.RULE_LINKAGE)

    def test_sealer_rule(self, genesis, keys, chain):
        blocks, _ = chain
        wrong = genesis.authority_addresses[(blocks[2].header.index + 1) % 3]
        h = replace(blocks[2].header, sealer=wrong)
        bad = replace(blocks[2], header=h, seal=self.reseal(genesis, keys, h))
        report = support.validate_blocks(blocks[:2] + [bad], genesis)
        assert (report.block_index, report.rule) == (2, ledger.RULE_SEALER)

    def test_seal_rule(self, genesis, chain):
        blocks, _ = chain
        seal = blocks[2].seal
        flipped = seal[:-1] + ("0" if seal[-1] != "0" else "1")
        bad = replace(blocks[2], seal=flipped)
        report = support.validate_blocks(blocks[:2] + [bad], genesis)
        assert (report.block_index, report.rule) == (2, ledger.RULE_SEAL)

    def test_tx_root_rule(self, genesis, keys, chain):
        blocks, _ = chain
        h = replace(blocks[1].header, tx_root=ledger.EMPTY_TX_ROOT)
        bad = replace(blocks[1], header=h, seal=self.reseal(genesis, keys, h))
        report = support.validate_blocks([blocks[0], bad], genesis)
        assert (report.block_index, report.rule) == (1, ledger.RULE_TX_ROOT)

    def test_tx_signature_rule(self, genesis, keys):
        blocks = [ledger.genesis_block(genesis)]
        tx = registry.make_tx(keys["manufacturer"], 5, 0, Deploy(code_size=5), PRICE)
        corrupt = registry.TxEnvelope(
            sender=tx.sender, nonce=tx.nonce, kind=tx.kind,
            gas_price=tx.gas_price, signature="0x" + "0" * 128,
        )
        sealer = authority_key_map(genesis, keys)[genesis.authority_addresses[1]]
        bad = ledger.seal_block(
            [corrupt], blocks[0].header, blocks[0].header.state_root, sealer, 10,
        )
        report = support.validate_blocks(blocks + [bad], genesis)
        assert (report.block_index, report.rule) == (1, ledger.RULE_TX_SIGNATURE)

    def test_tx_nonce_rule(self, genesis, keys):
        blocks = [ledger.genesis_block(genesis)]
        tx = registry.make_tx(keys["manufacturer"], 5, 3, Deploy(code_size=5), PRICE)
        sealer = authority_key_map(genesis, keys)[genesis.authority_addresses[1]]
        bad = ledger.seal_block(
            [tx], blocks[0].header, blocks[0].header.state_root, sealer, 10,
        )
        report = support.validate_blocks(blocks + [bad], genesis)
        assert (report.block_index, report.rule) == (1, ledger.RULE_TX_NONCE)

    def test_state_root_rule(self, genesis, keys):
        blocks = [ledger.genesis_block(genesis)]
        tx = registry.make_tx(keys["manufacturer"], 5, 0, Deploy(code_size=5), PRICE)
        sealer = authority_key_map(genesis, keys)[genesis.authority_addresses[1]]
        bad = ledger.seal_block(
            [tx], blocks[0].header, blocks[0].header.state_root, sealer, 10,
        )
        report = support.validate_blocks(blocks + [bad], genesis)
        assert (report.block_index, report.rule) == (1, ledger.RULE_STATE_ROOT)

    def test_replay_receipts_line_up_with_blocks(self, genesis, chain, tmp_path):
        blocks, state = chain
        loaded = ledger.load_chain(tmp_path / "fixture-chain.jsonl", genesis)
        assert registry.state_commitment(loaded.state) == registry.state_commitment(state)
        assert sum(count for count, _, _ in loaded.gas.values()) == sum(len(b.txs) for b in blocks)


class TestStore:
    def test_create_writes_exactly_genesis(self, genesis, tmp_path):
        store = ledger.create_store(tmp_path / "chain.jsonl", genesis)
        raw = (tmp_path / "chain.jsonl").read_bytes()
        assert raw == ledger.block_line(ledger.genesis_block(genesis))
        assert store.tip.index == 0
        assert (store.size, store.digest.digest()) == (len(raw), hashlib.sha256(raw).digest())

    def test_create_refuses_existing_file(self, genesis, tmp_path):
        path = tmp_path / "chain.jsonl"
        path.write_text("junk")
        with pytest.raises(ledger.StorageError):
            ledger.create_store(path, genesis)

    def test_append_load_round_trip(self, genesis, keys, chain, tmp_path):
        blocks, state = chain
        path = tmp_path / "chain.jsonl"
        ledger.create_store(path, genesis)
        with open(path, "ab") as f:
            f.writelines(ledger.block_line(b) for b in blocks[1:])

        loaded = ledger.load_chain(path, genesis)
        assert chain_of(path) == blocks and loaded.tip == blocks[-1].header
        assert loaded.tip.state_root == registry.state_commitment(state)
        assert sum(count for count, _, _ in loaded.gas.values()) == sum(len(b.txs) for b in blocks)

    def test_load_rejects_a_skipped_block(self, genesis, keys, chain, tmp_path):
        blocks, _ = chain
        path = tmp_path / "chain.jsonl"
        path.write_bytes(ledger.block_line(blocks[0]) + ledger.block_line(blocks[2]))
        with pytest.raises(ledger.ValidationFailedError) as err:
            ledger.load_chain(path, genesis)
        assert (err.value.report.block_index, err.value.report.rule) == (1, ledger.RULE_INDEX)


    def test_second_writer_is_refused(self, genesis, keys, tmp_path):
        """Two stores loaded from one file: only the first append lands."""
        path = tmp_path / "chain.jsonl"
        ledger.create_store(path, genesis)
        first, second = ledger.open_store(path, genesis), ledger.open_store(path, genesis)
        extend(first, keys, [registry.make_tx(keys["manufacturer"], 5, 0, FaucetClaim(), PRICE)], 10)
        written = path.read_bytes()
        with pytest.raises(ledger.StorageError, match="another writer"):
            extend(second, keys, [registry.make_tx(keys["consumer"], 5, 0, FaucetClaim(), PRICE)], 10)
        assert path.read_bytes() == written and second.tip.index == 0
        assert ledger.load_chain(path, genesis).tip == first.tip
        # the first writer still knows the file and appends on
        extend(first, keys, [registry.make_tx(keys["consumer"], 5, 0, FaucetClaim(), PRICE)], 20)
        assert ledger.load_chain(path, genesis).tip == first.tip

    @pytest.mark.parametrize("reader", ["load_chain", "open_store", "validate"])
    def test_a_read_waits_for_an_append_in_progress(self, genesis, chain, tmp_path, capsys, reader):
        """A forked writer holds the exclusive lock over half of the last line;
        the read waits for the lock and then sees the whole line."""
        blocks, state = chain
        path = tmp_path / "chain.jsonl"
        path.write_bytes(b"".join(ledger.block_line(b) for b in blocks[:-1]))
        genesis.save(tmp_path / "genesis.json")
        line = ledger.block_line(blocks[-1])
        ready_r, ready_w = os.pipe()
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                fd = os.open(path, os.O_WRONLY | os.O_APPEND)
                fcntl.flock(fd, fcntl.LOCK_EX)
                os.write(fd, line[: len(line) // 2])
                os.write(ready_w, b"1")
                time.sleep(0.3)
                os.write(fd, line[len(line) // 2 :])
                code = 0
            finally:
                os._exit(code)
        os.close(ready_w)
        try:
            assert os.read(ready_r, 1) == b"1"
            started = time.monotonic()
            if reader == "load_chain":
                loaded = ledger.load_chain(path, genesis)
                assert (loaded.tip, loaded.state) == (blocks[-1].header, state)
            elif reader == "open_store":
                assert ledger.open_store(path, genesis).state == state
            else:
                argv = ["--db", str(path), "--genesis", str(tmp_path / "genesis.json"), "validate"]
                assert cli.main(argv) == cli.EXIT_OK, capsys.readouterr().out
            waited = time.monotonic() - started
        finally:
            os.close(ready_r)
            support.wait_for_exit(pid)
            _, status = os.waitpid(pid, 0)
        assert status == 0
        assert waited >= 0.1

    def test_a_read_of_a_missing_file_is_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ledger.read_chain(tmp_path / "absent.jsonl")


class TestExtend:
    def test_store_matches_a_fresh_load(self, genesis, keys, tmp_path):
        store = ledger.create_store(tmp_path / "chain.jsonl", genesis)
        m, c = keys["manufacturer"], keys["consumer"]
        block, receipts = extend(store, keys, [
            registry.make_tx(m, 5, 0, Deploy(code_size=100), PRICE),
            registry.make_tx(c, 5, 0, Deploy(code_size=100), PRICE),  # rejected, still sealed
        ], 10)
        assert [r.error for r in receipts] == [None, registry.ALREADY_DEPLOYED]
        assert store.tip == block.header
        assert store.gas == gas.tally(gas.NO_GAS, block.txs, receipts)
        assert held(ledger.load_chain(store.path, genesis)) == held(store)
        assert block.header.state_root == registry.state_commitment(store.state)
        raw = store.path.read_bytes()
        assert (store.size, store.digest.digest()) == (len(raw), hashlib.sha256(raw).digest())

    def test_appends_after_a_last_block_without_newline(self, genesis, keys, tmp_path):
        """Loading accepts a complete last block without its newline; the
        next append must not run onto that line."""
        path = tmp_path / "chain.jsonl"
        store = ledger.create_store(path, genesis)
        extend(store, keys, [registry.make_tx(keys["manufacturer"], 5, 0, FaucetClaim(), PRICE)], 10)
        path.write_bytes(path.read_bytes()[:-1])
        store = ledger.open_store(path, genesis)
        extend(store, keys, [registry.make_tx(keys["consumer"], 5, 0, FaucetClaim(), PRICE)], 20)
        raw = path.read_bytes()
        assert (store.size, store.digest.digest()) == (len(raw), hashlib.sha256(raw).digest())
        assert held(ledger.load_chain(path, genesis)) == held(store) and store.tip.index == 2

    def test_schedule_errors_write_nothing(self, genesis, keys, tmp_path):
        store = ledger.create_store(tmp_path / "chain.jsonl", genesis)
        before = store.path.read_bytes()
        tx = registry.make_tx(keys["manufacturer"], 5, 0, FaucetClaim(), PRICE)
        for sealer in (keys["manufacturer"], keys["authority"]):  # block 1 is authority_b's
            with pytest.raises(ledger.ValidationFailedError) as err:
                ledger.extend(store, [tx], sealer, 10)
            assert (err.value.report.block_index, err.value.report.rule) == (1, ledger.RULE_SEALER)
        assert store.path.read_bytes() == before and store.tip.index == 0 and store.gas is gas.NO_GAS

    @pytest.mark.parametrize("role", ["sender", "sealer"])
    def test_mismatched_key_is_refused_and_writes_nothing(self, genesis, keys, tmp_path, role):
        """A secret key that does not match its public key would seal an invalid block."""
        store = ledger.create_store(tmp_path / "chain.jsonl", genesis)
        before = store.path.read_bytes()
        sender, sealer = keys["manufacturer"], keys["authority_b"]  # authority_b seals block 1
        wrong_secret = keys["retailer"].secret_key
        if role == "sender":
            sender = replace(sender, secret_key=wrong_secret)
        else:
            sealer = replace(sealer, secret_key=wrong_secret)
        tx = registry.make_tx(sender, 5, 0, FaucetClaim(), PRICE)
        with pytest.raises(ledger.ValidationFailedError) as err:
            ledger.extend(store, [tx], sealer, 10)
        rule = ledger.RULE_TX_SIGNATURE if role == "sender" else ledger.RULE_SEAL
        assert (err.value.report.block_index, err.value.report.rule) == (1, rule)
        assert store.path.read_bytes() == before
        assert store.tip.index == 0 and store.state == ledger.genesis_state(genesis)


class TestShortWrite:
    """A write cut short (a full disk, say) leaves no torn line behind."""

    @pytest.fixture()
    def half_writes(self, monkeypatch):
        write = os.write
        monkeypatch.setattr(ledger.os, "write", lambda fd, data: write(fd, data[: len(data) // 2]))
        return monkeypatch

    def test_an_append_is_cut_off_and_the_store_kept(self, genesis, keys, store, half_writes):
        before = store.path.read_bytes()
        kept = (store.tip, store.state, store.size, store.digest.digest())
        tx = registry.make_tx(keys["retailer"], 5, 0, FaucetClaim(), PRICE)
        with pytest.raises(ledger.StorageError, match=r"^cannot append to .*: wrote \d+ of \d+ bytes$"):
            extend(store, keys, [tx], 50)
        half_writes.undo()
        assert store.path.read_bytes() == before
        assert (store.tip, store.state, store.size, store.digest.digest()) == kept

    def test_a_new_chain_leaves_no_file(self, genesis, tmp_path, half_writes):
        with pytest.raises(ledger.StorageError, match=r"^cannot write chain file .*: wrote \d+ of"):
            ledger.create_store(tmp_path / "chain.jsonl", genesis)
        assert list(tmp_path.iterdir()) == []


class TestParsing:
    def test_empty_file(self):
        with pytest.raises(ledger.ParseError) as err:
            ledger.parse_chain_bytes(b"")
        assert err.value.line_number == 1

    def test_non_canonical_line_rejected(self, genesis):
        import json

        line = ledger.block_line(ledger.genesis_block(genesis))
        doc = json.loads(line)
        pretty = json.dumps(doc, indent=1).encode() + b"\n"
        with pytest.raises(ledger.ParseError) as err:
            ledger.parse_chain_bytes(line + pretty)
        assert err.value.line_number > 1

    def test_truncated_line(self, genesis):
        line = ledger.block_line(ledger.genesis_block(genesis))
        with pytest.raises(ledger.ParseError) as err:
            ledger.parse_chain_bytes(line + line[: len(line) // 2])
        assert err.value.line_number == 2

    def test_deeply_nested_line(self, genesis):
        line = ledger.block_line(ledger.genesis_block(genesis))
        with pytest.raises(ledger.ParseError) as err:
            ledger.parse_chain_bytes(line + b"[" * 100_000 + b"\n")
        assert err.value.line_number == 2

    def test_interior_blank_line(self, genesis):
        line = ledger.block_line(ledger.genesis_block(genesis))
        with pytest.raises(ledger.ParseError) as err:
            ledger.parse_chain_bytes(line + b"\n" + line)
        assert err.value.line_number == 2

    def test_round_trip(self, genesis, chain):
        blocks, _ = chain
        raw = b"".join(ledger.block_line(b) for b in blocks)
        assert ledger.parse_chain_bytes(raw) == blocks

    @pytest.mark.parametrize("field", [b'"seal":"', b'"signature":"'], ids=["seal", "tx"])
    def test_lone_surrogate_is_a_parse_error(self, chain, field):
        blocks, _ = chain
        line = ledger.block_line(blocks[1]).replace(field, field + b"\\ud800", 1)
        with pytest.raises(ledger.ParseError) as err:
            ledger.parse_chain_bytes(ledger.block_line(blocks[0]) + line)
        assert err.value.line_number == 2

    def test_torn_tail_names_an_interrupted_append(self, chain):
        blocks, _ = chain
        intact = b"".join(ledger.block_line(b) for b in blocks[:3])
        torn = ledger.block_line(blocks[3])[:-9]
        with pytest.raises(ledger.TornTailError) as err:
            ledger.parse_chain_bytes(intact + torn)
        assert err.value.line_number == 4
        assert err.value.intact_bytes == len(intact)
        assert "interrupted append" in str(err.value)
        assert f"truncate the file to {len(intact)} bytes" in str(err.value)

    def test_only_an_unparsed_last_line_without_newline_is_torn(self, genesis, chain):
        blocks, _ = chain
        lines = [ledger.block_line(b) for b in blocks[:3]]
        # a complete last block without its newline still parses
        assert ledger.parse_chain_bytes(b"".join(lines)[:-1]) == blocks[:3]
        # a bad last line that ends in a newline, or a bad interior line, is plain parse
        for raw, line_number in (
            (lines[0] + lines[1] + lines[2][:-9] + b"\n", 3),
            (lines[0] + lines[1][:-9] + b"\n" + lines[2][:-1], 2),
            (lines[0][:-9], 1),  # genesis is written whole, never appended
        ):
            with pytest.raises(ledger.ParseError) as err:
                ledger.parse_chain_bytes(raw)
            assert type(err.value) is ledger.ParseError
            assert err.value.line_number == line_number


def sidecar_of(path: Path) -> Path:
    return Path(str(path) + ".tip")


@pytest.fixture()
def store(genesis, keys, tmp_path):
    """A stored five-block chain with a product moved and two faucet claims."""
    m, d, c = keys["manufacturer"], keys["distributor"], keys["consumer"]
    store = ledger.create_store(tmp_path / "chain.jsonl", genesis)
    extend(store, keys, [registry.make_tx(m, 5, 0, Deploy(code_size=100), PRICE)], 10)
    extend(store, keys,
           [registry.make_tx(m, 5, 1, Register(product_id="P-001", name="W", metadata=""), PRICE)], 20)
    extend(store, keys, [registry.make_tx(c, 5, 0, FaucetClaim(), PRICE)], 30)
    extend(store, keys,
           [registry.make_tx(m, 5, 2, Transfer(product_id="P-001", new_owner=d.address), PRICE)], 40)
    return store


class TestCheckpoint:
    def test_first_read_replays_and_writes_the_tip(self, genesis, store):
        assert ledger.open_store(store.path, genesis).state == store.state
        head, body, rest = sidecar_of(store.path).read_bytes().split(b"\n", 2)
        assert rest == b""
        raw = store.path.read_bytes()
        assert head == canonical.canonical_serialize({
            "bytes": len(raw),
            "gas": dict(store.gas),
            "genesis": canonical.hash_obj(genesis.to_canonical()),
            "hash": store.tip.hash,
            "index": store.tip.index,
            "prefix": canonical.hash_of(raw + canonical.canonical_serialize(dict(store.gas))),
        })
        assert canonical.hash_of(body) == store.tip.state_root
        assert body == canonical.canonical_serialize(store.state.to_canonical())
        assert os.stat(sidecar_of(store.path)).st_mode & 0o777 == 0o644
        assert sorted(p.name for p in store.path.parent.iterdir()) == ["chain.jsonl", "chain.jsonl.tip"]

    def test_first_read_parses_the_chain_once(self, genesis, store, monkeypatch):
        parses = support.count_calls(monkeypatch, ledger, "parse_chain_bytes")
        replays = support.count_calls(monkeypatch, ledger, "_replay")
        assert ledger.open_store(store.path, genesis).state == store.state
        assert (len(parses), len(replays)) == (1, 1)

    def test_a_corrupt_file_raises_the_parse_error(self, genesis, store):
        store.path.write_bytes(store.path.read_bytes() + b"not a block\n")
        with pytest.raises(ledger.ParseError) as via_read:
            ledger.open_store(store.path, genesis)
        with pytest.raises(ledger.ParseError) as via_load:
            ledger.load_chain(store.path, genesis)
        assert (str(via_read.value), via_read.value.line_number) == (
            str(via_load.value), via_load.value.line_number
        )
        assert not sidecar_of(store.path).exists()

    def test_second_read_executes_nothing(self, genesis, store, monkeypatch):
        """The sidecar vouches for every line: no line is parsed, and only
        the tip's header is decoded, from its line."""
        ledger.open_store(store.path, genesis)
        sidecar = sidecar_of(store.path).read_bytes()
        lines = support.count_calls(monkeypatch, ledger, "_parse_line")
        applied = support.count_calls(monkeypatch, registry, "apply_tx")
        headers = support.count_calls(monkeypatch, ledger, "_check_header")
        reopened = ledger.open_store(store.path, genesis)
        assert (reopened.state, reopened.tip) == (store.state, store.tip)
        assert lines == []
        assert (applied, headers) == ([], [])
        assert sidecar_of(store.path).read_bytes() == sidecar  # nothing rewritten

    def test_stale_sidecar_executes_only_the_newer_blocks(self, genesis, keys, store, monkeypatch):
        ledger.open_store(store.path, genesis)
        c, d = keys["consumer"], keys["distributor"]
        extend(store, keys, [registry.make_tx(c, 5, 1, FaucetClaim(), PRICE),
                             registry.make_tx(d, 5, 0, FaucetClaim(), PRICE)], 90_000)
        lines = support.count_calls(monkeypatch, ledger, "_parse_line")
        replays = support.count_calls(monkeypatch, ledger, "_replay")
        applied = support.count_calls(monkeypatch, registry, "apply_tx")
        assert ledger.open_store(store.path, genesis).state == store.state
        assert [(parent.index, len(blocks)) for parent, blocks, *_ in replays] == [(4, 1)]
        assert len(lines) == 1 and len(applied) == 2  # block 5 alone; line 4 gives its header
        raw, gas = store.path.read_bytes(), canonical.canonical_serialize(dict(store.gas))
        assert sidecar_of(store.path).read_bytes().startswith(
            b'{"bytes":%d,"gas":%s,"genesis":"%s","hash":"%s","index":5,"prefix":"%s"}\n'
            % (len(raw), gas, canonical.hash_obj(genesis.to_canonical()).encode(),
               store.tip.hash.encode(), canonical.hash_of(raw + gas).encode())
        )

    def test_a_last_line_without_its_newline_reads_through_the_tail(
        self, genesis, keys, store, monkeypatch
    ):
        """The checkpoint goes at the last block whose line ends in a newline,
        and the next append, which writes that newline first, keeps it valid."""
        raw = store.path.read_bytes()
        store.path.write_bytes(raw[:-1])
        assert ledger.open_store(store.path, genesis).state == store.state
        whole = raw[: raw.rfind(b"\n", 0, -1) + 1]
        head = json.loads(sidecar_of(store.path).read_bytes().split(b"\n")[0])
        assert (head["index"], head["bytes"]) == (3, len(whole))
        assert head["prefix"] == canonical.hash_of(whole + canonical.canonical_serialize(head["gas"]))
        sidecar = sidecar_of(store.path).read_bytes()
        parses = support.count_calls(monkeypatch, ledger, "parse_chain_bytes")
        replays = support.count_calls(monkeypatch, ledger, "_replay")
        assert ledger.open_store(store.path, genesis).state == store.state
        assert parses == [] and sidecar_of(store.path).read_bytes() == sidecar
        assert [(parent.index, len(blocks)) for parent, blocks, *_ in replays] == [(3, 0), (3, 1)]
        monkeypatch.undo()
        loaded = ledger.open_store(store.path, genesis)
        extend(loaded, keys, [registry.make_tx(keys["retailer"], 5, 0, FaucetClaim(), PRICE)], 50)
        assert store.path.read_bytes().startswith(raw)  # the newline came first
        parses = support.count_calls(monkeypatch, ledger, "parse_chain_bytes")
        replays = support.count_calls(monkeypatch, ledger, "_replay")
        assert ledger.open_store(store.path, genesis).state == loaded.state
        assert parses == []  # the sidecar still vouches for lines 0..3
        assert [(parent.index, len(blocks)) for parent, blocks, *_ in replays] == [(3, 2)]
        head = json.loads(sidecar_of(store.path).read_bytes().split(b"\n")[0])
        assert (head["index"], head["bytes"]) == (5, store.path.stat().st_size)

    @pytest.mark.parametrize(
        "spoil",
        [
            lambda raw, store: b"",
            lambda raw, store: raw[: len(raw) // 2],
            lambda raw, store: raw[:-1],
            lambda raw, store: raw + raw,
            lambda raw, store: raw.replace(b'"index":4', b'"index":9'),
            lambda raw, store: raw.replace(b'"index":4', b'"index":true'),
            lambda raw, store: raw.replace(b'"balance":', b'"balance":1', 1),
            lambda raw, store: raw.replace(store.tip.hash.encode(), canonical.ZERO_HASH.encode()),
        ],
        ids=["empty", "truncated", "no-newline", "doubled", "past-tip", "bool-index",
             "state-edited", "other-hash"],
    )
    def test_spoiled_sidecar_falls_back_to_a_replay(self, genesis, store, monkeypatch, spoil):
        ledger.open_store(store.path, genesis)
        sidecar = sidecar_of(store.path)
        good = sidecar.read_bytes()
        sidecar.write_bytes(spoil(good, store))
        replays = support.count_calls(monkeypatch, ledger, "_replay")
        assert ledger.open_store(store.path, genesis).state == store.state
        assert len(replays) == 1
        assert sidecar.read_bytes() == good  # rewritten at the tip

    def test_other_genesis_falls_back(self, genesis, store, monkeypatch):
        """Same roles and keys, other gas_params: the sidecar must not vouch for it."""
        ledger.open_store(store.path, genesis)
        other = replace(genesis, gas_params=replace(genesis.gas_params, base_tx=22_000))
        replays = support.count_calls(monkeypatch, ledger, "_replay")
        with pytest.raises(ledger.ValidationFailedError) as err:
            ledger.open_store(store.path, other)
        assert err.value.report.rule == ledger.RULE_STATE_ROOT
        assert len(replays) == 1

    def test_a_broken_chain_raises_what_a_replay_raises(self, genesis, store):
        ledger.open_store(store.path, genesis)
        raw = store.path.read_bytes()
        lines = raw.split(b"\n")
        lines[2] = lines[2].replace(b'"name":"W"', b'"name":"V"')
        store.path.write_bytes(b"\n".join(lines))
        with pytest.raises(ledger.ValidationFailedError) as via_sidecar:
            ledger.open_store(store.path, genesis)
        with pytest.raises(ledger.ValidationFailedError) as via_replay:
            ledger.load_chain(store.path, genesis)
        assert via_sidecar.value.report == via_replay.value.report
        assert via_sidecar.value.report.rule == ledger.RULE_TX_ROOT

    @pytest.mark.parametrize("fail", ["mkstemp", "replace"])
    def test_unwritable_sidecar_is_ignored(self, genesis, store, monkeypatch, fail):
        def refuse(*args, **kwargs):
            raise PermissionError(13, "read-only")

        target = ledger.tempfile if fail == "mkstemp" else ledger.os
        monkeypatch.setattr(target, fail, refuse)
        assert ledger.open_store(store.path, genesis).state == store.state
        assert sorted(p.name for p in store.path.parent.iterdir()) == ["chain.jsonl"]

    @pytest.mark.parametrize("fail", ["replace", "fsync"])
    def test_an_interrupted_write_leaves_no_temp_file(self, genesis, store, monkeypatch, fail):
        """An exception other than OSError between mkstemp and os.replace
        propagates, and the temporary file goes either way."""
        def interrupt(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(ledger.os, fail, interrupt)
        with pytest.raises(KeyboardInterrupt):
            ledger.open_store(store.path, genesis)
        monkeypatch.undo()
        assert sorted(p.name for p in store.path.parent.iterdir()) == ["chain.jsonl"]

    def test_a_writer_checkpoint_is_the_one_a_read_writes(self, genesis, store):
        """checkpoint(store) writes the sidecar a read at the tip would; a
        store whose last line lacks its newline gets none."""
        ledger.checkpoint(store)
        written = sidecar_of(store.path).read_bytes()
        sidecar_of(store.path).unlink()
        ledger.open_store(store.path, genesis)
        assert sidecar_of(store.path).read_bytes() == written
        sidecar_of(store.path).unlink()
        store.path.write_bytes(store.path.read_bytes()[:-1])
        opened = ledger.open_store(store.path, genesis)  # writes the sidecar at block 3
        sidecar_of(store.path).unlink()
        ledger.checkpoint(opened)
        assert not sidecar_of(store.path).exists()

    def test_a_vanished_chain_file_gets_no_sidecar(self, genesis, tmp_path):
        """The sidecar is only a cache: a chain file gone before the write
        leaves no sidecar and no temporary file, and raises nothing."""
        created = ledger.create_store(tmp_path / "chain.jsonl", genesis)
        created.path.unlink()
        ledger.checkpoint(created)
        assert list(tmp_path.iterdir()) == []

    def test_a_left_over_temp_file_goes_with_the_next_write(self, genesis, store):
        """A process killed between mkstemp and os.replace leaves its
        temporary file behind; the next sidecar write removes it, and only
        it."""
        store.path.with_name("chain.jsonl.tip.k1ll3d_x").write_bytes(b"half a sidecar")
        store.path.with_name("chain.jsonl.tip.bak").write_bytes(b"not ours")
        ledger.open_store(store.path, genesis)
        assert sorted(p.name for p in store.path.parent.iterdir()) == [
            "chain.jsonl", "chain.jsonl.tip", "chain.jsonl.tip.bak"
        ]

    def test_untouched_by_writers_and_validation(self, genesis, keys, store):
        """Only reads write the sidecar; extend and load_chain leave it alone."""
        ledger.load_chain(store.path, genesis)
        extend(store, keys, [registry.make_tx(keys["retailer"], 5, 0, FaucetClaim(), PRICE)], 50)
        assert not sidecar_of(store.path).exists()


@pytest.fixture()
def twelve(genesis, keys, tmp_path):
    """Twelve stored blocks: genesis, a deploy, five registers, then five
    blocks that each transfer a product and make a faucet claim."""
    m, d, c = keys["manufacturer"], keys["distributor"], keys["consumer"]
    store = ledger.create_store(tmp_path / "chain.jsonl", genesis)
    extend(store, keys, [registry.make_tx(m, 5, 0, Deploy(code_size=100), PRICE)], 1)
    for n in range(1, 6):
        register = Register(product_id=f"P-{n}", name="W", metadata="")
        extend(store, keys, [registry.make_tx(m, 5, n, register, PRICE)], 1 + n)
    for n in range(1, 6):
        transfer = Transfer(product_id=f"P-{n}", new_owner=d.address)
        extend(store, keys, [registry.make_tx(m, 5, 5 + n, transfer, PRICE),
                             registry.make_tx(c, 5, n - 1, FaucetClaim(), PRICE)], 100_000 * n)
    return SimpleNamespace(blocks=chain_of(store.path), state=store.state, gas=store.gas)


class TestReplayFrom:
    """_replay from a block k and the state and gas totals after it answers
    as a full replay."""

    def test_every_k_gives_the_full_replay(self, genesis, twelve):
        blocks = twelve.blocks
        assert len(blocks) == 12
        for k in range(len(blocks)):
            state_k, gas_k = walked(blocks[: k + 1], genesis)
            replayed = ledger._replay(blocks[k].header, blocks[k + 1 :], genesis, state_k, gas_k)
            assert replayed == (twelve.state, twelve.gas)

    def test_a_bad_signature_after_k_reports_the_same(self, genesis, keys, twelve):
        blocks = list(twelve.blocks)
        last = blocks[-1]
        forged = replace(last.txs[1], signature=keys["authority"].sign(last.txs[1].signing_payload(5)))
        header = replace(last.header, tx_root=ledger.tx_root_of([last.txs[0], forged]))
        seal = authority_key_map(genesis, keys)[header.sealer].sign(from_hex(header.hash))
        blocks[-1] = replace(last, header=header, txs=(last.txs[0], forged), seal=seal)
        full = support.validate_blocks(blocks, genesis)
        assert (full.block_index, full.rule) == (11, ledger.RULE_TX_SIGNATURE)
        for k in range(len(blocks) - 1):
            state_k = state_after(blocks[: k + 1], genesis)
            with pytest.raises(ledger.ValidationFailedError) as err:
                ledger._replay(blocks[k].header, blocks[k + 1 :], genesis, state_k, gas.NO_GAS)
            assert err.value.report == full


@pytest.fixture(scope="module")
def long_chain(genesis, keys, tmp_path_factory):
    """640 blocks of one faucet claim each: 1,280 signatures, enough to fork."""
    path = tmp_path_factory.mktemp("long") / "chain.jsonl"
    store = ledger.create_store(path, genesis)
    blocks = [ledger.genesis_block(genesis)]
    claimers = [keys[role] for role in ("consumer", "retailer", "distributor", "manufacturer")]
    for index in range(1, 641):
        claimer = claimers[index % len(claimers)]
        nonce = store.state.accounts[claimer.address].nonce
        block, _ = extend(store, keys, [registry.make_tx(claimer, 5, nonce, FaucetClaim(), PRICE)], index)
        blocks.append(block)
    return SimpleNamespace(path=path, blocks=blocks, state=store.state, held=held(store))


def workers(monkeypatch, cpus):
    """A fresh verify memo, and `cpus` usable CPUs for verify_ahead."""
    monkeypatch.setattr(crypto, "_memo", {})
    monkeypatch.setattr(crypto, "_usable_cpus", lambda: cpus)


class TestBatchedSignatures:
    """Replays check their signatures in verify_ahead blocks, maybe with a
    forked worker; the answers and the report are those of one-by-one checks."""

    LATE = 600  # near the back of the batch, where a worker starts
    EARLY = 2

    def reseal(self, genesis, keys, header):
        key = authority_key_map(genesis, keys)[header.sealer]
        return key.sign(from_hex(ledger.header_hash(header)))

    def bad_seal(self, genesis, keys, blocks, at=LATE):
        seal = blocks[at].seal
        flipped = seal[:-1] + ("0" if seal[-1] != "0" else "1")
        return blocks[:at] + [replace(blocks[at], seal=flipped)] + blocks[at + 1 :]

    def bad_tx_signature(self, genesis, keys, blocks, at=LATE):
        block = blocks[at]
        tx = block.txs[0]
        other = replace(tx, signature=keys["authority"].sign(tx.signing_payload(5)))
        header = replace(block.header, tx_root=ledger.tx_root_of([other]))
        bad = replace(block, header=header, txs=(other,), seal=self.reseal(genesis, keys, header))
        return blocks[:at] + [bad] + blocks[at + 1 :]

    def test_an_intact_chain_forks_and_passes(self, genesis, long_chain, monkeypatch):
        workers(monkeypatch, 2)
        forks = support.record_forks(monkeypatch)
        checks = support.count_calls(monkeypatch, crypto, "_check")
        loaded = ledger.load_chain(long_chain.path, genesis)
        assert held(loaded) == long_chain.held
        assert len(forks) == 1
        support.assert_reaped(forks)
        assert len(checks) == len(set(checks)), "the caller checks nothing twice"
        assert len(crypto._memo) == 1280, "every seal and signature is memoized"

    @pytest.mark.parametrize(
        "spoil, rule",
        [("bad_seal", ledger.RULE_SEAL), ("bad_tx_signature", ledger.RULE_TX_SIGNATURE)],
    )
    def test_a_late_bad_signature_reports_the_same(
        self, genesis, keys, long_chain, monkeypatch, spoil, rule
    ):
        blocks = getattr(self, spoil)(genesis, keys, list(long_chain.blocks))
        reports = []
        for cpus in (1, 2):
            workers(monkeypatch, cpus)
            reports.append(support.validate_blocks(blocks, genesis))
        assert reports[0] == reports[1]
        assert (reports[0].block_index, reports[0].rule) == (self.LATE, rule)

    def test_an_early_bad_block_reaps_the_workers(self, genesis, keys, long_chain, monkeypatch):
        blocks = self.bad_seal(genesis, keys, list(long_chain.blocks), at=self.EARLY)
        workers(monkeypatch, 2)
        forks = support.record_forks(monkeypatch)
        report = support.validate_blocks(blocks, genesis)
        assert (report.block_index, report.rule) == (self.EARLY, ledger.RULE_SEAL)
        assert len(forks) == 1
        support.assert_reaped(forks)

    def test_a_tip_checkpoint_read_checks_no_signature(self, genesis, long_chain, monkeypatch):
        ledger.open_store(long_chain.path, genesis)  # writes the sidecar
        workers(monkeypatch, 2)
        forks = support.record_forks(monkeypatch)
        batches = support.count_calls(monkeypatch, ledger, "verify_ahead")
        checks = support.count_calls(monkeypatch, crypto, "_check")
        assert ledger.open_store(long_chain.path, genesis).state == long_chain.state
        assert [len(items) for (items,) in batches] == [0]
        assert (checks, forks) == ([], [])

    def test_a_stale_sidecar_batches_the_tail_signatures(self, genesis, long_chain, monkeypatch):
        """Only the blocks after the sidecar's k are walked: their seals and
        transaction signatures are the one verify_ahead batch."""
        blocks, k = long_chain.blocks, 400
        state_k, gas_k = walked(blocks[: k + 1], genesis)
        prefix = b"".join(ledger.block_line(block) for block in blocks[: k + 1])
        ledger.checkpoint(ledger.LedgerStore(
            long_chain.path, genesis, blocks[k].header, state_k, len(prefix), hashlib.sha256(prefix), gas_k
        ))
        workers(monkeypatch, 2)
        forks = support.record_forks(monkeypatch)
        batches = support.count_calls(monkeypatch, ledger, "verify_ahead")
        replays = support.count_calls(monkeypatch, ledger, "_replay")
        assert ledger.open_store(long_chain.path, genesis).state == long_chain.state
        assert [(parent.index, len(tail)) for parent, tail, *_ in replays] == [(400, 240)]
        [(items,)] = batches
        expected = {block.seal for block in blocks[k + 1 :]}
        expected |= {tx.signature for block in blocks[k + 1 :] for tx in block.txs}
        assert len(items) == len(expected) == 480
        assert {signature for _, _, signature in items} == expected
        assert len(forks) == 1
        support.assert_reaped(forks)

    def test_validate_prints_its_line_once(self, genesis, long_chain, monkeypatch, capsys):
        workers(monkeypatch, 2)
        forks = support.record_forks(monkeypatch)
        genesis_path = long_chain.path.with_name("genesis.json")
        genesis.save(genesis_path)
        code = cli.main(["--db", str(long_chain.path), "--genesis", str(genesis_path), "validate"])
        out, err = capsys.readouterr()
        assert (code, err) == (0, "")
        assert out == f"OK blocks=641 tip={long_chain.blocks[-1].header.state_root}\n"
        assert len(forks) == 1


def record_in_order(monkeypatch, events, *targets):
    """Append the name of each call to module.name, for each (module, name)
    of targets, to the one list events."""
    for module, name in targets:
        real = getattr(module, name)

        def recording(*args, real=real, name=name):
            events.append(name)
            return real(*args)

        monkeypatch.setattr(module, name, recording)


class TestAssumedWalk:
    """_replay walks while a forked worker checks its signatures, taking
    each one not answered yet as valid, then settles them; the report is
    the strict walk's first offense, and nothing assumed outlives it."""

    EARLY, LATE = TestBatchedSignatures.EARLY, TestBatchedSignatures.LATE
    reseal = TestBatchedSignatures.reseal
    bad_seal = TestBatchedSignatures.bad_seal
    bad_tx_signature = TestBatchedSignatures.bad_tx_signature

    def resealed(self, genesis, keys, blocks, at, **changes):
        """blocks, with the header of block at changed and sealed anew."""
        header = replace(blocks[at].header, **changes)
        bad = replace(blocks[at], header=header, seal=self.reseal(genesis, keys, header))
        return blocks[:at] + [bad] + blocks[at + 1 :]

    def early_bad_tx_signature(self, genesis, keys, blocks):
        return self.bad_tx_signature(genesis, keys, blocks, at=self.EARLY)

    def bad_signature_then_bad_root(self, genesis, keys, blocks):
        blocks = self.bad_tx_signature(genesis, keys, blocks, at=100)
        return self.resealed(genesis, keys, blocks, 300, state_root="0x" + "ab" * 32)

    def header_break_then_bad_seal(self, genesis, keys, blocks):
        blocks = self.bad_seal(genesis, keys, blocks, at=self.LATE)
        return self.resealed(genesis, keys, blocks, 300, timestamp=blocks[299].header.timestamp - 1)

    def test_the_caller_checks_only_after_the_walk(self, genesis, long_chain, monkeypatch):
        workers(monkeypatch, 2)
        events = []
        record_in_order(monkeypatch, events, (crypto, "_check"), (registry, "state_commitment"))
        loaded = ledger.load_chain(long_chain.path, genesis)
        assert held(loaded) == long_chain.held
        assert events.count("state_commitment") == 1 + 640, "block 0's, then one walk"
        last_root = len(events) - events[::-1].index("state_commitment")
        assert "_check" not in events[:last_root]

    @pytest.mark.parametrize(
        "spoil, offense",
        [
            ("early_bad_tx_signature", (EARLY, ledger.RULE_TX_SIGNATURE)),
            ("bad_signature_then_bad_root", (100, ledger.RULE_TX_SIGNATURE)),
            ("header_break_then_bad_seal", (300, ledger.RULE_TIMESTAMP)),
        ],
    )
    def test_the_report_is_the_strict_walks(
        self, genesis, keys, long_chain, monkeypatch, spoil, offense
    ):
        blocks = getattr(self, spoil)(genesis, keys, list(long_chain.blocks))
        reports = []
        for cpus in (1, 2):
            workers(monkeypatch, cpus)
            reports.append(support.validate_blocks(blocks, genesis))
        assert reports[0] == reports[1]
        assert (reports[0].block_index, reports[0].rule) == offense

    @pytest.mark.parametrize("at", [EARLY, LATE])
    def test_a_bad_signature_is_never_memoized_as_valid(
        self, genesis, keys, long_chain, monkeypatch, at
    ):
        blocks = self.bad_seal(genesis, keys, list(long_chain.blocks), at=at)
        workers(monkeypatch, 2)
        assert support.validate_blocks(blocks, genesis).block_index == at
        bad = ledger._signatures(blocks[at : at + 1], genesis)[0]  # its seal
        assert crypto._memo.get(bad) is not True

    def test_an_early_bad_seal_is_walked_in_full_once(self, genesis, keys, long_chain, monkeypatch):
        blocks = self.bad_seal(genesis, keys, list(long_chain.blocks), at=self.EARLY)
        workers(monkeypatch, 2)
        forks = support.record_forks(monkeypatch)
        checks = support.count_calls(monkeypatch, crypto, "_check")
        roots = support.count_calls(monkeypatch, registry, "state_commitment")
        batches = support.count_calls(monkeypatch, ledger, "verify_ahead")
        report = support.validate_blocks(blocks, genesis)
        assert (report.block_index, report.rule) == (self.EARLY, ledger.RULE_SEAL)
        assert len(batches) == 1, "the strict walk runs outside the batch"
        assert len(forks) == 1
        support.assert_reaped(forks)
        assert len(checks) == len(set(checks)), "the caller checks nothing twice"
        assert len(roots) <= 1 + 640 + self.EARLY, "block 0's, then one walk in full at most"

    def test_one_cpu_walks_once_checking_in_walk_order(self, genesis, keys, long_chain, monkeypatch):
        workers(monkeypatch, 1)
        checks = support.count_calls(monkeypatch, crypto, "_check")
        assert ledger.load_chain(long_chain.path, genesis).state == long_chain.state
        assert checks == ledger._signatures(long_chain.blocks[1:], genesis)
        blocks = self.bad_seal(genesis, keys, list(long_chain.blocks))
        roots = support.count_calls(monkeypatch, registry, "state_commitment")
        assert support.validate_blocks(blocks, genesis).block_index == self.LATE
        assert len(roots) == 1 + self.LATE - 1, "block 0's, then one walk"

    @pytest.mark.parametrize("outcome", ["returns", "invalid", "raises"])
    def test_the_assumption_ends_with_the_replay(
        self, genesis, keys, long_chain, monkeypatch, outcome
    ):
        blocks = list(long_chain.blocks)
        if outcome == "invalid":
            blocks = self.bad_seal(genesis, keys, blocks)
        workers(monkeypatch, 2)
        if outcome == "raises":
            apply_tx = registry.apply_tx

            def failing_at_300(state, tx, ctx):
                if ctx.block_index == 300:
                    1 / 0
                return apply_tx(state, tx, ctx)

            monkeypatch.setattr(registry, "apply_tx", failing_at_300)
            with pytest.raises(ZeroDivisionError):
                support.validate_blocks(blocks, genesis)
        else:
            assert support.validate_blocks(blocks, genesis).ok == (outcome == "returns")
        assert crypto._batch is None
        assert crypto._answers is None and crypto._positions == {}
        signer = keys["consumer"]
        assert crypto.verify(signer.public_key, b"x", signer.sign(b"y")) is False

    @pytest.mark.parametrize("failure", ["worker_exits", "fork_fails"])
    def test_a_missing_worker_leaves_every_check_to_the_caller(
        self, genesis, long_chain, monkeypatch, failure
    ):
        workers(monkeypatch, 2)
        if failure == "worker_exits":
            monkeypatch.setattr(crypto, "_check_from_back", lambda items, slots, positions: os._exit(0))
        else:

            def no_fork():
                raise OSError(11, "Resource temporarily unavailable")

            monkeypatch.setattr(os, "fork", no_fork)
        checks = support.count_calls(monkeypatch, crypto, "_check")
        loaded = ledger.load_chain(long_chain.path, genesis)
        assert held(loaded) == long_chain.held
        assert sorted(checks) == sorted(ledger._signatures(long_chain.blocks[1:], genesis))


# What a lying roots copy writes in place of a root.
LIE = b"\xab" * 32
ROOTS_IN_ORDER = ledger._roots_in_order


class LyingSlots:
    """The roots copy's slots, in which every root it puts from slot
    first_lie on is a lie."""

    def __init__(self, slots, first_lie):
        self.slots, self.first_lie = slots, first_lie

    def put(self, position, make):
        self.slots.put(position, make if position < self.first_lie else lambda: LIE)


def lying_from(first_lie):
    """A faulty roots copy: the true roots before slot first_lie, then a
    lie in every later slot."""

    def work(genesis, base, state, blocks, slots, positions):
        ROOTS_IN_ORDER(genesis, base, state, blocks, LyingSlots(slots, first_lie), positions)

    return work


class TestRootsAhead:
    """extend_plan: a forked copy executes a known plan of blocks and
    writes their state roots; an append takes one only while the tip and
    the state are those the last planned append left."""

    @pytest.fixture()
    def plan(self, genesis, keys):
        """Six blocks of one faucet claim each, by four claimers in turn."""
        claimers = [keys[role] for role in ("consumer", "retailer", "distributor", "manufacturer")]
        return [
            (
                10 * (position + 1),
                genesis.sealer_of(position + 1),
                [registry.make_tx(claimers[position % 4], 5, position // 4, FaucetClaim(), PRICE)],
            )
            for position in range(6)
        ]

    @pytest.fixture()
    def forking(self, monkeypatch):
        """Two usable CPUs, a copy for a single block, and a record of forks."""
        monkeypatch.setattr(crypto, "_MIN_CHECKS_PER_WORKER", 1)
        monkeypatch.setattr(crypto, "_usable_cpus", lambda: 2)
        return support.record_forks(monkeypatch)

    def one_cpu_chain(self, genesis, keys, plan, path):
        store = ledger.create_store(path, genesis)
        sealers = authority_key_map(genesis, keys)
        for timestamp, sealer, txs in plan:
            ledger.extend(store, txs, sealers[sealer], timestamp)
        return path.read_bytes()

    def extend_plan(self, store, keys, plan, after=lambda position, block, receipts: None):
        ledger.extend_plan(store, plan, authority_key_map(store.genesis, keys), after)

    def test_the_copys_roots_write_the_bytes_of_one_cpu(
        self, genesis, keys, plan, forking, monkeypatch, tmp_path
    ):
        expected = self.one_cpu_chain(genesis, keys, plan, tmp_path / "alone.jsonl")
        support.copies_exit_first(monkeypatch, forking)
        store = ledger.create_store(tmp_path / "copy.jsonl", genesis)
        roots = support.count_calls(monkeypatch, registry, "state_commitment")
        self.extend_plan(store, keys, plan)
        assert roots == [], "every root is the copy's"
        assert store.path.read_bytes() == expected
        assert len(forking) == 1
        support.assert_reaped(forking)

    def test_a_lying_copy_is_believed_on_the_plan(self, genesis, keys, plan, forking, monkeypatch, tmp_path):
        """The control for the next tests: on the plan, a written root is
        taken as it stands."""
        monkeypatch.setattr(ledger, "_roots_in_order", lying_from(2))
        support.copies_exit_first(monkeypatch, forking)
        store = ledger.create_store(tmp_path / "chain.jsonl", genesis)
        self.extend_plan(store, keys, plan[:3])
        assert store.tip.state_root == canonical.to_hex(LIE)
        with pytest.raises(ledger.ValidationFailedError) as err:
            ledger.load_chain(store.path, genesis)
        assert (err.value.report.block_index, err.value.report.rule) == (3, ledger.RULE_STATE_ROOT)

    @pytest.mark.parametrize("leave", ["state_replaced", "blocks_appended"])
    def test_a_block_off_the_plan_takes_no_root(
        self, genesis, keys, plan, forking, monkeypatch, tmp_path, leave
    ):
        """Blocks 1 and 2 follow the plan; then the after hook leaves it, and
        from there every root is computed here, though the copy wrote lies.
        An equal state is not the one the last append wrote, and three
        empty blocks keep both the state and, with three authorities, the
        sealer schedule, but not the tip index."""
        monkeypatch.setattr(ledger, "_roots_in_order", lying_from(2))
        support.copies_exit_first(monkeypatch, forking)
        store = ledger.create_store(tmp_path / "chain.jsonl", genesis)
        roots = support.count_calls(monkeypatch, registry, "state_commitment")
        positions = []

        def after(position, block, receipts):
            assert block.header == store.tip
            positions.append(position)
            assert [receipt.tx_hash for receipt in receipts] == [plan[position][2][0].hash]
            if position != 1:
                return
            assert roots == []
            if leave == "state_replaced":
                store.state = replace(store.state)
            else:
                assert len(genesis.authorities) == 3
                state = store.state
                for _ in range(3):
                    extend(store, keys, [], store.tip.timestamp)
                assert store.state is state
                roots.clear()

        self.extend_plan(store, keys, plan, after)
        assert positions == list(range(len(plan)))
        assert len(roots) == len(plan) - 2
        assert ledger.load_chain(store.path, genesis).tip == store.tip
        assert canonical.to_hex(LIE) not in {block.header.state_root for block in chain_of(store.path)}
        support.assert_reaped(forking)

    def test_a_raising_block_reaps_the_copy(self, genesis, keys, plan, forking, monkeypatch, tmp_path):
        """after raises once block 2 is written: the copy is reaped and the
        chain holds blocks 1 and 2, without the lies the copy wrote."""
        monkeypatch.setattr(ledger, "_roots_in_order", lying_from(2))

        def after(position, block, receipts):
            if position == 1:
                raise ZeroDivisionError

        store = ledger.create_store(tmp_path / "chain.jsonl", genesis)
        with pytest.raises(ZeroDivisionError):
            self.extend_plan(store, keys, plan, after)
        assert len(forking) == 1
        support.assert_reaped(forking)
        assert ledger.load_chain(store.path, genesis).tip == store.tip and store.tip.index == 2
        assert canonical.to_hex(LIE) not in {block.header.state_root for block in chain_of(store.path)}

    @pytest.mark.parametrize("case", ["one_cpu", "other_threads", "small_plan", "fork_fails"])
    def test_commits_in_process(self, genesis, keys, plan, monkeypatch, tmp_path, case):
        expected = self.one_cpu_chain(genesis, keys, plan, tmp_path / "alone.jsonl")
        monkeypatch.setattr(crypto, "_MIN_CHECKS_PER_WORKER", 1)
        monkeypatch.setattr(crypto, "_usable_cpus", lambda: 1 if case == "one_cpu" else 2)
        if case == "other_threads":
            monkeypatch.setattr(crypto.threading, "active_count", lambda: 2)
        if case == "small_plan":
            monkeypatch.setattr(crypto, "_MIN_CHECKS_PER_WORKER", len(plan) + 1)

        def no_fork():
            if case != "fork_fails":
                pytest.fail(f"forked: {case}")
            raise OSError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", no_fork)
        store = ledger.create_store(tmp_path / "chain.jsonl", genesis)
        roots = support.count_calls(monkeypatch, registry, "state_commitment")
        self.extend_plan(store, keys, plan)
        assert len(roots) == len(plan)
        assert store.path.read_bytes() == expected
