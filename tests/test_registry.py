import hashlib
import json
from dataclasses import MISSING, fields

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from acprov import canonical, crypto, gas, ledger, registry, simnet
from acprov.registry import (
    Deploy,
    FaucetClaim,
    Register,
    Role,
    Sell,
    Status,
    Transfer,
)

import support

PRICE = 10**9
HALF_ETH = 5 * 10**17


def mktx(key, nonce, kind, chain_id=5, price=PRICE):
    return registry.make_tx(key, chain_id, nonce, kind, price)


@pytest.fixture()
def deployed(genesis, state, keys):
    """State with the contract deployed by the manufacturer at nonce 0."""
    tx = mktx(keys["manufacturer"], 0, Deploy(code_size=100))
    state, receipt = registry.apply_tx(state, tx, support.ctx_for(genesis, 1))
    assert receipt.accepted, receipt.error
    return state


@pytest.fixture()
def registered(genesis, deployed, keys):
    """Deployed state plus product P-001 registered by the manufacturer."""
    tx = mktx(keys["manufacturer"], 1, Register(product_id="P-001", name="Widget", metadata=""))
    state, receipt = registry.apply_tx(deployed, tx, support.ctx_for(genesis, 2))
    assert receipt.accepted, receipt.error
    return state


class TestKindCodec:
    KINDS = (
        Deploy(code_size=7),
        Register(product_id="P-1", name="N", metadata="m"),
        Transfer(product_id="P-1", new_owner="0x" + "a" * 40),
        Sell(product_id="P-1", consumer="0x" + "b" * 40),
        FaucetClaim(),
    )

    def test_round_trip(self):
        for kind in self.KINDS:
            doc = registry.kind_to_canonical(kind)
            assert registry.kind_from_canonical(doc) == kind, f"round trip broke for {kind}"

    def test_category_names(self):
        cats = [type(k).__name__ for k in self.KINDS]
        assert cats == ["Deploy", "Register", "Transfer", "Sell", "FaucetClaim"]

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError):
            registry.kind_from_canonical({"type": "mint"})

    def test_missing_field_rejected(self):
        with pytest.raises(ValueError):
            registry.kind_from_canonical({"type": "deploy"})

    def test_bool_is_not_an_int(self):
        with pytest.raises(ValueError):
            registry.kind_from_canonical({"type": "deploy", "code_size": True})

    @pytest.mark.parametrize(
        "doc, message",
        [
            ([], "kind must be an object"),
            ({"type": "mint"}, "unknown transaction kind type 'mint'"),
            ({"code_size": 1}, "unknown transaction kind type None"),
            ({"type": ["deploy"]}, "unknown transaction kind type ['deploy']"),
            ({"type": "deploy"}, "deploy kind has fields type, code_size"),
            (
                {"type": "register", "product_id": "P", "name": "N"},
                "register kind has fields type, product_id, name, metadata",
            ),
            (
                {"type": "transfer", "product_id": "P", "consumer": "0x" + "a" * 40},
                "transfer kind has fields type, product_id, new_owner",
            ),
            (
                {"type": "sell", "product_id": "P", "new_owner": "0x" + "a" * 40},
                "sell kind has fields type, product_id, consumer",
            ),
            ({"type": "faucet_claim", "amount": 1}, "faucet_claim kind has field type only"),
            ({"type": "deploy", "code_size": True}, "code_size must be an integer"),
            ({"type": "deploy", "code_size": -1}, "code_size must be >= 0"),
            (
                {"type": "register", "product_id": 7, "name": "N", "metadata": ""},
                "product_id must be a string",
            ),
            (
                {"type": "register", "product_id": "P", "name": "N", "metadata": None},
                "metadata must be a string",
            ),
            (
                {"type": "transfer", "product_id": "P", "new_owner": "0xABC"},
                "new_owner must be a 0x-prefixed 20-byte hex address",
            ),
            (
                {"type": "sell", "product_id": "P", "consumer": "0x" + "A" * 40},
                "consumer must be a 0x-prefixed 20-byte hex address",
            ),
        ],
    )
    def test_error_texts(self, doc, message):
        """The texts reach stderr as `error: corrupt file: line N: ...`."""
        with pytest.raises(ValueError) as err:
            registry.kind_from_canonical(doc)
        assert str(err.value) == message

    def test_malformed_address_rejected(self):
        with pytest.raises(ValueError):
            registry.kind_from_canonical(
                {"type": "sell", "product_id": "P-1", "consumer": "0xABC"}
            )


class TestProductIds:
    def test_valid_ids(self):
        for pid in ("P-001", "a", "A.B_C-9", "x" * 64):
            assert registry.is_valid_product_id(pid), f"{pid!r} should be valid"

    def test_invalid_ids(self):
        for pid in ("", "has space", "x" * 65, "ünït", "semi;colon", None, 7):
            assert not registry.is_valid_product_id(pid), f"{pid!r} should be invalid"


class TestContractAddress:
    def test_derivation_by_hand(self, keys):
        sender = keys["manufacturer"].address
        digest = hashlib.sha256(
            canonical.from_hex(sender) + (3).to_bytes(8, "big")
        ).digest()
        assert registry.contract_address(sender, 3) == "0x" + digest[-20:].hex()

    def test_nonce_changes_address(self, keys):
        sender = keys["manufacturer"].address
        assert registry.contract_address(sender, 0) != registry.contract_address(sender, 1)


class TestAuthentication:
    def test_bad_signature_settles_nothing(self, genesis, state, keys):
        tx = mktx(keys["manufacturer"], 0, Deploy(code_size=100))
        bad = registry.TxEnvelope(
            sender=tx.sender,
            nonce=tx.nonce,
            kind=tx.kind,
            gas_price=tx.gas_price,
            signature="0x" + "0" * 128,
        )
        after, receipt = registry.apply_tx(state, bad, support.ctx_for(genesis, 1))
        assert not receipt.accepted and receipt.error == registry.BAD_SIGNATURE
        assert receipt.gas_used > 0 and receipt.fee == receipt.gas_used * PRICE
        assert registry.state_commitment(after) == registry.state_commitment(state), (
            "unauthenticated tx must not touch state"
        )

    def test_unknown_sender_is_bad_signature(self, genesis, state):
        ghost = support.key_for("ghost")
        tx = mktx(ghost, 0, FaucetClaim())
        after, receipt = registry.apply_tx(state, tx, support.ctx_for(genesis, 1))
        assert receipt.error == registry.BAD_SIGNATURE
        assert registry.state_commitment(after) == registry.state_commitment(state)

    def test_chain_id_is_bound_into_the_signature(self, genesis, state, keys):
        foreign = mktx(keys["manufacturer"], 0, Deploy(code_size=100), chain_id=6)
        after, receipt = registry.apply_tx(state, foreign, support.ctx_for(genesis, 1))
        assert receipt.error == registry.BAD_SIGNATURE, "cross-chain replay must fail"

    def test_stale_nonce_rejected_without_state_change(self, genesis, deployed, keys):
        replayed = mktx(keys["manufacturer"], 0, Deploy(code_size=100))
        after, receipt = registry.apply_tx(deployed, replayed, support.ctx_for(genesis, 2))
        assert receipt.error == registry.BAD_NONCE
        assert registry.state_commitment(after) == registry.state_commitment(deployed)

    def test_future_nonce_rejected(self, genesis, state, keys):
        tx = mktx(keys["manufacturer"], 5, Deploy(code_size=100))
        _, receipt = registry.apply_tx(state, tx, support.ctx_for(genesis, 1))
        assert receipt.error == registry.BAD_NONCE

    def test_variant_rejection_still_bumps_nonce_and_charges(self, genesis, state, keys):
        tx = mktx(keys["consumer"], 0, Deploy(code_size=100))
        after, receipt = registry.apply_tx(state, tx, support.ctx_for(genesis, 1))
        assert receipt.error == registry.NOT_TRUSTED_NODE
        acct = after.accounts[keys["consumer"].address]
        assert acct.nonce == 1, "rejected-but-authenticated txs consume the nonce"
        assert acct.balance == support.ETH - receipt.fee


class TestDeploy:
    def test_success_sets_contract(self, genesis, state, keys):
        tx = mktx(keys["manufacturer"], 0, Deploy(code_size=100))
        after, receipt = registry.apply_tx(state, tx, support.ctx_for(genesis, 1))
        assert receipt.accepted
        assert after.contract is not None
        assert after.contract.deployer == keys["manufacturer"].address
        assert after.contract.address == registry.contract_address(
            keys["manufacturer"].address, 0
        )

    def test_second_deploy_rejected(self, genesis, deployed, keys):
        tx = mktx(keys["distributor"], 0, Deploy(code_size=100))
        _, receipt = registry.apply_tx(deployed, tx, support.ctx_for(genesis, 2))
        assert receipt.error == registry.ALREADY_DEPLOYED

    def test_already_deployed_wins_over_not_trusted(self, genesis, deployed, keys):
        tx = mktx(keys["consumer"], 0, Deploy(code_size=100))
        _, receipt = registry.apply_tx(deployed, tx, support.ctx_for(genesis, 2))
        assert receipt.error == registry.ALREADY_DEPLOYED

    def test_untrusted_deployer_rejected(self, genesis, state, keys):
        tx = mktx(keys["consumer"], 0, Deploy(code_size=100))
        _, receipt = registry.apply_tx(state, tx, support.ctx_for(genesis, 1))
        assert receipt.error == registry.NOT_TRUSTED_NODE


class TestRegister:
    def test_requires_deploy_first(self, genesis, state, keys):
        tx = mktx(keys["manufacturer"], 0, Register(product_id="P-001", name="W", metadata=""))
        _, receipt = registry.apply_tx(state, tx, support.ctx_for(genesis, 1))
        assert receipt.error == registry.NOT_DEPLOYED

    def test_only_manufacturers_register(self, genesis, deployed, keys):
        tx = mktx(keys["distributor"], 0, Register(product_id="P-001", name="W", metadata=""))
        _, receipt = registry.apply_tx(deployed, tx, support.ctx_for(genesis, 2))
        assert receipt.error == registry.NOT_MANUFACTURER

    def test_role_check_wins_over_bad_id(self, genesis, deployed, keys):
        tx = mktx(keys["distributor"], 0, Register(product_id="no good", name="W", metadata=""))
        _, receipt = registry.apply_tx(deployed, tx, support.ctx_for(genesis, 2))
        assert receipt.error == registry.NOT_MANUFACTURER

    def test_bad_product_id(self, genesis, deployed, keys):
        tx = mktx(keys["manufacturer"], 1, Register(product_id="has space", name="W", metadata=""))
        _, receipt = registry.apply_tx(deployed, tx, support.ctx_for(genesis, 2))
        assert receipt.error == registry.BAD_PRODUCT_ID

    def test_metadata_limit_is_bytes_not_chars(self, genesis, deployed, keys):
        # 513 two-byte chars: fits as chars, overflows as UTF-8 bytes
        meta = "ü" * 513
        tx = mktx(keys["manufacturer"], 1, Register(product_id="P-001", name="W", metadata=meta))
        _, receipt = registry.apply_tx(deployed, tx, support.ctx_for(genesis, 2))
        assert receipt.error == registry.BAD_METADATA

    def test_metadata_at_limit_accepted(self, genesis, deployed, keys):
        meta = "m" * 1024
        tx = mktx(keys["manufacturer"], 1, Register(product_id="P-001", name="W", metadata=meta))
        _, receipt = registry.apply_tx(deployed, tx, support.ctx_for(genesis, 2))
        assert receipt.accepted, receipt.error

    def test_duplicate_id(self, genesis, registered, keys):
        tx = mktx(keys["manufacturer"], 2, Register(product_id="P-001", name="W2", metadata=""))
        _, receipt = registry.apply_tx(registered, tx, support.ctx_for(genesis, 3))
        assert receipt.error == registry.DUPLICATE_PRODUCT_ID

    def test_success_effects(self, genesis, registered, keys):
        record = registered.products["P-001"]
        maker = keys["manufacturer"].address
        assert record.manufacturer == maker
        assert record.current_owner == maker
        assert record.status == Status.AVAILABLE
        assert record.history == (maker,)
        assert record.registered_at == 2


class TestTransfer:
    def test_unknown_product(self, genesis, deployed, keys):
        tx = mktx(keys["manufacturer"], 1, Transfer(product_id="P-404", new_owner=keys["distributor"].address))
        _, receipt = registry.apply_tx(deployed, tx, support.ctx_for(genesis, 2))
        assert receipt.error == registry.UNKNOWN_PRODUCT

    def test_not_owner(self, genesis, registered, keys):
        tx = mktx(keys["distributor"], 0, Transfer(product_id="P-001", new_owner=keys["retailer"].address))
        _, receipt = registry.apply_tx(registered, tx, support.ctx_for(genesis, 3))
        assert receipt.error == registry.NOT_OWNER

    def test_untrusted_target(self, genesis, registered, keys):
        tx = mktx(keys["manufacturer"], 2, Transfer(product_id="P-001", new_owner=keys["consumer"].address))
        _, receipt = registry.apply_tx(registered, tx, support.ctx_for(genesis, 3))
        assert receipt.error == registry.NOT_TRUSTED_NODE

    def test_success_appends_history(self, genesis, registered, keys):
        tx = mktx(keys["manufacturer"], 2, Transfer(product_id="P-001", new_owner=keys["distributor"].address))
        after, receipt = registry.apply_tx(registered, tx, support.ctx_for(genesis, 3))
        assert receipt.accepted, receipt.error
        record = after.products["P-001"]
        assert record.current_owner == keys["distributor"].address
        assert record.history == (keys["manufacturer"].address, keys["distributor"].address)
        assert record.status == Status.AVAILABLE


class TestSell:
    @pytest.fixture()
    def sold(self, genesis, registered, keys):
        tx = mktx(keys["manufacturer"], 2, Sell(product_id="P-001", consumer=keys["consumer"].address))
        state, receipt = registry.apply_tx(registered, tx, support.ctx_for(genesis, 3))
        assert receipt.accepted, receipt.error
        return state

    def test_unknown_product(self, genesis, deployed, keys):
        tx = mktx(keys["manufacturer"], 1, Sell(product_id="P-404", consumer=keys["consumer"].address))
        _, receipt = registry.apply_tx(deployed, tx, support.ctx_for(genesis, 2))
        assert receipt.error == registry.UNKNOWN_PRODUCT

    def test_not_owner(self, genesis, registered, keys):
        tx = mktx(keys["retailer"], 0, Sell(product_id="P-001", consumer=keys["consumer"].address))
        _, receipt = registry.apply_tx(registered, tx, support.ctx_for(genesis, 3))
        assert receipt.error == registry.NOT_OWNER

    def test_target_must_be_consumer(self, genesis, registered, keys):
        tx = mktx(keys["manufacturer"], 2, Sell(product_id="P-001", consumer=keys["retailer"].address))
        _, receipt = registry.apply_tx(registered, tx, support.ctx_for(genesis, 3))
        assert receipt.error == registry.NOT_CONSUMER

    def test_success_makes_product_unavailable(self, sold, keys):
        record = sold.products["P-001"]
        assert record.status == Status.UNAVAILABLE
        assert record.current_owner == keys["consumer"].address
        assert record.history[-1] == keys["consumer"].address

    def test_second_sell_is_product_unavailable(self, genesis, sold, keys):
        tx = mktx(keys["manufacturer"], 3, Sell(product_id="P-001", consumer=keys["consumer"].address))
        _, receipt = registry.apply_tx(sold, tx, support.ctx_for(genesis, 4))
        assert receipt.error == registry.PRODUCT_UNAVAILABLE

    def test_unavailability_wins_over_ownership(self, genesis, sold, keys):
        # the distributor never owned it AND it is already sold; the status
        # rejection must fire first so double-sell attempts are named as such
        tx = mktx(keys["distributor"], 0, Sell(product_id="P-001", consumer=keys["consumer"].address))
        _, receipt = registry.apply_tx(sold, tx, support.ctx_for(genesis, 4))
        assert receipt.error == registry.PRODUCT_UNAVAILABLE

    def test_sold_product_cannot_transfer(self, genesis, sold, keys):
        tx = mktx(keys["consumer"], 0, Transfer(product_id="P-001", new_owner=keys["distributor"].address))
        _, receipt = registry.apply_tx(sold, tx, support.ctx_for(genesis, 4))
        assert receipt.error == registry.PRODUCT_UNAVAILABLE


class TestFaucet:
    def test_grant_at_time_zero(self, genesis, state, keys):
        tx = mktx(keys["consumer"], 0, FaucetClaim())
        after, receipt = registry.apply_tx(state, tx, support.ctx_for(genesis, 1, timestamp=0))
        acct = after.accounts[keys["consumer"].address]
        assert receipt.accepted and receipt.gas_used == 0 and receipt.fee == 0
        assert acct.balance == support.ETH + HALF_ETH
        assert acct.last_faucet_claim == 0
        assert acct.nonce == 1

    def test_cooldown_edge(self, genesis, state, keys):
        first = mktx(keys["consumer"], 0, FaucetClaim())
        state, _ = registry.apply_tx(state, first, support.ctx_for(genesis, 1, timestamp=0))

        early = mktx(keys["consumer"], 1, FaucetClaim())
        state, receipt = registry.apply_tx(state, early, support.ctx_for(genesis, 2, timestamp=86_399))
        assert receipt.error == registry.FAUCET_COOLDOWN
        assert state.accounts[keys["consumer"].address].balance == support.ETH + HALF_ETH
        assert state.accounts[keys["consumer"].address].nonce == 2, (
            "a cooled-down claim still consumes the nonce"
        )

        due = mktx(keys["consumer"], 2, FaucetClaim())
        state, receipt = registry.apply_tx(state, due, support.ctx_for(genesis, 3, timestamp=86_400))
        assert receipt.accepted, receipt.error
        assert state.accounts[keys["consumer"].address].balance == support.ETH + 2 * HALF_ETH

    def test_broke_account_can_claim(self):
        broke = support.key_for("broke")
        genesis2, _ = support.five_role_genesis()
        roles = dict(genesis2.roles)
        roles[broke.address] = Role.CONSUMER
        account_keys = dict(genesis2.account_keys)
        account_keys[broke.address] = broke.public_key
        genesis2 = ledger.GenesisConfig(
            chain_id=genesis2.chain_id,
            authorities=genesis2.authorities,
            roles=roles,
            initial_balances=genesis2.initial_balances,
            account_keys=account_keys,
        )
        state = ledger.genesis_state(genesis2)
        assert state.accounts[broke.address].balance == 0
        tx = mktx(broke, 0, FaucetClaim())
        after, receipt = registry.apply_tx(state, tx, support.ctx_for(genesis2, 1, timestamp=10))
        assert receipt.accepted, "faucet claims must be payable from an empty wallet"
        assert after.accounts[broke.address].balance == HALF_ETH


class TestInsufficientFunds:
    @pytest.fixture()
    def poor_setup(self):
        """Manufacturer with just enough for intrinsic gas but not storage."""
        genesis, keys = support.five_role_genesis()
        kind = Register(product_id="P-001", name="W", metadata="")
        kind_bytes = canonical.canonical_serialize(registry.kind_to_canonical(kind))
        intrinsic = gas.intrinsic_gas(kind_bytes, genesis.gas_params)
        full = intrinsic + gas.storage_gas(kind, genesis.gas_params)
        balances = dict(genesis.initial_balances)
        poor_balance = (intrinsic + (full - intrinsic) // 2) * PRICE
        balances[keys["manufacturer"].address] = poor_balance
        genesis = ledger.GenesisConfig(
            chain_id=genesis.chain_id,
            authorities=genesis.authorities,
            roles=genesis.roles,
            initial_balances=balances,
            account_keys=genesis.account_keys,
        )
        return genesis, keys, kind, intrinsic, poor_balance

    def test_falls_back_to_intrinsic_fee(self, poor_setup):
        genesis, keys, kind, intrinsic, poor_balance = poor_setup
        state = ledger.genesis_state(genesis)
        deploy = mktx(keys["distributor"], 0, Deploy(code_size=10))
        state, receipt = registry.apply_tx(state, deploy, support.ctx_for(genesis, 1))
        assert receipt.accepted

        tx = mktx(keys["manufacturer"], 0, kind)
        after, receipt = registry.apply_tx(state, tx, support.ctx_for(genesis, 2))
        assert receipt.error == registry.INSUFFICIENT_FUNDS
        assert receipt.gas_used == intrinsic
        assert receipt.fee == intrinsic * PRICE
        acct = after.accounts[keys["manufacturer"].address]
        assert acct.balance == poor_balance - intrinsic * PRICE
        assert acct.nonce == 1
        assert "P-001" not in after.products

    def test_totally_broke_pays_nothing_but_burns_nonce(self, poor_setup):
        genesis, keys, kind, _, _ = poor_setup
        balances = dict(genesis.initial_balances)
        balances[keys["manufacturer"].address] = 0
        genesis = ledger.GenesisConfig(
            chain_id=genesis.chain_id,
            authorities=genesis.authorities,
            roles=genesis.roles,
            initial_balances=balances,
            account_keys=genesis.account_keys,
        )
        state = ledger.genesis_state(genesis)
        tx = mktx(keys["manufacturer"], 0, kind)
        after, receipt = registry.apply_tx(state, tx, support.ctx_for(genesis, 1))
        assert receipt.error == registry.INSUFFICIENT_FUNDS
        assert receipt.gas_used == 0 and receipt.fee == 0
        assert after.accounts[keys["manufacturer"].address].nonce == 1


class TestInvariants:
    def test_fee_equals_gas_times_price(self, genesis, state, keys):
        txs = [
            mktx(keys["manufacturer"], 0, Deploy(code_size=50)),
            mktx(keys["manufacturer"], 1, Register(product_id="P-001", name="W", metadata="")),
            mktx(keys["consumer"], 0, Deploy(code_size=1), price=7 * 10**8),
            mktx(keys["manufacturer"], 2, FaucetClaim()),
            mktx(keys["manufacturer"], 9, Register(product_id="P-002", name="W", metadata="")),
        ]
        for i, tx in enumerate(txs):
            state, receipt = registry.apply_tx(state, tx, support.ctx_for(genesis, i + 1))
            assert receipt.fee == receipt.gas_used * tx.gas_price, (
                f"fee/gas mismatch on tx {i}: {receipt}"
            )

    def test_supply_only_moves_via_faucet(self, genesis, state, keys):
        start = support.supply(state)
        txs = [
            (mktx(keys["manufacturer"], 0, Deploy(code_size=50)), 0),
            (mktx(keys["manufacturer"], 1, Register(product_id="P-001", name="W", metadata="")), 0),
            (mktx(keys["consumer"], 0, FaucetClaim()), HALF_ETH),
            (mktx(keys["manufacturer"], 2, Sell(product_id="P-001", consumer=keys["consumer"].address)), 0),
        ]
        minted = 0
        for i, (tx, grant) in enumerate(txs):
            state, receipt = registry.apply_tx(state, tx, support.ctx_for(genesis, i + 1))
            assert receipt.accepted, receipt.error
            minted += grant
        assert support.supply(state) == start + minted

    def test_apply_tx_does_not_mutate_input(self, genesis, state, keys):
        before = registry.state_commitment(state)
        tx = mktx(keys["manufacturer"], 0, Deploy(code_size=50))
        registry.apply_tx(state, tx, support.ctx_for(genesis, 1))
        assert registry.state_commitment(state) == before

    def test_commitment_tracks_content_not_identity(self, genesis, state, keys):
        tx = mktx(keys["manufacturer"], 0, Deploy(code_size=50))
        a, _ = registry.apply_tx(state, tx, support.ctx_for(genesis, 1))
        b, _ = registry.apply_tx(state, tx, support.ctx_for(genesis, 1))
        assert a is not b
        assert registry.state_commitment(a) == registry.state_commitment(b)


TEXT = st.text(max_size=12)  # any code point UTF-8 can encode, non-ASCII included
UINT = st.integers(min_value=0, max_value=2**70)
KINDS = st.one_of(
    st.builds(Deploy, code_size=UINT),
    st.builds(Register, product_id=TEXT, name=TEXT, metadata=TEXT),
    st.builds(Transfer, product_id=TEXT, new_owner=TEXT),
    st.builds(Sell, product_id=TEXT, consumer=TEXT),
    st.just(FaucetClaim()),
)
# a signature string always holding a quote and a backslash, which JSON escapes
SIGNATURES = st.tuples(st.text(), st.text()).map(lambda parts: parts[0] + '"\\' + parts[1])


def reference_payload(chain_id, tx):
    """The signing payload as one canonical_serialize call over the signed fields."""
    return canonical.canonical_serialize(
        {
            "chain_id": chain_id,
            "gas_price": tx.gas_price,
            "kind": registry.kind_to_canonical(tx.kind),
            "nonce": tx.nonce,
            "sender": tx.sender,
        }
    )


class TestCachedBytes:
    """Bytes assembled from cached encodings equal a fresh canonical encoding."""

    @settings(max_examples=300, deadline=None)
    @given(
        kind=KINDS,
        sender=TEXT,
        nonce=UINT,
        gas_price=UINT,
        signature=SIGNATURES,
        chain_id=st.integers(min_value=1, max_value=2**63),
    )
    def test_envelope(self, kind, sender, nonce, gas_price, signature, chain_id):
        tx = registry.TxEnvelope(sender, nonce, kind, gas_price, signature)
        whole = canonical.canonical_serialize(tx.to_canonical())
        assert tx.kind_bytes == canonical.canonical_serialize(registry.kind_to_canonical(kind))
        assert tx.hash == canonical.hash_of(whole) == registry.tx_hash(tx)
        assert tx.signing_payload(chain_id) == reference_payload(chain_id, tx)

    @settings(max_examples=150, deadline=None)
    @given(
        header=st.builds(
            ledger.BlockHeader,
            index=UINT,
            timestamp=UINT,
            prev_hash=TEXT,
            tx_root=TEXT,
            sealer=TEXT,
            state_root=TEXT,
        ),
        seal=SIGNATURES,
        txs=st.lists(
            st.builds(registry.TxEnvelope, TEXT, UINT, KINDS, UINT, SIGNATURES), max_size=4
        ),
    )
    def test_block_line(self, header, seal, txs):
        block = ledger.Block(header=header, txs=tuple(txs), seal=seal)
        expected = canonical.canonical_serialize(block.to_canonical()) + b"\n"
        assert ledger.block_line(block) == expected
        assert header.hash == canonical.hash_obj(header.to_canonical())

    @settings(max_examples=50, deadline=None)
    @given(kind=KINDS, nonce=UINT, gas_price=UINT, chain_id=st.integers(1, 2**63))
    def test_make_tx_signs_the_reference_payload(self, keys, kind, nonce, gas_price, chain_id):
        key = keys["retailer"]
        tx = registry.make_tx(key, chain_id, nonce, kind, gas_price)
        assert crypto.verify(key.public_key, reference_payload(chain_id, tx), tx.signature)

    @settings(max_examples=60, deadline=None)
    @given(
        steps=st.lists(
            st.tuples(
                st.sampled_from(("manufacturer", "distributor", "retailer", "consumer")),
                st.sampled_from(("register", "transfer", "sell", "faucet")),
                st.integers(min_value=0, max_value=3),
                st.sampled_from(("distributor", "retailer", "consumer")),
                TEXT,
                TEXT,
            ),
            max_size=20,
        )
    )
    def test_state_commitment(self, genesis, keys, steps):
        state = ledger.genesis_state(genesis)
        deploy = mktx(keys["manufacturer"], 0, Deploy(code_size=10))
        state, _ = registry.apply_tx(state, deploy, support.ctx_for(genesis, 1))
        for i, (actor, op, product, target, name, metadata) in enumerate(steps, start=2):
            pid, to = f"P-{product}", keys[target].address
            kind = {
                "register": Register(product_id=pid, name=name, metadata=metadata),
                "transfer": Transfer(product_id=pid, new_owner=to),
                "sell": Sell(product_id=pid, consumer=to),
                "faucet": FaucetClaim(),
            }[op]
            key = keys["manufacturer" if op == "register" else actor]
            tx = mktx(key, state.accounts[key.address].nonce, kind)
            state, _ = registry.apply_tx(state, tx, support.ctx_for(genesis, i, 3600 * i))
            assert registry.state_commitment(state) == canonical.hash_obj(state.to_canonical())
        doc = json.loads(registry.state_bytes(state))
        assert doc == state.to_canonical()
        assert registry.state_from_canonical(doc) == state


class TestStateFromCanonical:
    """The strict loader behind sidecar checkpoints rejects every misfit."""

    @pytest.mark.parametrize(
        "edit",
        [
            lambda d: d.pop("contract"),
            lambda d: d.update(chain_id=True),
            lambda d: d.update(accounts=[]),
            lambda d: d.update(contract={"address": "0x" + "1" * 40}),
            lambda d: next(iter(d["accounts"].values())).update(balance=-1),
            lambda d: next(iter(d["accounts"].values())).update(role="wizard"),
            lambda d: next(iter(d["accounts"].values())).update(address="0x" + "1" * 40),
            lambda d: next(iter(d["accounts"].values())).update(last_faucet_claim="7"),
            lambda d: d["products"]["P-001"].update(status="lost"),
            lambda d: d["products"]["P-001"].update(history="0x" + "1" * 40),
            lambda d: d["products"]["P-001"].update(history=[5]),
            lambda d: d["products"]["P-001"].update(product_id="P-002"),
            lambda d: d["products"]["P-001"].pop("name"),
        ],
    )
    def test_rejects(self, registered, edit):
        doc = json.loads(registry.state_bytes(registered))
        assert registry.state_from_canonical(doc) == registered
        edit(doc)
        with pytest.raises(ValueError):
            registry.state_from_canonical(doc)


ADDRESSES = st.binary(min_size=20, max_size=20).map(canonical.to_hex)
HASHES = st.binary(min_size=32, max_size=32).map(canonical.to_hex)
UINTS = st.integers(min_value=0, max_value=2**80)
TEXT = st.text(max_size=8)
KINDS = st.one_of(
    st.builds(Deploy, code_size=UINTS),
    st.builds(Register, product_id=TEXT, name=TEXT, metadata=TEXT),
    st.builds(Transfer, product_id=TEXT, new_owner=ADDRESSES),
    st.builds(Sell, product_id=TEXT, consumer=ADDRESSES),
    st.just(FaucetClaim()),
)
ENVELOPES = st.builds(
    registry.TxEnvelope, sender=ADDRESSES, nonce=UINTS, kind=KINDS, gas_price=UINTS, signature=TEXT
)
HEADERS = st.builds(
    ledger.BlockHeader, index=UINTS, timestamp=UINTS, prev_hash=HASHES, tx_root=HASHES,
    sealer=ADDRESSES, state_root=HASHES,
)
ACCOUNTS = st.builds(
    registry.Account, address=ADDRESSES, role=st.sampled_from(Role), balance=UINTS, nonce=UINTS,
    last_faucet_claim=st.none() | UINTS, public_key=TEXT,
)
PRODUCTS = st.builds(
    registry.ProductRecord, product_id=TEXT, name=TEXT, metadata=TEXT, manufacturer=ADDRESSES,
    current_owner=ADDRESSES, status=st.sampled_from(Status),
    history=st.lists(ADDRESSES, max_size=3).map(tuple), registered_at=UINTS,
)
CONTRACTS = st.builds(registry.ContractInfo, address=ADDRESSES, deployer=ADDRESSES)
POSITIVE = st.integers(min_value=1, max_value=2**80)
GAS_PARAMS = st.builds(gas.GasParams, **{f.name: POSITIVE for f in fields(gas.GasParams)})
KEY_POOL = [support.key_for(f"codec:{i}") for i in range(5)]


@st.composite
def genesis_configs(draw):
    """A genesis that passes validate(): keys drawn from a fixed pool."""
    keys = draw(st.permutations(KEY_POOL))
    sealers = draw(st.integers(min_value=1, max_value=2))
    accounts = keys[sealers:sealers + draw(st.integers(min_value=0, max_value=3))]
    roles = {key.address: Role.AUTHORITY for key in keys[:sealers]}
    for key in accounts:
        roles[key.address] = draw(st.sampled_from(Role))
    return ledger.GenesisConfig(
        chain_id=draw(POSITIVE),
        authorities=tuple((key.address, key.public_key) for key in keys[:sealers]),
        roles=roles,
        initial_balances=draw(st.dictionaries(st.sampled_from(sorted(roles)), UINTS)),
        gas_params=draw(GAS_PARAMS),
        faucet_amount=draw(UINTS),
        faucet_cooldown=draw(UINTS),
        account_keys={key.address: key.public_key for key in accounts},
    )


MUTATIONS = st.builds(
    simnet.Mutation,
    target=UINTS,
    byte_offset=UINTS,
    new_byte=st.integers(min_value=0, max_value=255),
)
OPTIONAL_ROLES = ("distributor", "retailer", "consumer")
SCENARIOS = st.builds(
    simnet.Scenario,
    seed=st.integers(min_value=-(2**80), max_value=2**80),
    actors=st.fixed_dictionaries(
        {"manufacturer": POSITIVE, "authority": POSITIVE},
        optional=dict.fromkeys(OPTIONAL_ROLES, UINTS),
    ),
    products=UINTS,
    steps=UINTS,
    clock_step=UINTS,
    txs_per_block=POSITIVE,
    chain_id=POSITIVE,
    tamper_plan=st.none() | st.lists(MUTATIONS, max_size=2).map(tuple),
)
RECORDS = st.one_of(
    KINDS,
    ENVELOPES,
    HEADERS,
    st.builds(ledger.Block, header=HEADERS, txs=st.lists(ENVELOPES, max_size=2).map(tuple), seal=TEXT),
    ACCOUNTS,
    PRODUCTS,
    CONTRACTS,
    st.builds(
        registry.RegistryState,
        chain_id=st.integers(min_value=1, max_value=2**80),
        contract=st.none() | CONTRACTS,
        accounts=st.lists(ACCOUNTS, max_size=2).map(lambda a: {x.address: x for x in a}),
        products=st.lists(PRODUCTS, max_size=2).map(lambda p: {x.product_id: x for x in p}),
    ),
    genesis_configs(),
    GAS_PARAMS,
    MUTATIONS,
    SCENARIOS,
)


def decode(cls, doc):
    """The package's decoder for a record of class cls."""
    if cls is registry.RegistryState:
        return registry.state_from_canonical(doc)
    if cls in (ledger.Block, ledger.GenesisConfig, gas.GasParams):
        return cls.from_canonical(doc)
    if cls is simnet.Scenario:
        try:
            return cls.from_canonical(doc)
        except simnet.ScenarioInvalidError as exc:  # it wraps the decoder's ValueError
            raise ValueError(str(exc)) from exc
    if hasattr(cls, "TYPE"):
        return registry.kind_from_canonical(doc)
    return canonical._decode(cls, doc, "record")


class TestRecordCodec:
    """Every chain, state and config record decodes from its parsed canonical
    bytes to an equal record, and its decoder names any member that misfits.
    A scenario or gas-parameter member with a default may be left out."""

    # No explain phase: on a failing genesis example it ran for minutes.
    @settings(max_examples=300, deadline=None, phases=set(Phase) - {Phase.explain})
    @given(record=RECORDS, data=st.data())
    def test_round_trip_and_misfits(self, record, data):
        cls = type(record)
        encoded = registry.kind_to_canonical(record) if hasattr(cls, "TYPE") else record.to_canonical()
        doc = json.loads(canonical.canonical_serialize(encoded))
        assert decode(cls, doc) == record
        required = sorted(doc)
        if cls in (simnet.Scenario, gas.GasParams):
            required = [f.name for f in fields(cls) if f.default is MISSING]
        for member in required:
            dropped = {name: value for name, value in doc.items() if name != member}
            with pytest.raises(ValueError, match=member):
                decode(cls, dropped)
        with pytest.raises(ValueError, match=" has field"):
            decode(cls, dict(doc, unknown=0))
        wrong = data.draw(st.sampled_from([True, 1.5]))
        for member in doc:
            with pytest.raises(ValueError, match=member):
                decode(cls, dict(doc, **{member: wrong}))


class TestVerifyProduct:
    """What a scan reads: a product's record in the state, or its absence."""

    def test_unknown_id_reports_absent(self, registered):
        assert registered.products.get("GHOST-1") is None

    def test_full_walk_history(self, genesis, registered, keys):
        state = registered
        walk = [
            mktx(keys["manufacturer"], 2, Transfer(product_id="P-001", new_owner=keys["distributor"].address)),
            mktx(keys["distributor"], 0, Transfer(product_id="P-001", new_owner=keys["retailer"].address)),
            mktx(keys["retailer"], 0, Sell(product_id="P-001", consumer=keys["consumer"].address)),
        ]
        for i, tx in enumerate(walk):
            state, receipt = registry.apply_tx(state, tx, support.ctx_for(genesis, i + 3))
            assert receipt.accepted, receipt.error
        result = state.products["P-001"]
        assert result.status == Status.UNAVAILABLE
        assert result.history == (
            keys["manufacturer"].address,
            keys["distributor"].address,
            keys["retailer"].address,
            keys["consumer"].address,
        )
        assert result.manufacturer == keys["manufacturer"].address
        assert result.current_owner == keys["consumer"].address
