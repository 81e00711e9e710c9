import pytest

from acprov import ledger, oracle, registry, simnet
from acprov.canonical import Record
from acprov.registry import Deploy, FaucetClaim, Register, Sell, Transfer

import support

replace = Record.replace  # the record with the given fields changed

PRICE = 10**9


def both_commitments(genesis, txs, contexts):
    reg_state, _ = support.fold(genesis, txs, list(contexts))
    ref_state = oracle.reference_state_machine(txs, genesis, contexts)
    return registry.state_commitment(reg_state), oracle.reference_commitment(ref_state)


class TestBaseline:
    def test_empty_log_matches_genesis(self, genesis):
        ref = oracle.reference_state_machine([], genesis)
        assert oracle.reference_commitment(ref) == registry.state_commitment(
            ledger.genesis_state(genesis)
        )

    def test_default_contexts_mirror_single_tx_blocks(self, genesis, keys):
        txs = [
            registry.make_tx(keys["manufacturer"], 5, 0, Deploy(code_size=10), PRICE),
            registry.make_tx(keys["manufacturer"], 5, 1, FaucetClaim(), PRICE),
        ]
        explicit = support.default_contexts(genesis, len(txs))
        via_default = oracle.reference_state_machine(txs, genesis)
        via_explicit = oracle.reference_state_machine(txs, genesis, explicit)
        assert oracle.reference_commitment(via_default) == oracle.reference_commitment(
            via_explicit
        )


class TestScenarioLog:
    def test_lifecycle_chain_agrees_everywhere(self, tmp_path):
        scenario = simnet.Scenario(
            seed=42,
            actors={
                "manufacturer": 1,
                "distributor": 1,
                "retailer": 1,
                "consumer": 1,
                "authority": 1,
            },
            products=1,
        )
        result = simnet.run_scenario(scenario, tmp_path)
        txs, contexts = support.chain_tx_contexts(result.blocks)
        reg_commit, ref_commit = both_commitments(result.genesis, txs, contexts)
        assert reg_commit == ref_commit
        assert reg_commit == result.tip_commitment, (
            "fold disagrees with the sealed chain tip"
        )


class TestRejectionEquivalence:
    """Every receipt outcome, mirrored step by step on both machines."""

    def test_handcrafted_rejection_walk(self):
        genesis, keys = support.five_role_genesis()
        m, d, c = keys["manufacturer"], keys["distributor"], keys["consumer"]
        good_deploy = registry.make_tx(m, 5, 0, Deploy(code_size=10), PRICE)
        bad_sig = replace(good_deploy, signature="0x" + "0" * 128)
        txs = [
            bad_sig,                                                          # BadSignature
            registry.make_tx(m, 5, 7, Deploy(code_size=10), PRICE),          # BadNonce
            registry.make_tx(c, 5, 0, Deploy(code_size=10), PRICE),          # NotTrustedNode
            good_deploy,                                                      # accepted
            registry.make_tx(d, 5, 0, Deploy(code_size=10), PRICE),          # AlreadyDeployed
            registry.make_tx(d, 5, 1, Register(product_id="P-1", name="", metadata=""), PRICE),  # NotManufacturer
            registry.make_tx(m, 5, 1, Register(product_id="bad id", name="", metadata=""), PRICE),  # BadProductId
            registry.make_tx(m, 5, 2, Register(product_id="P-1", name="", metadata="é" * 513), PRICE),  # BadMetadata
            registry.make_tx(m, 5, 3, Register(product_id="P-1", name="W", metadata=""), PRICE),  # accepted
            registry.make_tx(m, 5, 4, Register(product_id="P-1", name="W", metadata=""), PRICE),  # DuplicateProductId
            registry.make_tx(m, 5, 5, Transfer(product_id="P-x", new_owner=d.address), PRICE),  # UnknownProduct
            registry.make_tx(d, 5, 2, Transfer(product_id="P-1", new_owner=d.address), PRICE),  # NotOwner
            registry.make_tx(m, 5, 6, Transfer(product_id="P-1", new_owner=c.address), PRICE),  # NotTrustedNode target
            registry.make_tx(m, 5, 7, Sell(product_id="P-1", consumer=d.address), PRICE),  # NotConsumer
            registry.make_tx(m, 5, 8, Sell(product_id="P-1", consumer=c.address), PRICE),  # accepted
            registry.make_tx(m, 5, 9, Sell(product_id="P-1", consumer=c.address), PRICE),  # ProductUnavailable
            registry.make_tx(c, 5, 1, FaucetClaim(), PRICE),                  # granted
            registry.make_tx(c, 5, 2, FaucetClaim(), PRICE),                  # FaucetCooldown
        ]
        contexts = [(i + 1, 1000 + i, genesis.authority_addresses[(i + 1) % 3]) for i in range(len(txs))]

        reg_state = ledger.genesis_state(genesis)
        ref_state = oracle.reference_genesis_state(genesis)
        seen = set()
        for tx, ctx in zip(txs, contexts):
            reg_state, receipt = registry.apply_tx(
                reg_state, tx, support.ctx_for(genesis, *ctx)
            )
            ref_state = oracle.reference_state_machine([tx], genesis, [ctx], initial=ref_state)
            assert registry.state_commitment(reg_state) == oracle.reference_commitment(
                ref_state
            ), f"divergence after {receipt.error or 'accepted'} tx"
            seen.add(receipt.error)
        expected_codes = {
            None,
            registry.BAD_SIGNATURE,
            registry.BAD_NONCE,
            registry.NOT_TRUSTED_NODE,
            registry.ALREADY_DEPLOYED,
            registry.NOT_MANUFACTURER,
            registry.BAD_PRODUCT_ID,
            registry.BAD_METADATA,
            registry.DUPLICATE_PRODUCT_ID,
            registry.UNKNOWN_PRODUCT,
            registry.NOT_OWNER,
            registry.NOT_CONSUMER,
            registry.PRODUCT_UNAVAILABLE,
            registry.FAUCET_COOLDOWN,
        }
        assert seen == expected_codes, f"walk missed codes: {expected_codes - seen}"

    def test_insufficient_funds_equivalence(self):
        genesis, keys = support.five_role_genesis()
        m = keys["manufacturer"]
        balances = dict(genesis.initial_balances)
        # first rejection pays the intrinsic fallback fee and drains the
        # account; the second cannot even afford that and settles nothing
        balances[m.address] = 25_000 * PRICE
        poor = replace(genesis, initial_balances=balances)
        deploy = registry.make_tx(keys["distributor"], 5, 0, Deploy(code_size=10), PRICE)
        register = registry.make_tx(m, 5, 0, Register(product_id="P-1", name="W", metadata=""), PRICE)
        broke_claim = registry.make_tx(m, 5, 1, Register(product_id="P-2", name="W", metadata=""), PRICE)
        txs = [deploy, register, broke_claim]
        contexts = support.default_contexts(poor, len(txs))
        reg_commit, ref_commit = both_commitments(poor, txs, contexts)
        assert reg_commit == ref_commit


class TestIncrementalFold:
    def test_initial_parameter_matches_flat_fold(self, genesis, keys):
        m = keys["manufacturer"]
        txs = [
            registry.make_tx(m, 5, 0, Deploy(code_size=10), PRICE),
            registry.make_tx(m, 5, 1, Register(product_id="P-1", name="W", metadata=""), PRICE),
            registry.make_tx(m, 5, 2, FaucetClaim(), PRICE),
        ]
        contexts = support.default_contexts(genesis, len(txs))
        flat = oracle.reference_state_machine(txs, genesis, contexts)
        head = oracle.reference_state_machine(txs[:1], genesis, contexts[:1])
        resumed = oracle.reference_state_machine(txs[1:], genesis, contexts[1:], initial=head)
        assert oracle.reference_commitment(flat) == oracle.reference_commitment(resumed)

    def test_initial_input_is_not_mutated(self, genesis, keys):
        m = keys["manufacturer"]
        tx = registry.make_tx(m, 5, 0, Deploy(code_size=10), PRICE)
        contexts = support.default_contexts(genesis, 1)
        base = oracle.reference_state_machine([], genesis)
        before = oracle.reference_commitment(base)
        oracle.reference_state_machine([tx], genesis, contexts, initial=base)
        assert oracle.reference_commitment(base) == before


class TestRandomizedSlice:
    """A fast slice of the full randomized equivalence suite."""

    @pytest.mark.parametrize("seed", range(5000, 5060))
    def test_commitments_agree(self, seed):
        case = support.random_log(seed)
        reg_commit, ref_commit = both_commitments(case.genesis, case.txs, case.contexts)
        assert reg_commit == ref_commit, f"log seed {seed} diverged"
