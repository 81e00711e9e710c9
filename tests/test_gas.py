from decimal import ROUND_HALF_UP, Decimal, localcontext
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acprov import canonical, gas, ledger, registry, simnet
from acprov.registry import Deploy, FaucetClaim, Register, Sell, Transfer

import support

PARAMS = gas.GasParams()


def decode_params(doc):
    """The gas parameters doc holds, decoded as the genesis decoder decodes
    its gas_params member."""
    return ledger.GenesisConfig.CHECKS["gas_params"](doc, "gas_params")


class TestParams:
    def test_defaults_are_positive(self):
        for name, value in PARAMS.to_canonical().items():
            assert value > 0, f"{name} must be positive"

    def test_zero_param_rejected(self):
        with pytest.raises(ValueError):
            gas.GasParams(base_tx=0)

    def test_canonical_round_trip(self):
        assert decode_params(PARAMS.to_canonical()) == PARAMS

    def test_unknown_param_rejected(self):
        doc = dict(PARAMS.to_canonical(), mystery=1)
        with pytest.raises(ValueError):
            decode_params(doc)


class TestMetering:
    def test_calldata_prices_zero_and_nonzero_bytes(self):
        assert gas.calldata_gas(b"\x00\x01\x00\xff", PARAMS) == 4 + 16 + 4 + 16

    @settings(max_examples=300, deadline=None)
    @given(
        data=st.binary(max_size=2048),
        zero=st.integers(min_value=1, max_value=10**6),
        nonzero=st.integers(min_value=1, max_value=10**6),
    )
    def test_calldata_matches_per_byte_definition(self, data, zero, nonzero):
        params = gas.GasParams(calldata_zero_byte=zero, calldata_nonzero_byte=nonzero)
        per_byte = sum(zero if byte == 0 else nonzero for byte in data)
        assert gas.calldata_gas(data, params) == per_byte

    def test_faucet_intrinsic_by_hand(self):
        # canonical kind bytes are {"type":"faucet_claim"}: 23 bytes, none zero
        kind_bytes = canonical.canonical_serialize(canonical._canonical(FaucetClaim()))
        assert len(kind_bytes) == 23
        assert gas.intrinsic_gas(kind_bytes, PARAMS) == 21_000 + 23 * 16

    def test_deploy_storage_scales_with_code_size(self):
        small = Deploy(code_size=1)
        big = Deploy(code_size=1001)
        assert big.storage_gas(PARAMS) - small.storage_gas(PARAMS) == 1000 * 200

    def test_slot_counts(self):
        register = Register(product_id="P", name="n", metadata="")
        transfer = Transfer(product_id="P", new_owner="0x" + "0" * 40)
        sell = Sell(product_id="P", consumer="0x" + "0" * 40)
        assert register.storage_gas(PARAMS) == 3 * 20_000
        assert transfer.storage_gas(PARAMS) == 5_000 + 20_000
        assert sell.storage_gas(PARAMS) == 2 * 5_000 + 20_000

    def test_fee_is_exact_product(self):
        assert gas.fee(21_000, 1_100_000_000) == 23_100_000_000_000
        with pytest.raises(ValueError):
            gas.fee(-1, 1)


class TestGasForTx:
    """Gas and fees as apply_tx meters them on receipts."""

    def test_rejected_tx_meters_intrinsic_only(self, genesis, state, keys):
        # a consumer may not deploy, so no storage gas is charged
        tx = registry.make_tx(keys["consumer"], 5, 0, Deploy(code_size=2000), 10**9)
        doc = canonical._canonical(tx.kind)
        _, receipt = registry.apply_tx(state, tx, support.ctx_for(genesis))
        assert receipt.error == registry.NOT_TRUSTED_NODE
        assert receipt.gas_used == gas.intrinsic_gas(canonical.canonical_serialize(doc), PARAMS)

    def test_accepted_tx_adds_storage(self, genesis, state, keys):
        tx = registry.make_tx(keys["manufacturer"], 5, 0, Deploy(code_size=2000), 10**9)
        kind_bytes = canonical.canonical_serialize(canonical._canonical(tx.kind))
        expected = gas.intrinsic_gas(kind_bytes, PARAMS) + tx.kind.storage_gas(PARAMS)
        _, receipt = registry.apply_tx(state, tx, support.ctx_for(genesis))
        assert receipt.accepted
        assert receipt.gas_used == expected

    def test_faucet_is_free(self, genesis, state, keys):
        # free when granted and when refused by the cooldown alike
        for nonce in (0, 1):
            tx = registry.make_tx(keys["consumer"], 5, nonce, FaucetClaim(), 10**9)
            state, receipt = registry.apply_tx(state, tx, support.ctx_for(genesis))
            assert (receipt.gas_used, receipt.fee) == (0, 0)
        assert receipt.error == registry.FAUCET_COOLDOWN


class TestSettle:
    """Fee settlement as apply_tx performs it."""

    def test_moves_fee_and_conserves_supply(self, genesis, state, keys):
        payer, sealer = keys["manufacturer"].address, keys["authority"].address
        tx = registry.make_tx(keys["manufacturer"], 5, 0, Deploy(code_size=10), 10**9)
        after, receipt = registry.apply_tx(state, tx, support.ctx_for(genesis, sealer=sealer))
        assert receipt.fee > 0
        assert after.accounts[payer].balance == state.accounts[payer].balance - receipt.fee
        assert after.accounts[sealer].balance == state.accounts[sealer].balance + receipt.fee
        assert support.supply(after) == support.supply(state)

    def test_zero_fee_is_identity(self, genesis, state, keys):
        # a zero gas price settles nothing: every balance stays as it was
        tx = registry.make_tx(keys["manufacturer"], 5, 0, Deploy(code_size=10), 0)
        after, receipt = registry.apply_tx(state, tx, support.ctx_for(genesis))
        assert receipt.accepted and receipt.fee == 0
        assert {a: acct.balance for a, acct in after.accounts.items()} == {
            a: acct.balance for a, acct in state.accounts.items()
        }


class TestFormatting:
    def test_format_eth_rounds_half_up(self):
        assert gas.format_eth(5_000_000_000) == "0.00000001"
        assert gas.format_eth(4_999_999_999) == "0.00000000"

    def test_format_eth_known_value(self):
        assert gas.format_eth(646_949_600_000_000) == "0.00064695"

    @settings(max_examples=500, deadline=None)
    @given(
        wei=st.integers(min_value=0, max_value=10**60)
        | st.integers(min_value=0, max_value=10**12)
        | st.integers(min_value=0, max_value=10**50).map(lambda units: units * 10**10 + 5 * 10**9)  # halves
    )
    def test_format_eth_matches_decimal_rounding(self, wei):
        """The integer formatting is Decimal's half-up rounding with enough
        digits, also for fees far past Decimal's default 28."""
        with localcontext() as context:
            context.prec = 100
            value = (Decimal(wei) / gas.WEI_PER_ETH).quantize(Decimal("0.00000001"), rounding=ROUND_HALF_UP)
        assert gas.format_eth(wei) == f"{value:.8f}"


def tx_of(kind):
    """As much of an envelope of kind as gas.tally reads."""
    return SimpleNamespace(kind=kind)


def receipt(gas_used, fee):
    return registry.Receipt(tx_hash=canonical.ZERO_HASH, accepted=True, gas_used=gas_used, fee=fee)


class TestReport:
    def test_aggregation_and_averages(self):
        txs = [tx_of(Deploy(code_size=1)), tx_of(Sell("P-1", "0x" + "11" * 20)), tx_of(Deploy(code_size=2))]
        receipts = [receipt(100, 1_000), receipt(50, 500), receipt(200, 2_000)]
        totals = gas.tally(gas.tally(gas.NO_GAS, txs[:1], receipts[:1]), txs[1:], receipts[1:])
        assert gas.NO_GAS["Deploy"] == (0, 0, 0), "tally leaves the totals it is handed"
        report = gas.build_report(totals)
        by_cat = {row.category: row for row in report.rows}
        assert by_cat["Deploy"].tx_count == 2
        assert by_cat["Deploy"].total_gas == 300
        assert by_cat["Deploy"].avg_gas_per_tx == 150
        assert by_cat["Register"].tx_count == 0
        assert by_cat["Register"].avg_gas_per_tx == 0
        assert report.total.tx_count == 3
        assert report.total.total_gas == 350
        assert report.total.total_fee == 3_500

    def test_csv_shape(self):
        report = gas.build_report({**gas.NO_GAS, "Register": (1, 60_000, 66_000_000_000_000)})
        lines = report.to_csv().splitlines()
        assert lines[0] == "category,tx_count,total_gas,avg_gas_per_tx,total_fee_wei,total_fee_eth"
        assert lines[1].startswith("Deploy,0,")
        assert lines[2] == "Register,1,60000,60000,66000000000000,0.00006600"
        assert lines[-1].startswith("TOTAL,1,")
        assert report.to_csv().endswith("\n")

    def test_unknown_category_rejected(self):
        class Mint:
            pass

        with pytest.raises(KeyError):
            gas.tally(gas.NO_GAS, [tx_of(Mint())], [receipt(1, 1)])


class TestCostModelChain:
    """Frozen gas anchors for the canonical deploy/register/sell chain."""

    def test_per_category_gas(self):
        _, _, totals = simnet.build_cost_model_chain()
        report = gas.build_report(totals)
        by_cat = {row.category: row for row in report.rows}
        assert by_cat["Deploy"].total_gas == 453_544
        assert by_cat["Register"].total_gas == 82_120
        assert by_cat["Sell"].total_gas == 52_472
        assert report.total.total_gas == 588_136

    def test_fee_at_default_price(self):
        _, _, totals = simnet.build_cost_model_chain()
        report = gas.build_report(totals)
        assert report.total.total_fee == 588_136 * gas.DEFAULT_GAS_PRICE
