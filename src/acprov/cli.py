"""Command line interface.

Exit codes are part of the contract: 0 success, 1 chain or validation
failure (including rejected transactions), 2 usage error, 3 negative
verification (unknown product, suspected counterfeit, or a payload
bound to a different chain or contract).

Machine-facing output (receipts, reports, validation verdicts) goes to
stdout and is deterministic given the chain; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
from pathlib import Path
from typing import List, Optional

from . import gas as gas_model
from . import ledger, qr, registry
from .canonical import from_hex
from .crypto import KeyPair

EXIT_OK = 0
EXIT_CHAIN_FAILURE = 1
EXIT_USAGE = 2
EXIT_VERIFICATION_NEGATIVE = 3


class UsageError(Exception):
    pass


@contextlib.contextmanager
def _reading():
    """Reads of input files: one that exists but cannot be read (a
    directory, no permission) is a usage error; a missing one is left
    to main's "file not found"."""
    try:
        yield
    except FileNotFoundError:
        raise
    except OSError as exc:
        raise UsageError(f"cannot read {exc.filename}: {exc.strerror}") from None


@contextlib.contextmanager
def _writing(path):
    """Writes of output files: any failure (a directory in the way, a
    missing parent, no permission) is a usage error naming the path."""
    try:
        yield
    except OSError as exc:
        raise UsageError(f"cannot write {exc.filename or path}: {exc.strerror}") from None


def _load_key(path) -> KeyPair:
    try:
        with _reading():
            text = Path(path).read_text(encoding="utf-8")
        doc = json.loads(text)
        key = KeyPair.from_seed(from_hex(doc["secret_key"]))
        if key.public_key != doc["public_key"]:
            raise ValueError("secret_key does not derive public_key")
    # ValueError covers bad UTF-8 and JSON, RecursionError JSON nested too deeply
    except (ValueError, KeyError, TypeError, RecursionError) as exc:
        raise UsageError(f"not a key file: {path} ({exc})") from exc
    if doc.get("address") != key.address:
        raise UsageError(f"key file {path} address does not match its public key")
    return key


def _write_key(path: Path, key: KeyPair, role: registry.Role) -> None:
    doc = {
        "address": key.address,
        "public_key": key.public_key,
        "role": role.value,
        "secret_key": key.secret_key,
    }
    try:  # created owner-only, and never over an existing file
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o600)
    except FileExistsError:
        raise UsageError(f"key file already exists: {path}") from None
    with os.fdopen(fd, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _load_genesis(args) -> ledger.GenesisConfig:
    with _reading():
        return ledger.GenesisConfig.load(args.genesis)


def _open(args, genesis: ledger.GenesisConfig, opener, cut: bool = False):
    """opener(args.db, genesis): ledger.open_store for the reads and tx,
    ledger.load_chain for the full replay of validate and repair.

    Only the writers, tx and repair, cut: a torn last line, an append cut
    short, is truncated (see ledger.cut_torn_tail), said so, and the file
    opened again.  So a read of a torn chain still fails.
    """
    with _reading():
        try:
            return opener(args.db, genesis)
        except ledger.TornTailError as torn:
            if not cut:
                raise
            if ledger.cut_torn_tail(args.db, torn):
                print(
                    f"warning: {args.db} ended in an interrupted append; truncated it to "
                    f"{torn.intact_bytes} bytes (resend the lost block's transactions)",
                    file=sys.stderr,
                )
            return opener(args.db, genesis)


def _read(args) -> ledger.LedgerStore:
    """The store a read answers from."""
    return _open(args, _load_genesis(args), ledger.open_store)


# ---------------------------------------------------------------------------
# Subcommands


def cmd_init(args) -> int:
    genesis_path = Path(args.genesis)
    db_path = Path(args.db)
    if genesis_path.exists():
        raise UsageError(f"genesis file already exists: {genesis_path}")
    if db_path.exists():
        raise UsageError(f"chain file already exists: {db_path}")
    authorities = []
    roles = {}
    account_keys = {}
    for entry in [f"{key_file}:authority" for key_file in args.authority] + args.account:
        if ":" not in entry:
            raise UsageError(f"--account expects KEYFILE:ROLE, got {entry!r}")
        key_file, role_name = entry.rsplit(":", 1)
        try:
            role = registry.Role(role_name)
        except ValueError:
            raise UsageError(f"unknown role {role_name!r}") from None
        key = _load_key(key_file)
        if key.address in roles:
            raise UsageError(f"{key_file} names account {key.address} a second time")
        roles[key.address] = role
        if role is not registry.Role.AUTHORITY:
            account_keys[key.address] = key.public_key
        else:
            authorities.append((key.address, key.public_key))
    balances = {}
    for entry in args.fund:
        if "=" not in entry:
            raise UsageError(f"--fund expects ADDRESS=WEI, got {entry!r}")
        address, amount = entry.split("=", 1)
        if address in balances:
            raise UsageError(f"--fund names {address} a second time")
        try:
            balances[address] = int(amount)
        except ValueError:
            raise UsageError(f"--fund amount must be an integer, got {amount!r}") from None
    genesis = ledger.GenesisConfig(
        chain_id=args.chain_id,
        authorities=tuple(authorities),
        roles=roles,
        initial_balances=balances,
        account_keys=account_keys,
        faucet_amount=args.faucet_amount,
        faucet_cooldown=args.faucet_cooldown,
    )
    try:
        genesis.validate()
    except ValueError as exc:
        raise UsageError(f"invalid genesis: {exc}") from None
    with _writing(genesis_path):
        genesis.save(genesis_path)
    try:
        store = ledger.create_store(db_path, genesis)
    except Exception:
        genesis_path.unlink()  # a retry must not find a half-made chain's genesis
        raise
    ledger.checkpoint(store)  # the first tx opens at a tip sidecar
    print(f"chain_id: {genesis.chain_id}")
    print(f"genesis: {genesis_path}")
    print(f"db: {db_path}")
    print(f"tip: {store.tip.state_root}")
    return EXIT_OK


def cmd_keygen(args) -> int:
    try:
        role = registry.Role(args.role)
    except ValueError:
        raise UsageError(f"unknown role {args.role!r}") from None
    out_path = Path(args.out)
    key = KeyPair.generate()
    with _writing(out_path):
        _write_key(out_path, key, role)
    print(key.address)
    print(
        f"warning: {out_path} holds an unencrypted secret key; guard it",
        file=sys.stderr,
    )
    return EXIT_OK


def _resolve_sealer(args, store: ledger.LedgerStore, sender_key: KeyPair) -> KeyPair:
    due = store.genesis.sealer_of(store.tip.index + 1)
    if args.sealer_key:
        key = _load_key(args.sealer_key)
        if key.address != due:
            raise UsageError(f"block {store.tip.index + 1} is {due}'s turn to seal")
        return key
    if sender_key.address == due:
        return sender_key
    key_dir = Path(args.key).resolve().parent
    for candidate in sorted(key_dir.glob("*.json")):
        try:
            key = _load_key(candidate)
        except (UsageError, OSError):
            continue
        if key.address == due:
            return key
    raise UsageError(
        f"no key for the due sealer {due}; pass --sealer-key"
    )


def _build_kind(args, params: gas_model.GasParams) -> registry.TxKind:
    if args.tx_command == "deploy":
        code_size = args.code_size if args.code_size is not None else params.default_code_size
        return registry.Deploy(code_size=code_size)
    if args.tx_command == "register":
        return registry.Register(product_id=args.id, name=args.name, metadata=args.metadata)
    if args.tx_command == "transfer":
        return registry.Transfer(product_id=args.id, new_owner=args.to)
    if args.tx_command == "sell":
        return registry.Sell(product_id=args.id, consumer=args.to)
    if args.tx_command == "faucet":
        return registry.FaucetClaim()
    raise UsageError(f"unknown tx command {args.tx_command!r}")


def cmd_tx(args) -> int:
    genesis = _load_genesis(args)
    store = _open(args, genesis, ledger.open_store, cut=True)
    sender_key = _load_key(args.key)
    account = store.state.accounts.get(sender_key.address)
    if account is None:
        raise UsageError(f"sender {sender_key.address} is not a genesis account")
    kind = _build_kind(args, genesis.gas_params)
    gas_price = (
        args.gas_price * gas_model.WEI_PER_GWEI
        if args.gas_price is not None
        else genesis.gas_params.default_gas_price
    )
    timestamp = (
        args.timestamp if args.timestamp is not None else store.tip.timestamp + 1
    )
    sealer_key = _resolve_sealer(args, store, sender_key)
    if timestamp < store.tip.timestamp:
        raise UsageError(
            f"timestamp {timestamp} precedes parent timestamp {store.tip.timestamp}"
        )
    try:
        tx = registry.make_tx(sender_key, genesis.chain_id, account.nonce, kind, gas_price)
        block, (receipt,) = ledger.extend(store, [tx], sealer_key, timestamp)
    except ValueError as exc:  # a member no block may hold: the loader would refuse it
        raise UsageError(f"bad transaction: {exc}") from None
    ledger.checkpoint(store)  # the next read walks no block
    doc = receipt.to_canonical()
    doc["block_index"] = block.header.index
    print(json.dumps(doc, sort_keys=True))
    return EXIT_OK if receipt.accepted else EXIT_CHAIN_FAILURE


def _counterfeit(product_id: str) -> int:
    print(f"SUSPECTED COUNTERFEIT: product {product_id!r} is not in the registry")
    return EXIT_VERIFICATION_NEGATIVE


def cmd_verify(args) -> int:
    try:
        payload = qr.decode_payload(args.qr)
    except qr.PayloadError as exc:
        raise UsageError(f"bad payload: {exc}") from None
    store = _read(args)
    genesis, state = store.genesis, store.state
    if payload.chain_id != genesis.chain_id:
        print(
            f"REGISTRY MISMATCH: payload is for chain {payload.chain_id}, "
            f"this chain is {genesis.chain_id}"
        )
        return EXIT_VERIFICATION_NEGATIVE
    if state.contract is None or payload.contract != state.contract.address:
        print("REGISTRY MISMATCH: payload contract does not match this registry")
        return EXIT_VERIFICATION_NEGATIVE
    product = state.products.get(payload.product_id)
    if product is None:
        return _counterfeit(payload.product_id)
    print(f"product: {payload.product_id}")
    print(f"status: {product.status.value}")
    print(f"manufacturer: {product.manufacturer}")
    print(f"current_owner: {product.current_owner}")
    print("history: " + " ".join(product.history))
    return EXIT_OK


def cmd_history(args) -> int:
    product = _read(args).state.products.get(args.id)
    if product is None:
        return _counterfeit(args.id)
    for position, owner in enumerate(product.history):
        print(f"{position} {owner}")
    return EXIT_OK


def cmd_qr(args) -> int:
    if not registry.is_valid_product_id(args.id):
        raise UsageError(f"invalid product id {args.id!r}")
    store = _read(args)
    if args.id not in store.state.products:
        return _counterfeit(args.id)
    print(qr.encode_payload(store.genesis.chain_id, store.state.contract.address, args.id))
    return EXIT_OK


def cmd_gas_report(args) -> int:
    csv_text = gas_model.build_report(_read(args).gas).to_csv()
    if args.csv:
        with _writing(args.csv):
            Path(args.csv).write_text(csv_text, encoding="utf-8")
    sys.stdout.write(csv_text)
    return EXIT_OK


def cmd_validate(args, cut: bool = False) -> int:
    genesis = _load_genesis(args)
    try:
        store = _open(args, genesis, ledger.load_chain, cut)
    except ledger.TornTailError as exc:
        print(
            f"INVALID block={exc.line_number - 1} rule=torn_tail "
            f"detail=line {exc.line_number} is an interrupted append; "
            f"truncate the file to {exc.intact_bytes} bytes to recover"
        )
        return EXIT_CHAIN_FAILURE
    except ledger.ParseError as exc:
        print(
            f"INVALID block={exc.line_number - 1} rule=parse "
            f"detail=line {exc.line_number} is not a canonical block"
        )
        return EXIT_CHAIN_FAILURE
    except ledger.ValidationFailedError as exc:
        report = exc.report
        print(f"INVALID block={report.block_index} rule={report.rule} detail={report.detail}")
        return EXIT_CHAIN_FAILURE
    print(f"OK blocks={store.tip.index + 1} tip={store.tip.state_root}")
    return EXIT_OK


def cmd_repair(args) -> int:
    """Cut a torn tail off the chain as tx does, append nothing, and report
    as validate does.  Any other corruption is left as it is, and the file
    is read again only after a cut."""
    return cmd_validate(args, cut=True)


def cmd_simulate(args) -> int:
    from . import simnet  # only this command needs it; the others start faster

    try:
        with _reading():
            scenario = simnet.Scenario.load(args.scenario)
        if args.seed is not None:
            scenario = scenario.replace(seed=args.seed)
            scenario.validate()
        with _writing(args.out):
            result = simnet.run_scenario(scenario, args.out)
    except simnet.ScenarioInvalidError as exc:
        raise UsageError(f"invalid scenario: {exc}") from None
    tx_count = sum(len(block.txs) for block in result.blocks)
    print(f"blocks: {len(result.blocks)}")
    print(f"txs: {tx_count}")
    print(f"trace_events: {len(result.trace)}")
    print(f"tip: {result.tip_commitment}")
    print(f"chain: {result.chain_path}")
    print(f"trace: {result.trace_path}")
    print(f"genesis: {result.genesis_path}")
    if scenario.tamper_plan:
        print(f"tampered_blocks: {sorted({m.target for m in scenario.tamper_plan})}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="acprov",
        description="Proof-of-authority product provenance ledger",
    )
    parser.add_argument("--db", default="chain.jsonl", help="ledger file (one block per line)")
    parser.add_argument("--genesis", default="genesis.json", help="genesis config file")
    sub = parser.add_subparsers(dest="command", required=True)

    p_init = sub.add_parser("init", help="create a genesis file and an empty chain")
    p_init.add_argument("--chain-id", type=int, default=5)
    p_init.add_argument(
        "--authority", action="append", required=True, metavar="KEYFILE",
        help="authority key file; repeat for more sealers (order fixes the schedule)",
    )
    p_init.add_argument(
        "--account", action="append", default=[], metavar="KEYFILE:ROLE",
        help="additional account with role manufacturer|distributor|retailer|consumer",
    )
    p_init.add_argument(
        "--fund", action="append", default=[], metavar="ADDRESS=WEI",
        help="initial balance for an account",
    )
    p_init.add_argument("--faucet-amount", type=int, default=5 * 10**17)
    p_init.add_argument("--faucet-cooldown", type=int, default=86_400)
    p_init.set_defaults(func=cmd_init)

    p_keygen = sub.add_parser("keygen", help="create a key pair and print the address")
    p_keygen.add_argument("--role", required=True)
    p_keygen.add_argument("--out", required=True, help="where to write the key file")
    p_keygen.set_defaults(func=cmd_keygen)

    p_tx = sub.add_parser("tx", help="sign a transaction and seal it into a new block")
    tx_sub = p_tx.add_subparsers(dest="tx_command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--key", required=True, help="sender key file")
    common.add_argument("--gas-price", type=int, help="gas price in gwei (default from genesis)")
    common.add_argument("--sealer-key", help="key file of the due authority")
    common.add_argument("--timestamp", type=int, help="logical block timestamp")

    p_deploy = tx_sub.add_parser("deploy", parents=[common])
    p_deploy.add_argument("--code-size", type=int, help="contract code size in bytes")
    p_register = tx_sub.add_parser("register", parents=[common])
    p_register.add_argument("--id", required=True, help="product id")
    p_register.add_argument("--name", required=True)
    p_register.add_argument("--metadata", default="")
    p_transfer = tx_sub.add_parser("transfer", parents=[common])
    p_transfer.add_argument("--id", required=True)
    p_transfer.add_argument("--to", required=True, help="new owner address (trusted node)")
    p_sell = tx_sub.add_parser("sell", parents=[common])
    p_sell.add_argument("--id", required=True)
    p_sell.add_argument("--to", required=True, help="consumer address")
    tx_sub.add_parser("faucet", parents=[common])
    p_tx.set_defaults(func=cmd_tx)

    p_verify = sub.add_parser("verify", help="verify a scanned QR payload")
    p_verify.add_argument("--qr", required=True, help="payload string")
    p_verify.set_defaults(func=cmd_verify)

    p_history = sub.add_parser("history", help="print a product's owner history")
    p_history.add_argument("--id", required=True)
    p_history.set_defaults(func=cmd_history)

    p_qr = sub.add_parser("qr", help="print a registered product's QR payload")
    p_qr.add_argument("--id", required=True)
    p_qr.set_defaults(func=cmd_qr)

    p_report = sub.add_parser("gas-report", help="emit the per-category gas report")
    p_report.add_argument("--csv", help="also write the report to this path")
    p_report.set_defaults(func=cmd_gas_report)

    p_validate = sub.add_parser("validate", help="check every chain invariant")
    p_validate.set_defaults(func=cmd_validate)

    p_repair = sub.add_parser(
        "repair", help="cut an interrupted append off the chain, then validate it"
    )
    p_repair.set_defaults(func=cmd_repair)

    p_sim = sub.add_parser("simulate", help="run a scenario")
    p_sim.add_argument("--scenario", required=True, help="scenario JSON file")
    p_sim.add_argument("--seed", type=int, help="override the scenario seed")
    p_sim.add_argument("--out", default="simout", help="output directory")
    p_sim.set_defaults(func=cmd_simulate)
    return parser


def _write_stdout(text: str) -> None:
    """Write and flush what the command printed.  A write that fails (a
    closed pipe, a full disk) is a usage error, and what it left unwritten
    is dropped, so that the interpreter's exit does not try it again."""
    with _writing("standard output"):
        try:
            sys.stdout.write(text)
            sys.stdout.flush()
        except OSError:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            raise


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    printed = io.StringIO()  # the command's stdout, written out when it ends
    try:
        try:
            with contextlib.redirect_stdout(printed):
                return args.func(args)
        finally:
            _write_stdout(printed.getvalue())
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        missing = exc.filename if exc.filename else exc
        print(f"error: file not found: {missing}", file=sys.stderr)
        return EXIT_USAGE
    except ledger.ParseError as exc:
        print(f"error: corrupt file: {exc}", file=sys.stderr)
        return EXIT_CHAIN_FAILURE
    except ledger.ValidationFailedError as exc:
        report = exc.report
        print(
            f"error: invalid chain: block={report.block_index} "
            f"rule={report.rule} detail={report.detail}",
            file=sys.stderr,
        )
        return EXIT_CHAIN_FAILURE
    except ledger.StorageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
