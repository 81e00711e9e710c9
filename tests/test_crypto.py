import hashlib
import os
import signal
import sys
import time

import pytest
from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PublicKey
from hypothesis import given, settings
from hypothesis import strategies as st

from acprov import crypto
from acprov.canonical import from_hex

import support

# Ed25519 test vector 1 (empty message) from the signature scheme's
# original published vectors.
TV1_SECRET = bytes.fromhex(
    "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60"
)
TV1_PUBLIC = "0xd75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a"
TV1_SIG = (
    "0xe5564300c360ac729086e2cc806e828a"
    "84877f1eb8e5d974d873e06522490155"
    "5fb8821590a33bacc61e39701cf9b46b"
    "d25bf5f0595bbe24655141438e7a100b"
)


class TestKeyPair:
    def test_known_vector_public_key(self):
        kp = crypto.KeyPair.from_seed(TV1_SECRET)
        assert kp.public_key == TV1_PUBLIC

    def test_known_vector_signature(self):
        kp = crypto.KeyPair.from_seed(TV1_SECRET)
        assert kp.sign(b"") == TV1_SIG

    def test_sign_verify_round_trip(self):
        kp = crypto.KeyPair.from_seed(b"\x01" * 32)
        msg = b"state transition payload"
        assert crypto.verify(kp.public_key, msg, kp.sign(msg))

    def test_seed_length_enforced(self):
        with pytest.raises(ValueError):
            crypto.KeyPair.from_seed(b"\x01" * 31)

    def test_repr_hides_the_secret_key(self):
        kp = crypto.KeyPair.from_seed(TV1_SECRET)
        assert kp.public_key in repr(kp)
        assert TV1_SECRET.hex() not in repr(kp)

    def test_generate_produces_distinct_keys(self):
        a, b = crypto.KeyPair.generate(), crypto.KeyPair.generate()
        assert a.secret_key != b.secret_key


class TestVerify:
    def test_rejects_flipped_message_bit(self):
        kp = crypto.KeyPair.from_seed(b"\x02" * 32)
        sig = kp.sign(b"hello")
        assert not crypto.verify(kp.public_key, b"hellp", sig)

    def test_rejects_flipped_signature_bit(self):
        kp = crypto.KeyPair.from_seed(b"\x03" * 32)
        sig = kp.sign(b"hello")
        raw = bytearray(from_hex(sig))
        raw[0] ^= 0x01
        bad = "0x" + raw.hex()
        assert not crypto.verify(kp.public_key, b"hello", bad)

    def test_rejects_wrong_key(self):
        a = crypto.KeyPair.from_seed(b"\x04" * 32)
        b = crypto.KeyPair.from_seed(b"\x05" * 32)
        sig = a.sign(b"hello")
        assert not crypto.verify(b.public_key, b"hello", sig)

    def test_garbage_inputs_return_false(self):
        kp = crypto.KeyPair.from_seed(b"\x06" * 32)
        assert not crypto.verify("", b"x", kp.sign(b"x"))
        assert not crypto.verify(kp.public_key, b"x", "0x00")
        assert not crypto.verify("0x1234", b"x", "not-hex")


class TestAddress:
    def test_trailing_twenty_bytes_of_key_digest(self):
        kp = crypto.KeyPair.from_seed(b"\x07" * 32)
        digest = hashlib.sha256(from_hex(kp.public_key)).digest()
        assert kp.address == "0x" + digest[-20:].hex()

    def test_shape(self):
        kp = crypto.KeyPair.from_seed(b"\x08" * 32)
        assert len(kp.address) == 42 and kp.address.startswith("0x")

    def test_distinct_keys_distinct_addresses(self):
        seen = {crypto.KeyPair.from_seed(bytes([i]) * 32).address for i in range(1, 30)}
        assert len(seen) == 29, "address derivation collided on trivial seeds"


def reference_verify(public_key, message, signature):
    """A one-off check with no memo, straight from the library."""
    try:
        key = Ed25519PublicKey.from_public_bytes(from_hex(public_key))
        key.verify(from_hex(signature), message)
        return True
    except (InvalidSignature, ValueError):
        return False


SIGNERS = [crypto.KeyPair.from_seed(bytes([i]) * 32) for i in range(10, 13)]


def flip_bit(data: bytes, bit: int) -> bytes:
    raw = bytearray(data)
    raw[bit // 8 % len(raw)] ^= 1 << bit % 8
    return bytes(raw)


@st.composite
def checks(draw):
    """One (public_key, message, signature), good or spoiled in one way."""
    signer = draw(st.sampled_from(SIGNERS))
    message = draw(st.binary(min_size=1, max_size=40))
    signature = signer.sign(message)
    spoil = draw(
        st.sampled_from(("good", "message", "other_key", "non_hex", "short_sig", "short_key"))
    )
    key = signer.public_key
    if spoil == "message":
        message = flip_bit(message, draw(st.integers(0, 319)))
    elif spoil == "other_key":
        key = draw(st.sampled_from([s.public_key for s in SIGNERS if s is not signer]))
    elif spoil == "non_hex":
        signature = "0x" + draw(st.sampled_from(("zz", "g" * 128, "0x"))) + signature[2:]
    elif spoil == "short_sig":
        signature = signature[: draw(st.integers(0, len(signature) - 2))]
    elif spoil == "short_key":
        key = key[: draw(st.integers(0, len(key) - 2))]
    return key, message, signature


@pytest.fixture()
def forking(monkeypatch):
    """An empty memo, two usable CPUs, and a worker for a single item."""
    monkeypatch.setattr(crypto, "_memo", {})
    monkeypatch.setattr(crypto, "_MIN_CHECKS_PER_WORKER", 1)
    monkeypatch.setattr(crypto, "_usable_cpus", lambda: 2)
    return monkeypatch


def ahead_agrees(items, before_verify=lambda: None):
    """verify_ahead answers every item, and as the library does: inside the
    block an answer is the library's or, once the batch has assumed, True;
    settle is True iff every listed item is valid (with no worker nothing
    is listed); after the block every answer is the library's, and
    memoized."""
    reference = [reference_verify(*item) for item in items]
    with crypto.verify_ahead(items) as batch:
        before_verify()
        inside = [crypto.verify(*item) for item in items]
        assert all(ok in (expected, True) for ok, expected in zip(inside, reference))
        assert inside == reference or batch.assumed
        listed = [ok for item, ok in zip(items, reference) if item in crypto._positions]
        assert batch.settle() is all(listed)
    assert [crypto.verify(*item) for item in items] == reference
    assert all(item in crypto._memo for item in items)


def unmemoized(items):
    """items, with the memo emptied of what signing them put there, so that
    a worker or the caller checks each one for real."""
    crypto._memo.clear()
    return items


def signed_items(count):
    """count distinct valid items, spread over the signers."""
    return [
        (signer.public_key, n.to_bytes(2, "big"), signer.sign(n.to_bytes(2, "big")))
        for n, signer in zip(range(count), SIGNERS * count)
    ]


def without_state_byte(slots, position, data):
    """What a faulty worker leaves in a slot: its bytes, no state byte."""
    start = position * (1 + len(data)) + 1
    slots._map[start : start + len(data)] = data


def answers_without_state_byte(items, slots, positions):
    """A faulty worker: the answer byte of every slot, no state byte."""
    for position in range(positions[0] + 1):
        without_state_byte(slots, position, bytes([reference_verify(*items[position])]))


class TestVerifyBatch:
    """verify_ahead: a batch that forked workers check from the back while
    the caller verifies from the front."""

    @pytest.mark.parametrize("cpus", [1, 2])
    @settings(max_examples=40, deadline=None)
    @given(items=st.lists(checks(), max_size=12))
    def test_answers_equal_one_off_checks(self, cpus, items):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(crypto, "_memo", {})
            patch.setattr(crypto, "_MIN_CHECKS_PER_WORKER", 1)
            patch.setattr(crypto, "_usable_cpus", lambda: cpus)
            checked = support.count_calls(patch, crypto, "_check")
            ahead_agrees(items, support.verify_workers_finished)
            # With a worker, every answer the caller reads is the worker's.
            assert len(checked) == (0 if cpus == 2 else len(set(items)))

    def test_one_cpu_never_forks(self, forking):
        forking.setattr(crypto, "_usable_cpus", lambda: 1)
        forking.setattr(os, "fork", lambda: pytest.fail("forked with one CPU"))
        ahead_agrees(unmemoized([(s.public_key, b"m", s.sign(b"m")) for s in SIGNERS]))

    def test_small_batches_stay_in_process(self, monkeypatch):
        monkeypatch.setattr(crypto, "_memo", {})
        monkeypatch.setattr(crypto, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked for a small batch"))
        ahead_agrees(unmemoized(signed_items(crypto._MIN_CHECKS_PER_WORKER - 1)))

    def test_other_threads_stay_in_process(self, forking):
        forking.setattr(crypto.threading, "active_count", lambda: 2)
        forking.setattr(os, "fork", lambda: pytest.fail("forked with other threads running"))
        ahead_agrees(unmemoized([(s.public_key, b"m", s.sign(b"m")) for s in SIGNERS]))

    def test_each_item_is_checked_once(self, forking):
        signer = SIGNERS[0]
        good = (signer.public_key, b"m", signer.sign(b"m"))
        bad = (signer.public_key, b"n", signer.sign(b"m"))
        unmemoized([good, bad])
        checked = support.count_calls(forking, crypto, "_check")
        with crypto.verify_ahead([good, bad, good, bad]) as batch:
            for item in (good, bad, good, bad):
                crypto.verify(*item)
            assert batch.settle() is False
        forking.setattr(os, "fork", lambda: pytest.fail("forked for memoized items"))
        with crypto.verify_ahead([bad]):
            assert (crypto.verify(*good), crypto.verify(*bad)) == (True, False)
        assert len(checked) == len(set(checked)) and set(checked) <= {good, bad}

    @pytest.mark.parametrize(
        "work, answered",
        [
            (lambda items, slots, positions: os._exit(0), 0),
            (lambda items, slots, positions: os.kill(os.getpid(), signal.SIGKILL), 0),
            (lambda items, slots, positions: 1 / 0, 0),
            (answers_without_state_byte, 0),
            # answers its first item only
            (lambda items, slots, positions: CHECK_FROM_BACK(items, slots, positions[:1]), 1),
        ],
        ids=["exits_early", "dies", "raises", "no_state_byte", "short"],
    )
    def test_a_failed_worker_has_its_share_checked_here(self, forking, work, answered):
        forking.setattr(crypto, "_check_from_back", work)
        pids = support.record_forks(forking)
        checked = support.count_calls(forking, crypto, "_check")
        items = [(s.public_key, bytes([n]), s.sign(bytes([n]))) for s in SIGNERS for n in range(4)]
        items += [(s.public_key, b"x", SIGNERS[0].sign(b"y")) for s in SIGNERS]
        ahead_agrees(unmemoized(items), lambda: support.wait_for_exit(pids[0]))
        assert len(checked) == len(items) - answered
        support.assert_reaped(pids)

    def test_a_worker_skips_what_the_caller_answered(self):
        """The caller may take a worker's first slots before it runs; the
        worker goes on past them instead of stopping, and the caller takes
        every slot the worker filled."""
        items = signed_items(5) + [(SIGNERS[0].public_key, b"x", SIGNERS[1].sign(b"x"))]
        slots = crypto._Slots(len(items), 1)
        assert slots.take(5) is slots.take(3) is None
        crypto._check_from_back(items, slots, range(len(items) - 1, -1, -1))
        assert [slots.take(position) for position in range(len(items))] == [
            b"\x01", b"\x01", b"\x01", None, b"\x01", None
        ]

    def test_fork_failure_checks_everything_here(self, forking):
        def no_fork():
            raise OSError(11, "Resource temporarily unavailable")

        forking.setattr(os, "fork", no_fork)
        fds = len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None
        items = [(s.public_key, b"m", s.sign(b"n" if s is SIGNERS[1] else b"m")) for s in SIGNERS]
        ahead_agrees(unmemoized(items))
        if fds is not None:
            assert len(os.listdir("/proc/self/fd")) == fds, "a file was left open"

    def test_workers_leave_buffered_output_alone(self, forking, capfd):
        sys.stdout.write("written once")  # still in the buffer when the workers fork
        items = unmemoized([(s.public_key, b"m", s.sign(b"m")) for s in SIGNERS])
        ahead_agrees(items, support.verify_workers_finished)
        sys.stdout.flush()
        assert capfd.readouterr().out == "written once"

    def test_a_raising_block_reaps_its_workers(self, forking):
        pids = support.record_forks(forking)
        items = unmemoized(signed_items(6))
        with pytest.raises(ZeroDivisionError):
            with crypto.verify_ahead(items):
                assert crypto.verify(*items[0])
                1 / 0
        assert len(pids) == 1
        support.assert_reaped(pids)
        assert crypto._answers is None and crypto._positions == {}
        assert all(crypto.verify(*item) for item in items)


class TestAssumeThenSettle:
    """A verify_ahead block's assumption: a listed item no worker has
    answered verifies as True, unmemoized, until the block settles."""

    def items(self):
        """Three valid items, then an invalid one, then a valid one."""
        items = signed_items(3) + [(SIGNERS[0].public_key, b"x", SIGNERS[0].sign(b"y"))]
        return unmemoized(items + signed_items(5)[4:])

    def test_an_unanswered_item_is_assumed_then_settled(self, forking):
        forking.setattr(crypto, "_check_from_back", lambda items, slots, positions: os._exit(0))
        checked = support.count_calls(forking, crypto, "_check")
        items = self.items()
        with crypto.verify_ahead(items) as batch:
            assert all(crypto.verify(*item) for item in items)
            assert (checked, crypto._memo, batch.assumed) == ([], {}, True)
            assert batch.settle() is False
            assert checked == items[:4], "settling stops at the first invalid item"
        assert [crypto._memo.get(item) for item in items] == [True, True, True, False, None]
        assert crypto.verify(*items[3]) is False

    def test_a_filled_slot_answers_while_assuming(self, forking):
        items = self.items()
        with crypto.verify_ahead(items) as batch:
            support.verify_workers_finished()
            checked = support.count_calls(forking, crypto, "_check")
            assert [crypto.verify(*item) for item in items] == [True] * 3 + [False, True]
            assert batch.assumed is False
            assert all(item in crypto._memo for item in items)
            assert batch.settle() is False
        assert checked == []

    def test_settle_reads_what_the_workers_wrote(self, forking):
        """settle takes a filled slot's answer without checking it, and
        the answers nobody read are memoized when the block ends."""
        items = self.items()
        with crypto.verify_ahead(items) as batch:
            support.verify_workers_finished()
            checked = support.count_calls(forking, crypto, "_check")
            assert batch.settle() is False
            assert [crypto._memo.get(item) for item in items] == [True, True, True, False, None]
        assert checked == []
        assert [crypto._memo.get(item) for item in items] == [True, True, True, False, True]

    def test_settle_takes_each_slot_it_checks(self, forking):
        """A slot settle checks itself is marked taken, for a worker to skip."""
        forking.setattr(crypto, "_check_from_back", lambda items, slots, positions: os._exit(0))
        items = self.items()
        with crypto.verify_ahead(items) as batch:
            assert batch.settle() is False
            assert list(crypto._answers._map[::2]) == [crypto._TAKEN] * 4 + [0]

    def test_without_a_worker_nothing_is_assumed(self, forking):
        forking.setattr(crypto, "_usable_cpus", lambda: 1)
        items = self.items()
        with crypto.verify_ahead(items) as batch:
            assert [crypto.verify(*item) for item in items] == [True] * 3 + [False, True]
            assert batch.assumed is False
            assert batch.settle() is True, "nothing is listed, so nothing is left to settle"

    def test_the_assumption_ends_with_its_block(self, forking):
        items = self.items()
        with pytest.raises(ZeroDivisionError):
            with crypto.verify_ahead(items) as batch:
                assert crypto._batch is batch
                1 / 0
        assert crypto._batch is None
        assert crypto.verify(*items[3]) is False


def requests(count):
    """count (key, message) pairs, spread over the signers."""
    return [(signer, n.to_bytes(2, "big")) for n, signer in zip(range(count), SIGNERS * count)]


def in_process(batch):
    return [key.sign(message) for key, message in batch]


def signatures_without_state_byte(batch, slots, positions):
    """A faulty worker: the signature bytes of every slot, no state byte."""
    for position in range(positions[0] + 1):
        key, message = batch[position]
        without_state_byte(slots, position, from_hex(key.sign(message)))


class TestSignBatch:
    """sign_batch: forked workers sign from the back of the list while the
    caller signs from the front."""

    @pytest.mark.parametrize("cpus", [1, 2])
    @settings(max_examples=20, deadline=None)
    @given(messages=st.lists(st.binary(max_size=40), max_size=12))
    def test_signatures_equal_in_process_signing(self, cpus, messages):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(crypto, "_MIN_CHECKS_PER_WORKER", 1)
            patch.setattr(crypto, "_usable_cpus", lambda: cpus)
            support.copies_exit_first(patch, support.record_forks(patch))
            batch = [(SIGNERS[len(m) % len(SIGNERS)], m) for m in messages]
            expected = in_process(batch)
            signed = support.count_calls(patch, crypto.KeyPair, "sign")
            assert crypto.sign_batch(batch) == expected
            # With a worker, every signature the caller returns is the worker's.
            assert len(signed) == (0 if cpus == 2 else len(batch))

    @pytest.mark.parametrize(
        "work, signed_there",
        [
            (lambda batch, slots, positions: os._exit(0), 0),
            (lambda batch, slots, positions: os.kill(os.getpid(), signal.SIGKILL), 0),
            (signatures_without_state_byte, 0),
            # signs its first slot only
            (lambda batch, slots, positions: SIGN_FROM_BACK(batch, slots, positions[:1]), 1),
        ],
        ids=["exits_early", "dies", "no_state_byte", "short"],
    )
    def test_a_failed_worker_has_its_share_signed_here(self, forking, work, signed_there):
        forking.setattr(crypto, "_sign_from_back", work)
        pids = support.record_forks(forking)
        support.copies_exit_first(forking, pids)
        batch = requests(12)
        expected = in_process(batch)
        signed = support.count_calls(forking, crypto.KeyPair, "sign")
        assert crypto.sign_batch(batch) == expected
        assert len(signed) == len(batch) - signed_there
        assert len(pids) == 1
        support.assert_reaped(pids)

    @pytest.mark.parametrize("case", ["fork_fails", "other_threads", "small_batch"])
    def test_signs_in_process(self, forking, case):
        def no_fork():
            if case != "fork_fails":
                pytest.fail(f"forked: {case}")
            raise OSError(11, "Resource temporarily unavailable")

        forking.setattr(os, "fork", no_fork)
        if case == "other_threads":
            forking.setattr(crypto.threading, "active_count", lambda: 2)
        batch = requests(6)
        if case == "small_batch":
            forking.setattr(crypto, "_MIN_CHECKS_PER_WORKER", 128)
            batch = requests(127)
        expected = in_process(batch)
        signed = support.count_calls(forking, crypto.KeyPair, "sign")
        assert crypto.sign_batch(batch) == expected
        assert len(signed) == len(batch)

    def test_a_raising_block_reaps_its_worker(self, forking):
        pids = support.record_forks(forking)
        parent, sign = os.getpid(), crypto.KeyPair.sign

        def caller_fails(key, message):
            if os.getpid() == parent:
                raise ZeroDivisionError
            return sign(key, message)

        forking.setattr(crypto.KeyPair, "sign", caller_fails)
        with pytest.raises(ZeroDivisionError):
            crypto.sign_batch(requests(6))
        assert len(pids) == 1
        support.assert_reaped(pids)

    def test_workers_leave_buffered_output_alone(self, forking, capfd):
        sys.stdout.write("written once")  # still in the buffer when the worker forks
        support.copies_exit_first(forking, support.record_forks(forking))
        batch = requests(6)
        assert crypto.sign_batch(batch) == in_process(batch)
        sys.stdout.flush()
        assert capfd.readouterr().out == "written once"


MASK_BYTES = 128  # a CPU set as a bit mask, for up to 1,024 CPUs


def affinity_into_slot(slots, positions):
    """A copy's job: put the CPUs it may run on into its slot."""
    mask = sum(1 << cpu for cpu in os.sched_getaffinity(0))
    slots.put(positions[0], lambda: mask.to_bytes(MASK_BYTES, "little"))


def cpus_of(mask: bytes) -> set:
    bits = int.from_bytes(mask, "little")
    return {cpu for cpu in range(8 * MASK_BYTES) if bits >> cpu & 1}


@pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs two usable CPUs",
)
class TestPlacement:
    """While _ahead's copies run, the caller runs on one CPU of its mask and
    each copy on another; the caller's mask comes back on exit."""

    def copy_and_caller(self, copies=1):
        """The CPUs the copies and the caller may use inside the block."""
        with crypto._ahead(copies, copies, MASK_BYTES, affinity_into_slot) as slots:
            caller = os.sched_getaffinity(0)
            deadline = time.monotonic() + 10
            while any(slots.filled(p) is None for p in range(copies)):
                assert time.monotonic() < deadline, "a copy left its slot empty"
                time.sleep(0.001)
            return [cpus_of(slots.filled(p)) for p in range(copies)], caller

    def test_a_copy_runs_on_another_cpu(self):
        before = os.sched_getaffinity(0)
        [copy], caller = self.copy_and_caller()
        assert len(caller) == 1 and len(copy) == 1 and not copy & caller
        assert caller | copy <= before
        assert os.sched_getaffinity(0) == before

    def test_a_raising_block_restores_the_mask(self):
        before = os.sched_getaffinity(0)
        with pytest.raises(ZeroDivisionError):
            with crypto._ahead(1, 1, 1, lambda slots, positions: None):
                assert len(os.sched_getaffinity(0)) == 1
                1 / 0
        assert os.sched_getaffinity(0) == before

    def test_no_copy_no_pinning(self):
        before = os.sched_getaffinity(0)
        with crypto._ahead(0, 1, 1, lambda slots, positions: None):
            assert os.sched_getaffinity(0) == before

    @pytest.mark.parametrize("case", ["refused", "missing"])
    def test_placement_that_fails_changes_no_result(self, forking, case):
        if case == "refused":
            def refuse(pid, cpus):
                raise OSError(22, "Invalid argument")

            forking.setattr(os, "sched_setaffinity", refuse)
        else:
            forking.delattr(os, "sched_setaffinity")
        before = os.sched_getaffinity(0)
        pids = support.record_forks(forking)
        batch = requests(12)
        assert crypto.sign_batch(batch) == in_process(batch)
        ahead_agrees(unmemoized(signed_items(6)))
        assert len(pids) == 2
        support.assert_reaped(pids)
        [copy], caller = self.copy_and_caller()
        assert copy == caller == before == os.sched_getaffinity(0)


# Signs with SIGNERS[0]'s secret but claims SIGNERS[1]'s public key.
MISMATCHED = crypto.KeyPair(secret_key=SIGNERS[0].secret_key, public_key=SIGNERS[1].public_key)


class TestSignedHere:
    """A signature this process makes is memoized as valid, under the key
    its secret derives rather than the key pair's public_key field."""

    @pytest.mark.parametrize("cpus", [1, 2])
    @settings(max_examples=20, deadline=None)
    @given(
        messages=st.lists(st.binary(max_size=40), min_size=1, max_size=12),
        one=st.binary(max_size=40),
    )
    def test_every_signature_made_here_is_memoized(self, cpus, messages, one):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(crypto, "_memo", {})
            patch.setattr(crypto, "_MIN_CHECKS_PER_WORKER", 1)
            patch.setattr(crypto, "_usable_cpus", lambda: cpus)
            pids = support.record_forks(patch)
            support.copies_exit_first(patch, pids)
            signers = SIGNERS + [MISMATCHED]
            batch = [(signers[len(m) % len(signers)], m) for m in messages]
            made = list(zip(batch, crypto.sign_batch(batch)))
            # With a worker, which has signed everything, every slot is the worker's.
            assert len(pids) == cpus - 1
            made.append(((MISMATCHED, one), MISMATCHED.sign(one)))
            for (key, message), signature in made:
                item = (crypto._public_key_of(key.secret_key), message, signature)
                assert crypto._memo[item] is reference_verify(*item) is True
                if key is MISMATCHED:
                    assert (key.public_key, message, signature) not in crypto._memo

    def test_a_mismatched_public_key_is_checked(self, forking):
        checked = support.count_calls(forking, crypto, "_check")
        signature = MISMATCHED.sign(b"m")
        assert crypto.verify(SIGNERS[1].public_key, b"m", signature) is False
        assert checked == [(SIGNERS[1].public_key, b"m", signature)]
        assert crypto.verify(SIGNERS[0].public_key, b"m", signature) is True
        assert len(checked) == 1


CHECK_FROM_BACK = crypto._check_from_back
SIGN_FROM_BACK = crypto._sign_from_back
