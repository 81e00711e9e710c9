"""Ed25519 keys, signatures, and address derivation.

Addresses follow the Ethereum convention of truncated key hashes: the
trailing 20 bytes of the SHA-256 digest of the raw 32-byte public key.
Signature verification is memoized because chain validation and the
test oracles verify the same envelopes many times over.  A signature
this process makes is memoized as valid under the key its secret
derives, under which it always verifies (RFC 8032, section 5.1); a
reader is a fresh process and checks every signature.  With more than
one usable CPU, forked copies of the process (POSIX only) take known
lists of work from the back while the caller takes them from the
front: ``sign_batch`` signs messages, and inside a ``verify_ahead``
block the copies check the signatures the caller verifies.
``ledger.extend_plan`` forks its state-root copy through the same helper.

The ``cryptography`` package is imported at the first sign or verify,
not with this module: a read at a sidecar checkpoint (``acprov verify``,
``history``, ``qr``) checks no signature, and loading the library would
be a tenth of its start-up.
"""

from __future__ import annotations

import contextlib
import hashlib
import mmap
import os
import signal
import threading
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .canonical import ADDRESS_BYTES, from_hex, to_hex

SEED_BYTES = 32
SIGNATURE_BYTES = 64

# (public_key, message, signature): the arguments of one verify.
Check = Tuple[str, bytes, str]


def derive_address(public_key: str) -> str:
    """Trailing 20 bytes of sha256(raw public key), as 0x hex."""
    digest = hashlib.sha256(from_hex(public_key)).digest()
    return to_hex(digest[-ADDRESS_BYTES:])


@lru_cache(maxsize=4096)
def _private_key_obj(secret_key: str):
    from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

    return Ed25519PrivateKey.from_private_bytes(from_hex(secret_key))


@lru_cache(maxsize=4096)
def _public_key_of(secret_key: str) -> str:
    return to_hex(_private_key_obj(secret_key).public_key().public_bytes_raw())


@dataclass(frozen=True)
class KeyPair:
    """An Ed25519 key pair: a secret seed and its verification key."""
    secret_key: str = field(repr=False)  # 32-byte seed, 0x hex; kept out of repr
    public_key: str  # 32-byte Ed25519 verification key, 0x hex

    @cached_property
    def address(self) -> str:
        return derive_address(self.public_key)

    @classmethod
    def from_seed(cls, seed: bytes) -> "KeyPair":
        if len(seed) != SEED_BYTES:
            raise ValueError(f"seed must be {SEED_BYTES} bytes, got {len(seed)}")
        secret_key = to_hex(seed)
        return cls(secret_key=secret_key, public_key=_public_key_of(secret_key))

    @classmethod
    def generate(cls) -> "KeyPair":
        return cls.from_seed(os.urandom(SEED_BYTES))

    def sign(self, message: bytes) -> str:
        signature = to_hex(_private_key_obj(self.secret_key).sign(message))
        _remember((_public_key_of(self.secret_key), message, signature), True)
        return signature


def _check(public_key: str, message: bytes, signature: str) -> bool:
    """OpenSSL's answer for one signature; garbage verifies as False."""
    from cryptography.exceptions import InvalidSignature
    from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PublicKey

    try:
        key = Ed25519PublicKey.from_public_bytes(from_hex(public_key))
        key.verify(from_hex(signature), message)
        return True
    except (InvalidSignature, ValueError):
        return False


# The verify memo: one dict lookup per call.  At its bound it starts over.
_MEMO_LIMIT = 1 << 20
_memo: Dict[Check, bool] = {}


def _remember(item: Check, ok: bool) -> bool:
    if len(_memo) >= _MEMO_LIMIT:
        _memo.clear()
    _memo[item] = ok
    return ok


# While a verify_ahead block runs: the position of each of its checks in
# the shared answer map, and the map itself.
_positions: Dict[Check, int] = {}
_shared: Optional[mmap.mmap] = None
_INVALID, _VALID = 1, 2  # the map's bytes; 0 means nobody has checked it yet


def verify(public_key: str, message: bytes, signature: str) -> bool:
    """True iff signature is a valid Ed25519 signature of message.

    Malformed keys or signatures verify as False rather than raising;
    a transaction carrying garbage bytes is simply unauthenticated.
    Inside a verify_ahead block an answer a worker already wrote is
    taken from the shared map, and one checked here is written to it.
    """
    item = (public_key, message, signature)
    ok = _memo.get(item)
    if ok is not None:
        return ok
    position = _positions.get(item)
    if position is None:
        return _remember(item, _check(*item))
    answer = _shared[position]
    if not answer:
        answer = _shared[position] = _VALID if _check(*item) else _INVALID
    return _remember(item, answer == _VALID)


# A fork costs about as much as 15 checks; below this many checks (or
# signatures) a worker would spend a noticeable share of its time starting.
_MIN_CHECKS_PER_WORKER = 128


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        return os.cpu_count() or 1


def _worker_count(checks: int) -> int:
    """How many forked copies help this process with ``checks``.

    One CPU stays with the caller.  A process with other threads is
    never forked, since a lock another thread holds at the fork stays
    held in the copy.
    """
    if checks < _MIN_CHECKS_PER_WORKER or threading.active_count() > 1:
        return 0
    return min(_usable_cpus() - 1, checks // _MIN_CHECKS_PER_WORKER)


@contextlib.contextmanager
def _forked(workers: int, count: int, work: Callable[[int, int], None]) -> Iterator[None]:
    """Run ``work(first, step)`` in up to ``workers`` forked copies of the
    process while the block runs.

    Worker w runs ``work(count - 1 - w, workers)``: a worker over a list
    of ``count`` items takes positions count - 1 - w, count - 1 - w -
    workers, ..., from its back (ledger.extend_plan's one copy walks its
    list from the front instead).  What it does it writes to a shared map
    the caller made before entering.  A copy that cannot be forked is not
    started.  On exit every copy is killed and reaped, so whatever it
    wrote is in the map and no more will be.  Copies leave by os._exit,
    so they run no exit handler and never flush the parent's stdio
    buffers.
    """
    pids = []
    try:
        for worker in range(workers):
            try:
                pid = os.fork()
            except OSError:
                break
            if pid == 0:
                try:
                    work(count - 1 - worker, workers)
                finally:
                    os._exit(0)
            pids.append(pid)
        yield
    finally:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


# A sign_batch slot: a state byte, then the 64 signature bytes.  The
# state is 0 until the caller takes the slot or a worker has filled it.
_SLOT_BYTES = 1 + SIGNATURE_BYTES
_TAKEN, _SIGNED = 1, 2


def _sign_from_back(
    requests: Sequence[Tuple[KeyPair, bytes]], slots: mmap.mmap, first: int, step: int
) -> None:
    """A worker's job: sign requests first, first - step, ..., 0, skipping
    any the caller has taken.  The signature goes in first, then the
    state byte that says it is there."""
    for position in range(first, -1, -step):
        start = position * _SLOT_BYTES
        if not slots[start]:
            key, message = requests[position]
            slots[start + 1 : start + _SLOT_BYTES] = from_hex(key.sign(message))
            slots[start] = _SIGNED


def sign_batch(requests: Sequence[Tuple[KeyPair, bytes]]) -> List[str]:
    """``key.sign(message)`` for each (key, message) of ``requests``.

    With more than one usable CPU and enough requests, forked workers
    sign from the back of the list into a shared map while the caller
    signs from the front, each skipping what the other has done.  Ed25519
    signing is deterministic (RFC 8032), so a worker's signature is the
    caller's byte for byte.  The caller signs every slot no worker had
    filled when it got there, and reads the workers' slots only once
    they are reaped, so a worker that dies or cannot be forked costs
    time but changes no signature.  The map holds signatures, never a key.
    """
    workers = _worker_count(len(requests))
    if not workers:
        return [key.sign(message) for key, message in requests]
    signatures: List[Optional[str]] = [None] * len(requests)
    with mmap.mmap(-1, len(requests) * _SLOT_BYTES) as slots:
        with _forked(workers, len(requests), partial(_sign_from_back, requests, slots)):
            for position, (key, message) in enumerate(requests):
                if not slots[position * _SLOT_BYTES]:
                    slots[position * _SLOT_BYTES] = _TAKEN
                    signatures[position] = key.sign(message)
        for position, signature in enumerate(signatures):
            if signature is None:  # a worker had signed it
                start = position * _SLOT_BYTES + 1
                signatures[position] = signature = to_hex(slots[start : start + SIGNATURE_BYTES])
                key, message = requests[position]
                _remember((_public_key_of(key.secret_key), message, signature), True)
    return signatures


def _check_from_back(items: Sequence[Check], answers: mmap.mmap, first: int, step: int) -> None:
    """A worker's job: answer items first, first - step, ..., 0, skipping
    any already answered, which the caller may have reached first."""
    for position in range(first, -1, -step):
        if not answers[position]:
            answers[position] = _VALID if _check(*items[position]) else _INVALID


@contextlib.contextmanager
def verify_ahead(items: Iterable[Check]) -> Iterator[None]:
    """Check items in forked copies of the process while the block runs.

    Each distinct item not yet memoized gets one byte in a shared map.
    With more than one usable CPU and enough items, workers answer them
    from the back of the list while ``verify`` answers the ones the
    caller reaches first, each skipping what the other has answered, so
    neither waits for the other: a caller that works through its checks
    in the list's order meets the workers in the middle.  On exit the
    workers are stopped and reaped and every answer is memoized.  A
    worker that cannot be started or dies leaves its bytes at 0, and the
    caller checks those items itself: the answers are the same either way.
    """
    global _positions, _shared
    todo = [item for item in dict.fromkeys(items) if item not in _memo]
    workers = _worker_count(len(todo))
    if not workers:
        yield
        return
    with mmap.mmap(-1, len(todo)) as answers:
        try:
            with _forked(workers, len(todo), partial(_check_from_back, todo, answers)):
                _positions = {item: position for position, item in enumerate(todo)}
                _shared = answers
                yield
        finally:
            _positions, _shared = {}, None
            for item, answer in zip(todo, answers[:]):
                if answer:
                    _remember(item, answer == _VALID)
