"""Ed25519 keys, signatures, and address derivation.

Addresses follow the Ethereum convention of truncated key hashes: the
trailing 20 bytes of the SHA-256 digest of the raw 32-byte public key.
Signature verification is memoized because chain validation and the
test oracles verify the same envelopes many times over.  Inside a
``verify_ahead`` block, forked copies of the process (POSIX only) check
a known list of signatures from its back while the caller verifies
from its front, when more than one CPU is usable.
"""

from __future__ import annotations

import contextlib
import hashlib
import mmap
import os
import signal
import threading
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Dict, Iterable, Iterator, Optional, Sequence, Tuple

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

from .canonical import ADDRESS_BYTES, from_hex, to_hex

SEED_BYTES = 32

# (public_key, message, signature): the arguments of one verify.
Check = Tuple[str, bytes, str]


def derive_address(public_key: str) -> str:
    """Trailing 20 bytes of sha256(raw public key), as 0x hex."""
    digest = hashlib.sha256(from_hex(public_key)).digest()
    return to_hex(digest[-ADDRESS_BYTES:])


@lru_cache(maxsize=4096)
def _private_key_obj(secret_key: str) -> Ed25519PrivateKey:
    return Ed25519PrivateKey.from_private_bytes(from_hex(secret_key))


@dataclass(frozen=True)
class KeyPair:
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
        public = _private_key_obj(secret_key).public_key().public_bytes_raw()
        return cls(secret_key=secret_key, public_key=to_hex(public))

    @classmethod
    def generate(cls) -> "KeyPair":
        return cls.from_seed(os.urandom(SEED_BYTES))

    def sign(self, message: bytes) -> str:
        return to_hex(_private_key_obj(self.secret_key).sign(message))


def _check(public_key: str, message: bytes, signature: str) -> bool:
    """OpenSSL's answer for one signature; garbage verifies as False."""
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


# A fork costs about as much as 15 checks; below this many checks a
# worker would spend a noticeable share of its time starting.
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
    if threading.active_count() > 1:
        return 0
    return min(_usable_cpus() - 1, checks // _MIN_CHECKS_PER_WORKER)


def _check_from_back(items: Sequence[Check], answers: mmap.mmap, first: int, step: int) -> None:
    """A worker's job: answer items first, first - step, ... until one is
    already answered, which means the caller has got that far."""
    for position in range(first, -1, -step):
        if answers[position]:
            return
        answers[position] = _VALID if _check(*items[position]) else _INVALID


@contextlib.contextmanager
def verify_ahead(items: Iterable[Check]) -> Iterator[None]:
    """Check items in forked copies of the process while the block runs.

    Each distinct item not yet memoized gets one byte in a shared map.
    With more than one usable CPU and enough items, workers answer them
    from the back while ``verify`` answers the ones the caller reaches
    first from the front, so neither waits for the other.  On exit the
    workers are stopped and reaped and every answer is memoized.  A
    worker that cannot be started or dies leaves its bytes at 0, and
    the caller checks those items itself: the answers are the same
    either way.  Workers leave by os._exit, so they run no exit handler
    and never flush the parent's stdio buffers.
    """
    global _positions, _shared
    todo = [item for item in dict.fromkeys(items) if item not in _memo]
    workers = _worker_count(len(todo))
    if not workers:
        yield
        return
    answers = mmap.mmap(-1, len(todo))
    pids = []
    try:
        for worker in range(workers):
            try:
                pid = os.fork()
            except OSError:
                break
            if pid == 0:
                try:
                    _check_from_back(todo, answers, len(todo) - 1 - worker, workers)
                finally:
                    os._exit(0)
            pids.append(pid)
        _positions, _shared = {item: position for position, item in enumerate(todo)}, answers
        yield
    finally:
        _positions, _shared = {}, None
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for item, answer in zip(todo, answers[:]):
            if answer:
                _remember(item, answer == _VALID)
        answers.close()
