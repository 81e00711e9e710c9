"""Ed25519 keys, signatures, and address derivation.

Addresses follow the Ethereum convention of truncated key hashes: the
trailing 20 bytes of the SHA-256 digest of the raw 32-byte public key.
Signature verification is memoized because chain validation and the
test oracles verify the same envelopes many times over.  ``verify_batch``
fills that memo ahead of a replay, splitting the checks over forked
copies of the process (POSIX only) when more than one CPU is usable.
"""

from __future__ import annotations

import hashlib
import os
import threading
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

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


def verify(public_key: str, message: bytes, signature: str) -> bool:
    """True iff signature is a valid Ed25519 signature of message.

    Malformed keys or signatures verify as False rather than raising;
    a transaction carrying garbage bytes is simply unauthenticated.
    """
    item = (public_key, message, signature)
    ok = _memo.get(item)
    return _remember(item, _check(*item)) if ok is None else ok


# A fork round trip costs about as much as 15 checks; below this many
# checks a worker would spend a noticeable share of its time starting.
_MIN_CHECKS_PER_WORKER = 128


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        return os.cpu_count() or 1


def _worker_count(checks: int) -> int:
    """How many copies of the process share ``checks``: 1 means in-process.

    A process with other threads is never forked, since a lock another
    thread holds at the fork stays held in the copy.
    """
    if threading.active_count() > 1:
        return 1
    return max(1, min(_usable_cpus(), checks // _MIN_CHECKS_PER_WORKER))


def _answers(items: Sequence[Check]) -> bytes:
    """A worker's result: one 0/1 byte per item."""
    return bytes(_check(*item) for item in items)


def _check_in_worker(items: Sequence[Check]) -> Tuple[int, int]:
    """Fork a copy that checks items and writes one 0/1 byte per item.

    Returns (pid, read end of the pipe).  The copy leaves by os._exit, so
    it runs no exit handler and never flushes the parent's stdio buffers.
    """
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(read_end)
            answers = memoryview(_answers(items))
            while answers:
                answers = answers[os.write(write_end, answers):]
            status = 0
        finally:
            os._exit(status)
    os.close(write_end)
    return pid, read_end


def _collect(pid: int, read_end: int, count: int) -> Optional[List[bool]]:
    """The answers of a worker, or None when it died or wrote a bad result."""
    chunks = []
    try:
        while chunk := os.read(read_end, 65536):
            chunks.append(chunk)
    finally:
        os.close(read_end)
        _, status = os.waitpid(pid, 0)
    answers = b"".join(chunks)
    if status != 0 or len(answers) != count or not set(answers) <= {0, 1}:
        return None
    return [byte == 1 for byte in answers]


def verify_batch(items: Iterable[Check]) -> None:
    """Verify every (public_key, message, signature) not yet memoized.

    Each distinct item is checked once and its answer stored where
    ``verify`` looks first, so later calls return it without checking
    again.  With more than one usable CPU and enough items, the list is
    split between this process and forked copies of it; a copy that
    cannot be started, dies, or sends a malformed result has its share
    checked here.  The answers are the same either way.
    """
    todo = [item for item in dict.fromkeys(items) if item not in _memo]
    if not todo:
        return
    size = -(-len(todo) // _worker_count(len(todo)))
    local, *shares = [todo[start : start + size] for start in range(0, len(todo), size)]
    running = []
    try:
        for part in shares:
            try:
                running.append((part, *_check_in_worker(part)))
            except OSError:
                local += part
        for item in local:
            _remember(item, _check(*item))
    finally:
        answered = [(part, _collect(pid, read_end, len(part))) for part, pid, read_end in running]
    for part, answers in answered:
        if answers is None:
            answers = [_check(*item) for item in part]
        for item, ok in zip(part, answers):
            _remember(item, ok)
