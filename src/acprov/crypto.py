"""Ed25519 keys, signatures, and address derivation.

Addresses follow the Ethereum convention of truncated key hashes: the
trailing 20 bytes of the SHA-256 digest of the raw 32-byte public key.
Signature verification is memoized because chain validation and the
test oracles verify the same envelopes many times over.  A signature
this process makes is memoized as valid under the key its secret
derives, under which it always verifies (RFC 8032, section 5.1); a
reader is a fresh process and checks every signature.  With more than
one usable CPU, forked copies of the process (POSIX only), each on a CPU
of its own where the platform lets it, do known work ahead of the caller
through one helper, ``_ahead``, into slots of a shared map: a copy
fills a slot unless the caller has taken it, the
bytes first and then the state byte, and the caller takes each slot,
doing the work of an empty one itself.  So ``sign_batch`` signs,
``verify_ahead``'s copies check the signatures the caller will verify,
and ``ledger.extend_plan``'s copy commits state roots.  A verify_ahead
block can also assume: while it does, a listed signature no copy has
answered yet verifies as True, unmemoized, and the block's ``settle``
then checks every one of them.  Only a caller that redoes its work
strictly when the settle fails may assume (``ledger._replay``).

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
from functools import cached_property, lru_cache, partial
from typing import Callable, ClassVar, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .canonical import ADDRESS_BYTES, Record, from_hex, to_hex

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


class KeyPair(Record):
    """An Ed25519 key pair: a secret seed and its verification key."""
    SECRET: ClassVar[Tuple[str, ...]] = ("secret_key",)  # kept out of repr
    secret_key: str  # 32-byte seed, 0x hex
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


# While a verify_ahead block runs: the slot of each of its checks, and
# the slots, whose one byte is 1 for a valid signature and 0 otherwise;
# while it assumes, also its batch.
_positions: Dict[Check, int] = {}
_answers: Optional["_Slots"] = None
_assuming: Optional["_Batch"] = None


def verify(public_key: str, message: bytes, signature: str) -> bool:
    """True iff signature is a valid Ed25519 signature of message.

    Malformed keys or signatures verify as False rather than raising;
    a transaction carrying garbage bytes is simply unauthenticated.
    Inside a verify_ahead block an answer a worker already wrote is
    taken from its slot; one checked here has its slot taken first.
    While the block assumes, a listed item whose slot no worker has
    filled verifies as True: it is neither memoized nor taken, so the
    block's settle still checks it.
    """
    item = (public_key, message, signature)
    ok = _memo.get(item)
    if ok is not None:
        return ok
    position = _positions.get(item)
    if position is None or _assuming is None:
        return _answer(item, position)
    answer = _answers.filled(position)
    if answer is None:
        _assuming.assumed = True
        return True
    return _remember(item, answer[0] == 1)


def _answer(item: Check, position: Optional[int]) -> bool:
    """The memoized answer for item, from its slot at position if a
    worker filled it, else checked here once the slot is taken."""
    answer = None if position is None else _answers.take(position)
    return _remember(item, _check(*item) if answer is None else answer[0] == 1)


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


# A slot's state byte, written after its bytes; 0 means nobody has it yet.
_TAKEN, _FILLED = 1, 2


class _Slots:
    """Slots of ``width`` bytes, each after a state byte, in a map shared
    by a caller and its forked copies: the copies fill them, and the
    caller takes each one it needs, filled or not."""

    __slots__ = ("_map", "_width")

    def __init__(self, count: int, width: int):
        self._map = mmap.mmap(-1, max(count, 1) * (1 + width))  # a map cannot be empty
        self._width = width

    def put(self, position: int, make: Callable[[], bytes]) -> None:
        """A copy's side: unless the caller has taken the slot, fill it
        with make(), the bytes first and then the state byte."""
        start = position * (1 + self._width)
        if not self._map[start]:
            self._map[start + 1 : start + 1 + self._width] = make()
            self._map[start] = _FILLED

    def filled(self, position: int) -> Optional[bytes]:
        """The slot's bytes if a copy filled it, else None; the slot
        stays open either way."""
        start = position * (1 + self._width)
        if self._map[start] == _FILLED:
            return self._map[start + 1 : start + 1 + self._width]
        return None

    def take(self, position: int) -> Optional[bytes]:
        """The caller's side: the slot's bytes if a copy filled it, else
        None, with the slot marked taken for a copy to skip."""
        made = self.filled(position)
        if made is None:
            self._map[position * (1 + self._width)] = _TAKEN
        return made


@contextlib.contextmanager
def _ahead(
    workers: int, count: int, width: int, work: Callable[[_Slots, range], None]
) -> Iterator[_Slots]:
    """``count`` slots of ``width`` bytes that up to ``workers`` forked
    copies of the process fill while the block runs.

    Copy w runs ``work(slots, positions)`` with the positions count - 1 -
    w, count - 1 - w - workers, ..., 0 of the list's back (ledger's roots
    copy walks its list from the front instead).  A copy that cannot be
    forked is not started.  On exit every copy is killed and reaped, so
    whatever it filled is in the slots and no more will be; the slots
    stay readable after the block.  Copies leave by os._exit, so they run
    no exit handler and never flush the parent's stdio buffers.

    While copies run, and the caller may use two CPUs or more, the caller
    runs on the first CPU of its affinity mask and each copy on another,
    so that no copy shares the caller's CPU; the caller's mask is restored
    on exit.  This is best effort: where os.sched_setaffinity is missing
    or fails, the kernel places them.
    """
    slots = _Slots(count, width)
    try:
        mask = os.sched_getaffinity(0)
    except (AttributeError, OSError):  # not on Linux
        mask = set()
    cpus = sorted(mask)
    pids = []
    try:
        for worker in range(workers):
            try:
                pid = os.fork()
            except OSError:
                break
            if pid == 0:
                try:
                    if len(cpus) > 1:
                        _pin({cpus[1 + worker % (len(cpus) - 1)]})
                    work(slots, range(count - 1 - worker, -1, -workers))
                finally:
                    os._exit(0)
            pids.append(pid)
        if pids and len(cpus) > 1:
            _pin({cpus[0]})
        yield slots
    finally:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        if pids and len(cpus) > 1:
            _pin(mask)


def _pin(cpus: set) -> None:
    """Best effort: let this process run on cpus only."""
    with contextlib.suppress(AttributeError, OSError):
        os.sched_setaffinity(0, cpus)


def _sign_from_back(
    requests: Sequence[Tuple[KeyPair, bytes]], slots: _Slots, positions: range
) -> None:
    """A worker's job: sign the requests at positions into their slots."""
    for position in positions:
        key, message = requests[position]
        slots.put(position, lambda: from_hex(key.sign(message)))


def sign_batch(requests: Sequence[Tuple[KeyPair, bytes]]) -> List[str]:
    """``key.sign(message)`` for each (key, message) of ``requests``.

    With more than one usable CPU and enough requests, forked workers
    sign from the back of the list into shared slots while the caller
    takes them from the front, signing each slot no worker has filled.
    Ed25519 signing is deterministic (RFC 8032), so a worker's signature
    is the caller's byte for byte, and a worker that dies or cannot be
    forked costs time but changes no signature.  The slots hold
    signatures, never a key.
    """
    work = partial(_sign_from_back, requests)
    signatures = []
    with _ahead(_worker_count(len(requests)), len(requests), SIGNATURE_BYTES, work) as slots:
        for position, (key, message) in enumerate(requests):
            signed = slots.take(position)
            signatures.append(key.sign(message) if signed is None else to_hex(signed))
            _remember((_public_key_of(key.secret_key), message, signatures[-1]), True)
    return signatures


def _check_from_back(items: Sequence[Check], slots: _Slots, positions: range) -> None:
    """A worker's job: answer the items at positions into their slots."""
    for position in positions:
        slots.put(position, lambda: bytes([_check(*items[position])]))


class _Batch:
    """What a verify_ahead block yields: ``assuming``, to walk its checks
    taking each one no worker has answered as valid, then ``settle``."""

    assumed = False  # set once verify has taken an item as valid unchecked

    @contextlib.contextmanager
    def assuming(self) -> Iterator[None]:
        """Within it, a listed item no worker has answered verifies as
        True.  The caller must redo its work strictly, outside the
        verify_ahead block, if the work raised once ``assumed`` was set or
        ``settle`` is False; if every listed signature is valid, the
        assumed answers are the true ones."""
        global _assuming
        _assuming = self
        try:
            yield
        finally:
            _assuming = None

    def settle(self) -> bool:
        """True iff every listed item is a valid signature.  The caller
        takes each slot still open from the front and checks what no
        worker has filled, while the workers go on from the back; it
        stops at the first invalid one.  Each answer is memoized."""
        for item, position in _positions.items():
            ok = _memo.get(item)
            if ok is None:
                ok = _answer(item, position)
            if not ok:
                return False
        return True


@contextlib.contextmanager
def verify_ahead(items: Iterable[Check]) -> Iterator[_Batch]:
    """Check items in forked copies of the process while the block runs.

    Each distinct item not yet memoized gets a one-byte slot.  With more
    than one usable CPU and enough items, workers answer them from the
    back of the list while ``verify`` takes the ones the caller reaches
    first, so neither waits for the other.  A caller that would rather
    not wait at all walks under the yielded batch's ``assuming`` and then
    calls its ``settle``, which checks from the front what the workers
    have not.  On exit the workers are stopped and reaped and every
    answer they wrote is memoized.  A worker that cannot be started or
    dies leaves its slots empty, and the caller checks those items
    itself: the answers are the same either way.  With no worker nothing
    is listed, so verify checks each item as it comes, even while
    assuming, and there is nothing to settle.
    """
    global _positions, _answers
    todo = [item for item in dict.fromkeys(items) if item not in _memo]
    workers = _worker_count(len(todo))
    if not workers:
        yield _Batch()
        return
    with _ahead(workers, len(todo), 1, partial(_check_from_back, todo)) as slots:
        _positions = {item: position for position, item in enumerate(todo)}
        _answers = slots
        try:
            yield _Batch()
        finally:
            _positions, _answers = {}, None
    for position, item in enumerate(todo):
        answer = slots.take(position)
        if answer is not None:
            _remember(item, answer[0] == 1)
