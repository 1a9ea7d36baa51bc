"""Chaum-style RSA blind signatures, from scratch.

The bank signs a *blinded* token serial: the withdrawer picks a random
blinding factor ``r``, submits ``blinded = H(serial) * r^e mod n``; the
bank returns ``blinded^d mod n``; the withdrawer multiplies by ``r^{-1}``
to obtain a valid signature ``H(serial)^d mod n`` on a serial the bank has
never seen.  When the token is later deposited, the bank can verify the
signature but cannot link it to any withdrawal — which is exactly the
unlinkability the anonymity system's payment channel needs.

This is *textbook* RSA (no OAEP/PSS padding): adequate for a simulation
substrate, not for production use.  Primes come from a Miller-Rabin
test over seeded randomness so the whole scheme is deterministic per seed.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from types import TracebackType
from typing import Any, List, Mapping, Optional, Type

import numpy as np

#: Deterministic Miller-Rabin witness set: the first 12 primes.  It
#: decides primality exactly for n < ψ12 = 318665857834031151167461
#: (≈ 3.18 * 10^23, OEIS A014233); ψ12 itself is a strong pseudoprime to
#: all 12 bases, so at or above it we add seeded random witnesses.
_SMALL_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_PSI12 = 318665857834031151167461
_SMALL_PRIMES = frozenset((
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149,
))
_LARGEST_SMALL_PRIME = max(_SMALL_PRIMES)
#: Product of the trial-division primes: one gcd replaces 35 divisions.
_SMALL_PRIMORIAL = math.prod(_SMALL_PRIMES)
#: Every random draw of this module is one 30-bit chunk
#: ``rng.integers(0, 2**30)``; wider integers are composed from chunks.
_CHUNK_BITS = 30


class ChunkStream:
    """A generator's 30-bit chunks, drawn in blocks and handed out in order.

    ``rng.integers(0, 2**30, size=k)`` yields the same values and leaves
    the generator in the same state as ``k`` scalar
    ``rng.integers(0, 2**30)`` calls, so a block handed out in order
    reproduces the sequential draws.  :meth:`close` (also run on leaving
    a ``with`` block) gives back the chunks drawn but not taken: it
    rewinds the generator to the start of the current block and redraws
    exactly the chunks taken from it.  The generator must not be used
    directly while the stream is open.
    """

    __slots__ = ("_rng", "_block", "_buf", "_pos", "_start")

    def __init__(self, rng: np.random.Generator, block: int = 256) -> None:
        self._rng = rng
        self._block = max(1, block)
        self._buf: List[int] = []
        self._pos = 0
        self._start: Optional[Mapping[str, Any]] = None

    def _refill(self) -> None:
        self._start = self._rng.bit_generator.state
        self._buf = self._rng.integers(0, 1 << _CHUNK_BITS, size=self._block).tolist()
        self._pos = 0

    def compose(self, k: int) -> int:
        """The next ``k`` chunks as one integer, the first most significant."""
        value = 0
        for _ in range(k):
            if self._pos == len(self._buf):
                self._refill()
            value = (value << _CHUNK_BITS) | self._buf[self._pos]
            self._pos += 1
        return value

    def skip(self, k: int) -> None:
        """Take ``k`` chunks without using them (the draws still happen)."""
        while k > 0:
            if self._pos == len(self._buf):
                self._refill()
            step = min(k, len(self._buf) - self._pos)
            self._pos += step
            k -= step

    def close(self) -> None:
        """Leave the generator exactly where the chunks taken put it."""
        if self._start is not None and self._pos < len(self._buf):
            self._rng.bit_generator.state = self._start
            if self._pos:
                self._rng.integers(0, 1 << _CHUNK_BITS, size=self._pos)
        self._buf = []
        self._pos = 0
        self._start = None

    def __enter__(self) -> "ChunkStream":
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        self.close()


def _chunks_for(n: int) -> int:
    """Chunks composed per random value below ``n`` (n may exceed int64)."""
    return n.bit_length() // _CHUNK_BITS + 1


def _witness_composite(a: int, d: int, s: int, n: int) -> bool:
    """True when ``a`` proves ``n = d * 2^s + 1`` composite."""
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return False
    for _ in range(s - 1):
        x = (x * x) % n
        if x == n - 1:
            return False
    return True


def _miller_rabin(n: int, stream: Optional[ChunkStream], rounds: int) -> bool:
    if n <= _LARGEST_SMALL_PRIME:
        return n in _SMALL_PRIMES
    if math.gcd(n, _SMALL_PRIMORIAL) != 1:
        return False
    # write n-1 = d * 2^s
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    for a in _SMALL_WITNESSES:
        if _witness_composite(a, d, s, n):
            return False
    if stream is None:
        return True
    k = _chunks_for(n)
    if n < _PSI12:
        # The fixed bases proved n prime, so no random witness can reject
        # it: draw the rounds' chunks (the stream advances as if they ran)
        # but skip their exponentiations.
        stream.skip(rounds * k)
        return True
    for _ in range(rounds):
        if _witness_composite(2 + stream.compose(k) % (n - 3), d, s, n):
            return False
    return True


def is_probable_prime(n: int, rng: "np.random.Generator | None" = None, rounds: int = 16) -> bool:
    """Miller-Rabin primality test (deterministic witnesses + random rounds)."""
    if rng is None:
        return _miller_rabin(n, None, rounds)
    with ChunkStream(rng, block=rounds * _chunks_for(n)) as stream:
        return _miller_rabin(n, stream, rounds)


def _next_prime(bits: int, stream: ChunkStream) -> int:
    k = bits // _CHUNK_BITS + 1
    mask = (1 << bits) - 1
    # Force the top bit (exact size) and bottom bit (odd).
    forced = (1 << (bits - 1)) | 1
    while True:
        candidate = (stream.compose(k) & mask) | forced
        if _miller_rabin(candidate, stream, 16):
            return candidate


def generate_prime(bits: int, rng: np.random.Generator) -> int:
    """A random probable prime with exactly ``bits`` bits."""
    if bits < 8:
        raise ValueError(f"bits must be >= 8, got {bits}")
    with ChunkStream(rng) as stream:
        return _next_prime(bits, stream)


def _hash_to_int(message: bytes, modulus: int) -> int:
    """SHA-256 hash of ``message`` reduced into Z_n (full-domain-ish)."""
    digest = hashlib.sha256(message).digest()
    # Stretch to cover the modulus size.
    blocks = [digest]
    while sum(len(b) for b in blocks) * 8 < modulus.bit_length():
        blocks.append(hashlib.sha256(blocks[-1]).digest())
    return int.from_bytes(b"".join(blocks), "big") % modulus


@dataclass(frozen=True)
class RSAKeyPair:
    """An RSA key pair ``(n, e, d)``."""

    n: int
    e: int
    d: int

    @classmethod
    def generate(cls, rng: np.random.Generator, bits: int = 256, e: int = 65537) -> "RSAKeyPair":
        """Generate a key pair with a ``bits``-bit modulus (per-prime bits/2)."""
        if bits < 64:
            raise ValueError(f"modulus must be >= 64 bits, got {bits}")
        half = bits // 2
        with ChunkStream(rng) as stream:
            while True:
                p = _next_prime(half, stream)
                q = _next_prime(bits - half, stream)
                if p == q:
                    continue
                phi = (p - 1) * (q - 1)
                if phi % e == 0:
                    continue
                return cls(n=p * q, e=e, d=pow(e, -1, phi))

    def sign_raw(self, value: int) -> int:
        """Raw RSA signature ``value^d mod n`` (bank-side, on blinded data)."""
        if not 0 <= value < self.n:
            raise ValueError("value out of range for modulus")
        return pow(value, self.d, self.n)

    def verify_raw(self, value: int, signature: int) -> bool:
        return pow(signature, self.e, self.n) == value % self.n


class BlindSignatureScheme:
    """Blind-signature protocol around one bank key pair.

    The three protocol steps are separate methods so tests (and the fraud
    scenarios) can exercise each message:

    1. ``blind(serial, r)``      — withdrawer blinds the hashed serial;
    2. ``sign_blinded(blinded)`` — bank signs without seeing the serial;
    3. ``unblind(blind_sig, r)`` — withdrawer recovers the bare signature.

    ``verify(serial, sig)`` is what the bank runs at deposit time.
    """

    def __init__(self, keys: RSAKeyPair) -> None:
        self.keys = keys

    @property
    def modulus(self) -> int:
        return self.keys.n

    def random_blinding_factor(self, rng: np.random.Generator) -> int:
        """A unit of Z_n* suitable as a blinding factor."""
        n = self.keys.n
        k = _chunks_for(n)
        with ChunkStream(rng, block=k) as stream:
            while True:
                r = stream.compose(k) % n
                if r > 1 and math.gcd(r, n) == 1:
                    return r

    def hash_serial(self, serial: bytes) -> int:
        return _hash_to_int(serial, self.keys.n)

    def blind(self, serial: bytes, r: int) -> int:
        """``H(serial) * r^e mod n``."""
        return (self.hash_serial(serial) * pow(r, self.keys.e, self.keys.n)) % self.keys.n

    def sign_blinded(self, blinded: int) -> int:
        """Bank-side signing of the blinded value (never sees the serial)."""
        return self.keys.sign_raw(blinded)

    def unblind(self, blind_signature: int, r: int) -> int:
        """``blind_sig * r^{-1} mod n`` = ``H(serial)^d mod n``."""
        r_inv = pow(r, -1, self.keys.n)
        return (blind_signature * r_inv) % self.keys.n

    def verify(self, serial: bytes, signature: int) -> bool:
        """Check ``signature^e == H(serial) mod n``."""
        return self.keys.verify_raw(self.hash_serial(serial), signature)
