"""Draw parity of the bank's key generation and withdrawals.

Result digests cannot see the bank's random stream (a scenario's
payoffs and paths do not depend on which primes the bank drew), so this
file pins it directly:

- goldens (``bank_keys_golden.json``, recorded from the sequential
  scalar-draw implementation) hold ``(n, d)`` of every denomination key
  a paper-size scenario's ``Bank`` makes, the generator state right
  after ``Bank(...)``, and one seed's withdrawals (serial, blinding
  factor, blinded value, signature) with the state after them;
- a differential test runs the old sequential ``is_probable_prime`` /
  ``generate_prime`` (kept below as the oracle) against the library on
  the same seeds and compares verdicts, primes and post-draw state.

Regenerate the goldens with ``python tests/payment/test_crypto_parity.py``
(it prints the JSON; only do so when a change is *meant* to move draws).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.payment.bank import Bank
from repro.payment.crypto import (
    _PSI12,
    ChunkStream,
    RSAKeyPair,
    generate_prime,
    is_probable_prime,
)
from repro.payment.tokens import WithdrawalRequest

GOLDEN_PATH = Path(__file__).with_name("bank_keys_golden.json")
#: The denominations ``run_scenario`` gives its bank.
SCENARIO_DENOMINATIONS = tuple(2**k for k in range(17))
KEY_SEEDS = (0, 3, 2024)
WITHDRAWAL_SEED = 3
WITHDRAWAL_DENOMINATIONS = (1, 64, 65536)

#: OEIS A014233: the smallest strong pseudoprimes to all of the first
#: 12 and 13 prime bases.
PSI12 = 318665857834031151167461
PSI13 = 3317044064679887385961981
CARMICHAEL = (
    561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265,
    321197185, 3215031751, 9585921133193329,
)


def _state(rng: np.random.Generator) -> dict:
    return rng.bit_generator.state


def snapshot() -> dict:
    """The bank draws the goldens pin (recomputed by the tests)."""
    banks = {}
    for seed in KEY_SEEDS:
        bank = Bank(np.random.default_rng(seed), denominations=SCENARIO_DENOMINATIONS)
        banks[str(seed)] = {
            "keys": [[bank.schemes[d].keys.n, bank.schemes[d].keys.d]
                     for d in SCENARIO_DENOMINATIONS],
            "state": _state(bank.rng),
        }
    bank = Bank(np.random.default_rng(WITHDRAWAL_SEED),
                denominations=SCENARIO_DENOMINATIONS)
    withdrawals = []
    for d in WITHDRAWAL_DENOMINATIONS:
        scheme = bank.schemes[d]
        req = WithdrawalRequest.create(scheme, float(d), bank.rng)
        token = req.finish(scheme, bank.sign_blinded(d, req.blinded))
        withdrawals.append({
            "denomination": d,
            "serial": req.serial.hex(),
            "blinding_factor": req.blinding_factor,
            "blinded": req.blinded,
            "signature": token.signature,
        })
    return {
        "banks": banks,
        "withdrawals": {"seed": WITHDRAWAL_SEED, "tokens": withdrawals,
                        "state": _state(bank.rng)},
    }


# ------------------------------------------------------------------ oracle
# The sequential scalar-draw implementation the library replaced: one
# ``rng.integers(0, 2**30)`` per chunk, a Python trial-division loop, and
# every random round's modular exponentiation.
_ORACLE_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_ORACLE_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149,
)


def oracle_is_probable_prime(n, rng=None, rounds=16):
    if n < 2:
        return False
    for p in _ORACLE_SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1

    def witness_composite(a):
        x = pow(a, d, n)
        if x in (1, n - 1):
            return False
        for _ in range(s - 1):
            x = (x * x) % n
            if x == n - 1:
                return False
        return True

    for a in _ORACLE_WITNESSES:
        if a % n == 0:
            continue
        if witness_composite(a):
            return False
    if rng is not None:
        for _ in range(rounds):
            a = 0
            for _ in range(n.bit_length() // 30 + 1):
                a = (a << 30) | int(rng.integers(0, 2**30))
            a = 2 + a % (n - 3)
            if witness_composite(a):
                return False
    return True


def oracle_generate_prime(bits, rng):
    while True:
        chunks = [int(rng.integers(0, 2**30)) for _ in range(bits // 30 + 1)]
        candidate = 0
        for c in chunks:
            candidate = (candidate << 30) | c
        candidate &= (1 << bits) - 1
        candidate |= (1 << (bits - 1)) | 1
        if oracle_is_probable_prime(candidate, rng):
            return candidate


# ------------------------------------------------------------------ goldens
@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def current():
    return snapshot()


@pytest.mark.parametrize("seed", KEY_SEEDS)
def test_bank_keys_match_golden(golden, current, seed):
    assert current["banks"][str(seed)]["keys"] == golden["banks"][str(seed)]["keys"]


@pytest.mark.parametrize("seed", KEY_SEEDS)
def test_bank_stream_state_matches_golden(golden, current, seed):
    assert current["banks"][str(seed)]["state"] == golden["banks"][str(seed)]["state"]


def test_withdrawals_match_golden(golden, current):
    assert current["withdrawals"] == golden["withdrawals"]


# ------------------------------------------------------------- differential
def _inputs() -> list:
    rng = np.random.default_rng(99)
    values = list(range(0, 2500))
    values += [PSI12, PSI13, PSI12 - 2, PSI12 + 2, *CARMICHAEL]
    values += [2**61 - 1, 2**89 - 1, 2**107 - 1, 2**127 - 1,
               (2**61 - 1) * (2**31 - 1), (2**31 - 1) * (2**19 - 1)]
    for bits in (8, 31, 64, 90, 100, 128, 256):
        for _ in range(40):
            chunks = rng.integers(0, 2**30, size=bits // 30 + 1).tolist()
            v = 0
            for c in chunks:
                v = (v << 30) | c
            values.append((v & ((1 << bits) - 1)) | (1 << (bits - 1)) | 1)
    # 100-bit composites with two ~50-bit prime factors.
    for _ in range(10):
        p = oracle_generate_prime(50, rng)
        q = oracle_generate_prime(50, rng)
        values.append(p * q)
    return values


@pytest.fixture(scope="module")
def inputs():
    return _inputs()


@pytest.mark.parametrize("rounds", [16, 3, 0])
def test_is_probable_prime_matches_oracle(inputs, rounds):
    for i, n in enumerate(inputs):
        a, b = np.random.default_rng(i), np.random.default_rng(i)
        assert is_probable_prime(n, a, rounds) == oracle_is_probable_prime(n, b, rounds), n
        assert _state(a) == _state(b), n


def test_is_probable_prime_without_rng_matches_oracle(inputs):
    for n in inputs:
        assert is_probable_prime(n) == oracle_is_probable_prime(n), n


def test_is_probable_prime_shares_a_stream_like_the_oracle():
    """Interleaved calls on one generator leave it where the oracle does."""
    a, b = np.random.default_rng(5), np.random.default_rng(5)
    for n in (2**127 - 1, PSI13, 1_000_003, PSI12, 2**61 - 1, 91):
        assert is_probable_prime(n, a) == oracle_is_probable_prime(n, b)
        assert int(a.integers(0, 1000)) == int(b.integers(0, 1000))
    assert _state(a) == _state(b)


@pytest.mark.parametrize("bits", [8, 31, 64, 90, 128, 256])
def test_generate_prime_matches_oracle(bits):
    for seed in range(8):
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        assert generate_prime(bits, a) == oracle_generate_prime(bits, b)
        assert _state(a) == _state(b)


def test_rsa_keygen_matches_oracle():
    for seed in range(6):
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        key = RSAKeyPair.generate(a, bits=128)
        p = oracle_generate_prime(64, b)
        q = oracle_generate_prime(64, b)
        assert p != q and (p - 1) * (q - 1) % 65537 != 0
        assert key.n == p * q
        assert _state(a) == _state(b)


# ------------------------------------------------------ witness-set bound
def test_psi12_and_psi13_are_composite():
    assert PSI12 == 399165290221 * 798330580441
    assert PSI13 == 1287836182261 * 2575672364521
    assert _PSI12 == PSI12


def test_fixed_bases_alone_pass_psi12_and_psi13():
    """The 12 fixed bases are not a proof at or above ψ12."""
    assert is_probable_prime(PSI12)
    assert is_probable_prime(PSI13)


@pytest.mark.parametrize("seed", range(5))
def test_random_rounds_reject_psi12_and_psi13(seed):
    """ψ12 passes every fixed base, so rejecting it means the random
    rounds ran: the proven-verdict skip holds only for ``n < ψ12``."""
    assert not is_probable_prime(PSI12, np.random.default_rng(seed))
    assert not is_probable_prime(PSI13, np.random.default_rng(seed))


def test_skip_below_psi12_draws_the_rounds():
    """Below ψ12 a prime's rounds are still drawn, chunk for chunk."""
    p = 2**61 - 1
    assert p < PSI12
    a, b = np.random.default_rng(1), np.random.default_rng(1)
    assert is_probable_prime(p, a, rounds=7)
    b.integers(0, 2**30, size=7 * (p.bit_length() // 30 + 1))
    assert _state(a) == _state(b)


# ------------------------------------------------------------ chunk stream
def test_chunk_stream_matches_scalar_draws_and_gives_back_the_rest():
    a, b = np.random.default_rng(11), np.random.default_rng(11)
    with ChunkStream(a, block=4) as stream:
        got = [stream.compose(1) for _ in range(3)]
        got.append(stream.compose(3))
        stream.skip(5)
        got.append(stream.compose(2))
    want = [int(b.integers(0, 2**30)) for _ in range(3)]
    c = [int(b.integers(0, 2**30)) for _ in range(3)]
    want.append((c[0] << 60) | (c[1] << 30) | c[2])
    for _ in range(5):
        b.integers(0, 2**30)
    c = [int(b.integers(0, 2**30)) for _ in range(2)]
    want.append((c[0] << 30) | c[1])
    assert got == want
    assert _state(a) == _state(b)
    assert int(a.integers(0, 2**30)) == int(b.integers(0, 2**30))


def test_chunk_stream_close_is_idempotent_and_unused_stream_draws_nothing():
    a = np.random.default_rng(12)
    before = _state(a)
    stream = ChunkStream(a)
    stream.close()
    assert _state(a) == before
    stream.compose(2)
    stream.close()
    stream.close()
    b = np.random.default_rng(12)
    b.integers(0, 2**30, size=2)
    assert _state(a) == _state(b)


if __name__ == "__main__":
    print(json.dumps(snapshot(), indent=1))
