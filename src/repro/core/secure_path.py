"""Cryptographic route confirmation and verification (§2.2, §5).

The paper's protocol: "after R receives the payload, it sends back a
confirmation through the reverse path.  Each intermediate forwarder also
includes path information which is then used by I to recreate the path
and validate it."  The technical report's crypto details are unpublished;
this module implements the natural construction:

- the initiator attaches an **ephemeral public key** to the contract (a
  fresh key per series, so it identifies nothing);
- on the reverse path every forwarder appends a **sealed hop record**
  ``Enc_ephemeral(node, predecessor, successor, round)`` — only the
  initiator can open it, so forwarders learn nothing about the rest of
  the path beyond their own neighbours (which they already know);
- the initiator opens all records and **recreates the path** by chaining
  predecessor/successor links; any forged, duplicated, dropped or
  inconsistent record breaks the chain and fails validation — this is
  what makes inflated payment claims detectable (see
  :mod:`repro.payment.fraud`).

The sealing uses hybrid encryption built from this repo's own
primitives: RSA (shared with the bank's blind-signature keys) transports
a fresh session key; the payload is XORed with a SHA-256 keystream.
Textbook constructions — a simulation substrate, not production crypto.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.path import Path
from repro.payment.crypto import ChunkStream, RSAKeyPair


def keystream_xor(key: bytes, data: bytes) -> bytes:
    """XOR ``data`` with a SHA-256 counter-mode keystream (symmetric)."""
    out = bytearray(len(data))
    counter = 0
    pos = 0
    while pos < len(data):
        block = hashlib.sha256(key + struct.pack(">Q", counter)).digest()
        n = min(len(block), len(data) - pos)
        for i in range(n):
            out[pos + i] = data[pos + i] ^ block[i]
        pos += n
        counter += 1
    return bytes(out)


@dataclass(frozen=True)
class SealedBox:
    """Hybrid ciphertext: RSA-wrapped session key + keystream ciphertext."""

    wrapped_key: int
    ciphertext: bytes


def seal(public: RSAKeyPair, plaintext: bytes, rng: np.random.Generator) -> SealedBox:
    """Encrypt so that only the holder of ``public``'s private exponent
    can read (the :class:`RSAKeyPair` carries both halves; sealing uses
    only ``n`` and ``e``)."""
    with ChunkStream(rng, block=3) as stream:
        key_int = 2 + stream.compose(3) % (public.n - 3)
    session_key = hashlib.sha256(key_int.to_bytes(32, "big")).digest()
    wrapped = pow(key_int, public.e, public.n)
    return SealedBox(wrapped_key=wrapped, ciphertext=keystream_xor(session_key, plaintext))


def unseal(private: RSAKeyPair, box: SealedBox) -> bytes:
    """Decrypt a :class:`SealedBox` with the private exponent."""
    key_int = pow(box.wrapped_key, private.d, private.n)
    session_key = hashlib.sha256(key_int.to_bytes(32, "big")).digest()
    return keystream_xor(session_key, box.ciphertext)


# ------------------------------------------------------------------ hop records
_RECORD = struct.Struct(">qqqq")  # node, predecessor, successor, round


def encode_hop_record(node: int, predecessor: int, successor: int, round_index: int) -> bytes:
    """Fixed-width binary encoding of one hop record."""
    return _RECORD.pack(node, predecessor, successor, round_index)


def decode_hop_record(blob: bytes) -> Tuple[int, int, int, int]:
    """Inverse of :func:`encode_hop_record`; rejects wrong-size blobs."""
    if len(blob) != _RECORD.size:
        raise ValueError(f"hop record must be {_RECORD.size} bytes, got {len(blob)}")
    return _RECORD.unpack(blob)


@dataclass
class RouteConfirmation:
    """The reverse-path confirmation accumulating sealed hop records."""

    cid: int
    round_index: int
    records: List[SealedBox]

    @classmethod
    def start(cls, cid: int, round_index: int) -> "RouteConfirmation":
        return cls(cid=cid, round_index=round_index, records=[])

    def append_hop(
        self,
        ephemeral_public: RSAKeyPair,
        node: int,
        predecessor: int,
        successor: int,
        rng: np.random.Generator,
    ) -> None:
        """Called by each forwarder on the reverse path."""
        blob = encode_hop_record(node, predecessor, successor, self.round_index)
        self.records.append(seal(ephemeral_public, blob, rng))


@dataclass(frozen=True)
class ValidationResult:
    valid: bool
    reason: str
    #: The recreated forwarder sequence (empty when invalid).
    forwarders: Tuple[int, ...] = ()


def validate_confirmation(
    ephemeral_private: RSAKeyPair,
    confirmation: RouteConfirmation,
    initiator: int,
    responder: int,
) -> ValidationResult:
    """Initiator-side path recreation and validation.

    Opens every sealed record, then chains them: the records must form a
    single path ``initiator -> f1 -> ... -> fm -> responder`` where each
    record's successor is the next record's node and each record's
    predecessor is the previous record's node.  Any decryption garbage,
    wrong round, break in the chain, or dangling record fails validation.
    """
    decoded = []
    for box in confirmation.records:
        try:
            rec = decode_hop_record(unseal(ephemeral_private, box))
        except (ValueError, OverflowError):
            return ValidationResult(False, "undecodable hop record")
        decoded.append(rec)
    if not decoded:
        return ValidationResult(False, "no hop records")
    for node, _pred, _succ, rnd in decoded:
        if rnd != confirmation.round_index:
            return ValidationResult(False, f"record for wrong round at node {node}")
    # Records arrive in reverse-path order (last forwarder first) or
    # forward order depending on implementation; normalise by chaining.
    by_node = {rec[0]: rec for rec in decoded}
    if len(by_node) != len(decoded):
        return ValidationResult(False, "duplicate hop record")
    # Find the first forwarder: predecessor == initiator.
    first = [r for r in decoded if r[1] == initiator]
    if len(first) != 1:
        return ValidationResult(False, "no unique first hop from initiator")
    chain = [first[0]]
    seen = {first[0][0]}
    while chain[-1][2] != responder:
        nxt = by_node.get(chain[-1][2])
        if nxt is None:
            return ValidationResult(False, f"chain breaks after node {chain[-1][0]}")
        if nxt[0] in seen:
            return ValidationResult(False, "cycle in hop records")
        if nxt[1] != chain[-1][0]:
            return ValidationResult(
                False, f"predecessor mismatch at node {nxt[0]}"
            )
        chain.append(nxt)
        seen.add(nxt[0])
    if len(chain) != len(decoded):
        return ValidationResult(False, "dangling hop records (inflation attempt)")
    return ValidationResult(True, "ok", forwarders=tuple(r[0] for r in chain))


def confirm_and_validate_path(
    path: Path,
    ephemeral: RSAKeyPair,
    rng: np.random.Generator,
) -> ValidationResult:
    """Convenience: run the full reverse-path confirmation for a
    :class:`repro.core.path.Path` and validate it (used by tests and the
    protocol example)."""
    confirmation = RouteConfirmation.start(path.cid, path.round_index)
    # Reverse path: last forwarder appends first.
    for predecessor, node, successor in reversed(path.hop_records()):
        confirmation.append_hop(ephemeral, node, predecessor, successor, rng)
    return validate_confirmation(
        ephemeral, confirmation, path.initiator, path.responder
    )
