"""Simulation-grade commitments and transcript authentication.

Rapid-phase nonces are committed before the timed exchange and opened
afterwards, so a responder cannot adapt its bits to the challenges it
received.  Hiding comes from a random blinding value, binding from the
collision resistance of the digest.

Signatures are a keyed digest checked through a trusted key directory:
the registry holds every certified node's secret, and verification
recomputes the tag under the key registered for the claimed signer.
The scheme is deliberately minimal; the protocols only need "was this
transcript endorsed by a registered identity", not real PKI.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass
from itertools import repeat
from random import Random
from typing import Dict, Sequence, Tuple

from .core import GdbSimError, NodeId

BLINDING_BYTES = 16


class OpeningMismatch(GdbSimError):
    """The opened values and blinding do not hash to the commitment."""


class UnknownKey(GdbSimError):
    """Signature presented for an identity the registry never certified."""


def hash_bytes(data: bytes) -> bytes:
    """32-byte digest of arbitrary data."""
    return hashlib.sha256(data).digest()


def _encode_values(values: Sequence[int], bit_len: int) -> bytes:
    # Fixed-width encoding keeps the digest canonical for any bit_len.  At width 1
    # bytes() spells the values in one call; a value it refuses falls through to the
    # join, which raises int.to_bytes' OverflowError.
    width = (bit_len + 7) // 8
    head = bit_len.to_bytes(4, "big") + len(values).to_bytes(4, "big")
    if width == 1:
        try:
            return head + bytes(values)
        except ValueError:
            pass
    return head + b"".join(map(int.to_bytes, values, repeat(width), repeat("big")))


@dataclass(frozen=True)
class Commitment:
    digest: bytes


@dataclass(frozen=True)
class Opening:
    values: Tuple[int, ...]
    bit_len: int
    blinding: bytes


def commit(values: Sequence[int], bit_len: int, rng: Random) -> Tuple[Commitment, Opening]:
    """Commit to a tuple of bit_len-wide integers.

    The blinding is drawn from the caller's RNG stream so a run is
    reproducible from its seed.
    """
    if values and not (0 <= min(values) and max(values) < 1 << bit_len):
        raise ValueError(f"committed values must fit in {bit_len} bits")
    blinding = rng.randbytes(BLINDING_BYTES)
    opening = Opening(values=tuple(values), bit_len=bit_len, blinding=blinding)
    digest = hash_bytes(_encode_values(opening.values, bit_len) + blinding)
    return Commitment(digest=digest), opening


def open_commitment(commitment: Commitment, opening: Opening) -> Tuple[int, ...]:
    """Check an opening against its commitment and return the values."""
    digest = hash_bytes(_encode_values(opening.values, opening.bit_len) + opening.blinding)
    if digest != commitment.digest:
        raise OpeningMismatch("opening does not match commitment")
    return opening.values


class KeyRegistry:
    """Trusted directory mapping certified node ids to signing keys."""

    def __init__(self) -> None:
        self._keys: Dict[NodeId, bytes] = {}

    def register(self, node_id: NodeId, rng: Random) -> None:
        self._keys[node_id] = rng.randbytes(32)

    def sign(self, node_id: NodeId, message: bytes) -> bytes:
        if node_id not in self._keys:
            raise UnknownKey(f"node {node_id} holds no registered key")
        return hmac.new(self._keys[node_id], message, hashlib.sha256).digest()

    def verify(self, node_id: NodeId, message: bytes, signature: bytes) -> bool:
        if node_id not in self._keys:
            raise UnknownKey(f"node {node_id} holds no registered key")
        expected = hmac.new(self._keys[node_id], message, hashlib.sha256).digest()
        return hmac.compare_digest(expected, signature)
