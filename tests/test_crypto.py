"""Commitment and signing primitives."""
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from gdbsim.crypto import (
    Commitment,
    KeyRegistry,
    Opening,
    OpeningMismatch,
    UnknownKey,
    _encode_values,
    commit,
    hash_bytes,
    open_commitment,
)


def test_commit_open_round_trip():
    com, opening = commit([1, 0, 1, 1], bit_len=1, rng=random.Random(1))
    assert open_commitment(com, opening) == (1, 0, 1, 1)


def test_commit_is_seed_deterministic():
    a, _ = commit([3, 2, 1], bit_len=2, rng=random.Random(42))
    b, _ = commit([3, 2, 1], bit_len=2, rng=random.Random(42))
    assert a.digest == b.digest


def test_blinding_hides_values():
    # same values, fresh randomness, different digest
    a, _ = commit([1, 1], bit_len=1, rng=random.Random(1))
    b, _ = commit([1, 1], bit_len=1, rng=random.Random(2))
    assert a.digest != b.digest


def test_commit_rejects_oversized_values():
    for values in ([2], [-1], [0, 1, 2], [1, -1, 0]):
        with pytest.raises(ValueError, match="must fit in 1 bits"):
            commit(values, bit_len=1, rng=random.Random(0))


@given(st.lists(st.integers(min_value=-2, max_value=2**17), max_size=6),
       st.integers(min_value=0, max_value=17))
@example([255], 8)  # b"\xff", the widest byte
@example([2], 1)  # b"\x02": the width is whole bytes, bit_len is not checked here
@example([256], 8)  # OverflowError, as bytes() refuses it
@example([-1], 1)  # OverflowError, the same
def test_encoding_is_each_value_spelled_out(values, bit_len):
    """The committed bytes are the header, then each value big-endian at the
    fixed width; a value that does not fit raises int.to_bytes' OverflowError."""
    width = (bit_len + 7) // 8
    try:
        want = (bit_len.to_bytes(4, "big") + len(values).to_bytes(4, "big")
                + b"".join(v.to_bytes(width, "big") for v in values))
    except OverflowError:
        with pytest.raises(OverflowError):
            _encode_values(values, bit_len)
    else:
        assert _encode_values(values, bit_len) == want


def test_tampered_values_rejected():
    com, opening = commit([0, 1], bit_len=1, rng=random.Random(7))
    forged = Opening(values=(1, 1), bit_len=1, blinding=opening.blinding)
    with pytest.raises(OpeningMismatch):
        open_commitment(com, forged)


def test_a_forged_width_one_opening_is_refused_as_the_join_refuses_it():
    """At width 1 an opening to a value that fits the byte but not bit_len does not
    match, and one to a value wider than the byte raises int.to_bytes' OverflowError."""
    com, opening = commit([0], bit_len=1, rng=random.Random(7))
    with pytest.raises(OpeningMismatch):
        open_commitment(com, Opening((2,), 1, opening.blinding))
    with pytest.raises(OverflowError):
        open_commitment(com, Opening((256,), 1, opening.blinding))


def test_tampered_blinding_rejected():
    com, opening = commit([0, 1], bit_len=1, rng=random.Random(7))
    forged = Opening(values=opening.values, bit_len=1,
                     blinding=bytes(b ^ 0xFF for b in opening.blinding))
    with pytest.raises(OpeningMismatch):
        open_commitment(com, forged)


def test_wrong_commitment_rejected():
    _, opening = commit([0], bit_len=1, rng=random.Random(1))
    with pytest.raises(OpeningMismatch):
        open_commitment(Commitment(digest=hash_bytes(b"other")), opening)


@given(st.lists(st.integers(min_value=0, max_value=255), max_size=20),
       st.integers(min_value=0, max_value=2**31))
def test_round_trip_any_values(values, seed):
    com, opening = commit(values, bit_len=8, rng=random.Random(seed))
    assert open_commitment(com, opening) == tuple(values)


def test_registry_sign_verify():
    reg = KeyRegistry()
    reg.register(5, random.Random(0))
    tag = reg.sign(5, b"transcript")
    assert reg.verify(5, b"transcript", tag)
    assert not reg.verify(5, b"transcript!", tag)


def test_registry_keys_differ_per_node():
    reg = KeyRegistry()
    rng = random.Random(0)
    reg.register(1, rng)
    reg.register(2, rng)
    assert reg.sign(1, b"m") != reg.sign(2, b"m")


def test_registry_unknown_identity():
    reg = KeyRegistry()
    reg.register(5, random.Random(0))
    tag = reg.sign(5, b"m")
    with pytest.raises(UnknownKey, match="node 9 holds no registered key"):
        reg.sign(9, b"m")
    with pytest.raises(UnknownKey, match="node 9 holds no registered key"):
        reg.verify(9, b"m", tag)
