"""Crypto kernel: digests, signatures, sealing, RNG reproducibility."""

import hashlib

import pytest
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey
from hypothesis import given, settings
from hypothesis import strategies as st

from attestsim import crypto
from attestsim.crypto import (
    DIGEST_LEN,
    KeyPair,
    MalformedKeyError,
    Rng,
    UnsealError,
    certificate_valid,
    derive_key,
    generate_keypair,
    issue_certificate,
    seal,
    sha256,
    sign,
    unseal,
    verify,
)

# Published SHA-256 digest of the empty input; frozen here as the oracle.
EMPTY_SHA256 = bytes.fromhex(
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
)


def test_empty_input_digest_matches_published_vector():
    assert sha256(b"") == EMPTY_SHA256


def test_digest_is_deterministic_and_32_bytes():
    a = sha256(b"same-input")
    b = sha256(b"same-input")
    assert a == b
    assert len(a) == DIGEST_LEN


def test_single_bit_flip_changes_digest():
    rng = Rng(1234)
    for _ in range(1000):
        data = bytearray(rng.bytes(48))
        base = sha256(bytes(data))
        bit = rng.randint(0, len(data) * 8 - 1)
        data[bit // 8] ^= 1 << (bit % 8)
        assert sha256(bytes(data)) != base


def test_digest_chaining_has_no_accidental_collisions():
    # 10^4 random (a, b) pairs; hash(a || b) should never collide across pairs
    rng = Rng(99)
    seen = set()
    for _ in range(10_000):
        a, b = rng.bytes(32), rng.bytes(32)
        seen.add(sha256(a + b))
    assert len(seen) == 10_000


# --------------------------------------------------------------------------
# signatures
# --------------------------------------------------------------------------


def test_sign_verify_roundtrip_and_rejection():
    rng = Rng(7)
    kp = generate_keypair(rng)
    other = generate_keypair(rng)
    sig = sign(b"message", kp)
    assert verify(sig, b"message", kp.public)
    assert not verify(sig, b"message2", kp.public)
    assert not verify(sig, b"message", other.public)


def test_signing_is_deterministic():
    kp = generate_keypair(Rng(8))
    assert sign(b"x", kp) == sign(b"x", kp)


def test_signing_key_is_built_once_and_matches_a_fresh_one():
    kp = generate_keypair(Rng(11))
    assert kp.private_key is kp.private_key
    fresh = Ed25519PrivateKey.from_private_bytes(kp.seed)
    for message in (b"first", b"second"):
        assert sign(message, kp) == fresh.sign(message)
    # the cached key is not part of the keypair's identity
    twin = KeyPair(seed=kp.seed, public=kp.public)
    assert twin == kp and hash(twin) == hash(kp)
    assert KeyPair(seed=bytes(32), public=kp.public) != kp


def test_malformed_keys_are_reported():
    kp = generate_keypair(Rng(9))
    with pytest.raises(MalformedKeyError):
        verify(b"\x00" * 64, b"m", b"short")
    with pytest.raises(MalformedKeyError):
        sign(b"m", KeyPair(seed=b"tiny", public=kp.public))


def test_certificate_chain_check():
    rng = Rng(10)
    authority = generate_keypair(rng)
    rogue = generate_keypair(rng)
    subject = generate_keypair(rng)
    cert = issue_certificate(authority, subject.public, "tpm-ek")
    assert certificate_valid(cert, [authority.public], "tpm-ek")
    assert not certificate_valid(cert, [authority.public], "beacon")
    assert not certificate_valid(cert, [rogue.public], "tpm-ek")
    forged = crypto.Certificate(
        subject=subject.public, issuer=authority.public, role="tpm-ek",
        signature=sign(cert.signed_payload(), rogue),
    )
    assert not certificate_valid(forged, [authority.public], "tpm-ek")


# --------------------------------------------------------------------------
# sealing
# --------------------------------------------------------------------------


def test_seal_roundtrip_and_wrong_key():
    key = derive_key(b"root", b"measurement")
    other = derive_key(b"root", b"other-measurement")
    blob = seal(b"secret payload", key)
    assert unseal(blob, key) == b"secret payload"
    with pytest.raises(UnsealError):
        unseal(blob, other)


def test_tampering_any_byte_breaks_the_seal():
    key = derive_key(b"k")
    blob = seal(b"payload-bytes-under-test", key)
    for i in range(len(blob)):
        bad = bytearray(blob)
        bad[i] ^= 0x01
        with pytest.raises(UnsealError):
            unseal(bytes(bad), key)


def test_wrong_key_and_tampered_blob_raise_the_same_error():
    key = derive_key(b"a")
    blob = seal(b"p", key)
    tampered = bytearray(blob)
    tampered[-1] ^= 0xFF
    with pytest.raises(UnsealError):
        unseal(bytes(tampered), key)
    with pytest.raises(UnsealError):
        unseal(blob, derive_key(b"b"))


@settings(max_examples=50)
@given(payload=st.binary(max_size=512), seed=st.integers(0, 2**32))
def test_seal_unseal_inverse_property(payload, seed):
    key = sha256(seed.to_bytes(8, "big"))
    assert unseal(seal(payload, key), key) == payload


# --------------------------------------------------------------------------
# rng
# --------------------------------------------------------------------------


def test_rng_streams_reproduce_for_equal_seeds():
    a, b = Rng(42), Rng(42)
    assert a.bytes(64) == b.bytes(64)
    assert Rng(42).bytes(8) != Rng(43).bytes(8)


def test_rng_child_streams_are_stable_and_independent():
    a = Rng(5).child("machine-0")
    b = Rng(5).child("machine-0")
    c = Rng(5).child("machine-1")
    assert a.bytes(16) == b.bytes(16)
    assert Rng(5).child("machine-0").bytes(16) != c.bytes(16)


def test_derive_key_matches_plain_hash_composition():
    assert derive_key(b"ab", b"cd") == hashlib.sha256(b"abcd").digest()
