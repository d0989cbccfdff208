"""Deterministic crypto primitives shared by every simulator layer.

Everything above this module treats these as opaque building blocks:
SHA-256 digests, Ed25519 signatures, AES-GCM authenticated sealing and a
seedable RNG.  All operations are pure functions of their inputs (plus
explicit RNG state), which is what makes whole simulation runs
bit-reproducible from a single 64-bit seed.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Iterable

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

DIGEST_LEN = 32
ZERO_DIGEST = b"\x00" * DIGEST_LEN
ONES_DIGEST = b"\xff" * DIGEST_LEN

KEY_LEN = 32
_SEAL_NONCE_LEN = 12


class CryptoError(Exception):
    """Base class for everything raised out of this module."""


class MalformedKeyError(CryptoError):
    """A key of the wrong shape was handed to sign/verify."""


class UnsealError(CryptoError):
    """Unsealing failed.

    Raised both for a wrong key and for a tampered blob; callers can tell
    "failure" from "success" but deliberately not which of the two causes
    occurred.
    """


# --------------------------------------------------------------------------
# hashing
# --------------------------------------------------------------------------


def sha256(data: bytes) -> bytes:
    """Digest of ``data``; the single hash used across the simulator."""
    return hashlib.sha256(data).digest()


# --------------------------------------------------------------------------
# randomness
# --------------------------------------------------------------------------


class Rng:
    """Seedable random stream (Mersenne Twister via :mod:`random`).

    The wrapper pins the small surface the simulator needs and documents
    that equal seeds yield byte-identical streams.  ``child`` derives an
    independent, reproducible sub-stream from a label, which is how the
    scenario runner fans one master seed out to machines and agents.

    The draws are the generator's own bound methods: ``bytes(n)``,
    ``uniform(low, high)`` and ``randint(low, high)`` (both ends
    inclusive), so a draw goes straight to the generator.
    """

    def __init__(self, seed: int):
        self.seed = seed & 0xFFFFFFFFFFFFFFFF
        generator = random.Random(self.seed)
        self.bytes: Callable[[int], bytes] = generator.randbytes
        self.uniform: Callable[[float, float], float] = generator.uniform
        self.randint: Callable[[int, int], int] = generator.randint

    def child(self, label: str) -> "Rng":
        seed_bytes = sha256(self.seed.to_bytes(8, "big") + label.encode())
        return Rng(int.from_bytes(seed_bytes[:8], "big"))


# --------------------------------------------------------------------------
# signatures
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class KeyPair:
    """Ed25519 keypair; ``public`` is the canonical 32-byte encoding."""

    seed: bytes
    public: bytes

    @cached_property
    def private_key(self) -> Ed25519PrivateKey:
        """The signing key, built from ``seed`` once per keypair."""
        return Ed25519PrivateKey.from_private_bytes(self.seed)


def generate_keypair(rng: Rng) -> KeyPair:
    seed = rng.bytes(KEY_LEN)
    priv = Ed25519PrivateKey.from_private_bytes(seed)
    public = priv.public_key().public_bytes_raw()
    return KeyPair(seed=seed, public=public)


def sign(message: bytes, key: KeyPair) -> bytes:
    if len(key.seed) != KEY_LEN:
        raise MalformedKeyError("signing key must hold a 32-byte seed")
    return key.private_key.sign(message)


@lru_cache(maxsize=64)
def _public_key(public: bytes) -> Ed25519PublicKey:
    # an agent checks every quote under one AIK and every signed file under
    # one distributor key, so a few keys cover nearly every verification
    return Ed25519PublicKey.from_public_bytes(public)


def verify(signature: bytes, message: bytes, public: bytes) -> bool:
    """True iff ``signature`` is valid for ``message`` under ``public``."""
    if not isinstance(public, bytes) or len(public) != KEY_LEN:
        raise MalformedKeyError("verification key must be 32 raw bytes")
    try:
        _public_key(public).verify(signature, message)
    except (InvalidSignature, ValueError):
        return False
    return True


# --------------------------------------------------------------------------
# certificates (abstract: a signature by a declared issuer over a subject key)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Certificate:
    """Issuer's signature binding a subject verification key to a role."""

    subject: bytes
    issuer: bytes
    role: str
    signature: bytes

    def signed_payload(self) -> bytes:
        return self.role.encode() + b"\x00" + self.subject


def issue_certificate(authority: KeyPair, subject: bytes, role: str) -> Certificate:
    cert = Certificate(subject=subject, issuer=authority.public, role=role, signature=b"")
    sig = sign(cert.signed_payload(), authority)
    return Certificate(subject=subject, issuer=authority.public, role=role, signature=sig)


def certificate_valid(cert: Certificate, roots: Iterable[bytes], role: str) -> bool:
    """Chain check: the certificate is for ``role``, its declared issuer is a
    trusted root and the issuer's signature holds."""
    if cert.role != role or cert.issuer not in set(roots):
        return False
    return verify(cert.signature, cert.signed_payload(), cert.issuer)


# --------------------------------------------------------------------------
# authenticated sealing
# --------------------------------------------------------------------------


def derive_key(*parts: bytes) -> bytes:
    """32-byte key from the concatenation of fixed-length inputs."""
    return sha256(b"".join(parts))


def seal(payload: bytes, key: bytes) -> bytes:
    """AEAD-seal ``payload`` under ``key``; blob layout is nonce || ct || tag.

    The nonce is derived from (key, payload) so sealing is deterministic;
    for the simulator's purposes this only means identical inputs produce
    identical blobs, which is exactly the reproducibility contract.
    """
    if len(key) != KEY_LEN:
        raise MalformedKeyError("seal key must be 32 bytes")
    nonce = sha256(key + payload)[:_SEAL_NONCE_LEN]
    ct = AESGCM(key).encrypt(nonce, payload, None)
    return nonce + ct


def unseal(blob: bytes, key: bytes) -> bytes:
    if len(key) != KEY_LEN:
        raise MalformedKeyError("seal key must be 32 bytes")
    if len(blob) < _SEAL_NONCE_LEN + 16:
        raise UnsealError("sealed blob is truncated")
    nonce, ct = blob[:_SEAL_NONCE_LEN], blob[_SEAL_NONCE_LEN:]
    try:
        return AESGCM(key).decrypt(nonce, ct, None)
    except Exception as exc:  # InvalidTag and friends collapse to one failure
        raise UnsealError("unseal failed") from exc
