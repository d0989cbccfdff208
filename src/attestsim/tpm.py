"""Software model of a TPM 2.0 style device.

State lives in :class:`TpmState`: static PCRs 0..15, dynamic PCRs 17..19
(reset only by a DRTM launch at locality 4, extended only at locality >= 2),
the current locality, an endorsement key with a manufacturer certificate,
attestation identity keys, a monotonic reboot counter and a quote clock.
PCRs are extend-only: ``pcr[n] = hash(pcr[n] || value)``, never
assignable.  An extend happens at the chip's locality, which only the
platform raises (:func:`attestsim.machine.boot`), so no caller can claim a
locality the platform never raised.

Quotes are signatures over the selected-PCR composite digest plus a caller
nonce and the counters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from .crypto import (
    DIGEST_LEN,
    ONES_DIGEST,
    ZERO_DIGEST,
    Certificate,
    KeyPair,
    Rng,
    UnsealError,
    derive_key,
    generate_keypair,
    issue_certificate,
    seal,
    sha256,
    sign,
    unseal,
    verify,
)

STATIC_PCRS = tuple(range(0, 16))
MASKED_PCR = 0  # the static register the firmware measurement lands in
DYNAMIC_PCRS = (17, 18, 19)
IMA_PCR = 10

DRTM_LOCALITY = 4
DYNAMIC_EXTEND_LOCALITY = 2
NONCE_LEN = 32


class TpmError(Exception):
    pass


class InvalidPcrIndex(TpmError):
    pass


class LocalityViolation(TpmError):
    pass


class UnknownAik(TpmError):
    pass


class ActivationError(TpmError):
    """Credential activation failed; ``reason`` is wrong-ek or unknown-aik."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


def extend_digest(current: bytes, value: bytes) -> bytes:
    """One extend step: hash(current || value)."""
    return sha256(current + value)


def _power_on_pcrs() -> Dict[int, bytes]:
    """Register values at power-on: statics zero, dynamics an all-ones
    sentinel until the first DRTM launch of the power cycle."""
    return {**dict.fromkeys(STATIC_PCRS, ZERO_DIGEST),
            **dict.fromkeys(DYNAMIC_PCRS, ONES_DIGEST)}


def quote_payload(pcr_digest: bytes, nonce: bytes, reboot_counter: int,
                  clock: int) -> bytes:
    """What a quote signature covers: (pcr_digest || nonce || reboot_counter
    || clock), the counters as 8-byte big-endian ints."""
    return (pcr_digest + nonce + reboot_counter.to_bytes(8, "big")
            + clock.to_bytes(8, "big"))


@dataclass(frozen=True)
class Quote:
    """Signed attestation of selected PCRs.

    ``pcr_digest`` is the hash of the concatenated selected PCR values in
    selection order; the signature covers :func:`quote_payload`.
    """

    selection: Tuple[int, ...]
    pcr_digest: bytes
    nonce: bytes
    reboot_counter: int
    clock: int
    signature: bytes
    aik_pub: bytes

    def verify_signature(self) -> bool:
        payload = quote_payload(self.pcr_digest, self.nonce, self.reboot_counter,
                                self.clock)
        return verify(self.signature, payload, self.aik_pub)


def composite_digest(values: Sequence[bytes]) -> bytes:
    return sha256(b"".join(values))


class TpmState:
    """One simulated TPM chip."""

    def __init__(self, manufacturer: KeyPair, rng: Rng):
        self._pcrs = _power_on_pcrs()
        self.ek = generate_keypair(rng)
        self.ek_cert: Certificate = issue_certificate(manufacturer, self.ek.public, "tpm-ek")
        self.aiks: Dict[bytes, KeyPair] = {}
        self.reboot_counter = 0
        self.clock = 0
        self.locality = 0

    # -- pcr operations ----------------------------------------------------

    def pcr_extend(self, index: int, value: bytes) -> None:
        """Extend a PCR at the chip's locality.  Static registers accept any
        locality; dynamic registers require locality >= 2 (the
        DRTM-launched environment)."""
        if index in DYNAMIC_PCRS and self.locality < DYNAMIC_EXTEND_LOCALITY:
            raise LocalityViolation(
                f"dynamic pcr {index} extend needs locality >= {DYNAMIC_EXTEND_LOCALITY}"
            )
        if len(value) != DIGEST_LEN:
            raise TpmError("extend value must be a 32-byte digest")
        self._pcrs[index] = extend_digest(self.read_pcr(index), value)

    def read_pcr(self, index: int) -> bytes:
        if index not in self._pcrs:
            raise InvalidPcrIndex(f"pcr {index} does not exist")
        return self._pcrs[index]

    def drtm_launch_reset(self) -> None:
        """Reset dynamic PCRs to zero; only the DRTM instruction (modeled as
        the platform raising locality to 4) may do this."""
        if self.locality != DRTM_LOCALITY:
            raise LocalityViolation("dynamic reset requires locality 4")
        self._pcrs.update(dict.fromkeys(DYNAMIC_PCRS, ZERO_DIGEST))

    # -- keys and quotes ---------------------------------------------------

    def create_aik(self, rng: Rng) -> bytes:
        """Mint a fresh attestation identity key; the public key doubles as
        its handle."""
        aik = generate_keypair(rng)
        self.aiks[aik.public] = aik
        return aik.public

    def activate_credential(self, aik_pub: bytes, challenge: bytes) -> bytes:
        """Recover a challenge secret sealed to this TPM's EK and a resident
        AIK; proves the AIK lives in the TPM holding the certified EK."""
        if aik_pub not in self.aiks:
            raise ActivationError("unknown-aik")
        key = derive_key(self.ek.public, aik_pub)
        try:
            return unseal(challenge, key)
        except UnsealError as exc:
            raise ActivationError("wrong-ek") from exc

    def quote(self, aik_pub: bytes, nonce: bytes, selection: Sequence[int]) -> Quote:
        if aik_pub not in self.aiks:
            raise UnknownAik("no such attestation key on this tpm")
        if len(nonce) != NONCE_LEN:
            raise TpmError("nonce must be 32 bytes")
        sel = tuple(int(i) for i in selection)
        values = [self.read_pcr(i) for i in sel]  # validates every index
        self.clock += 1
        digest = composite_digest(values)
        payload = quote_payload(digest, nonce, self.reboot_counter, self.clock)
        signature = sign(payload, self.aiks[aik_pub])
        return Quote(
            selection=sel,
            pcr_digest=digest,
            nonce=nonce,
            reboot_counter=self.reboot_counter,
            clock=self.clock,
            signature=signature,
            aik_pub=aik_pub,
        )

    # -- power -------------------------------------------------------------

    def reboot(self) -> None:
        """Power cycle: statics to zero, dynamics to the sentinel, counter up."""
        self.reboot_counter += 1
        self._pcrs = _power_on_pcrs()
        self.locality = 0


def make_credential(ek_cert: Certificate, aik_pub: bytes, secret: bytes) -> bytes:
    """Build an activation challenge for (EK, AIK) from the EK certificate.

    The challenge is sealed under a key derived from the certified EK and
    the named AIK, so only the TPM holding that EK *and* that AIK can
    recover the secret.
    """
    return seal(secret, derive_key(ek_cert.subject, aik_pub))
