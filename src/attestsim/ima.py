"""Runtime integrity measurement log (IMA-style) and its verifier cache.

The log is ASCII, one event per line:

    <pcr> <hex template_hash> <template_name> <hex file_hash> <path> [<hex sig>]

with template_name ``ima-sig`` when the file hash carries a distributor
signature and ``ima-ng`` otherwise.  The template hash is the digest of the
canonical event encoding; extending PCR 10 with each template hash in order
yields the aggregate that a quote certifies.  One :class:`ImaEvent`, built
by :func:`file_event`, goes from the measurement to the policy.  The kernel
appraises nothing: :func:`attestsim.policy.evaluate` alone judges files.

The machine writes the log append-only: each measurement appends its one
line, in place, to the ``bytearray`` that holds the log on disk, so a load
costs the same however long the log is.  Verification is differential: the
verifier keeps (bytes_read, running digest) and on each round folds only
the new suffix of the log, read line by line where it lies on disk, until
the running digest equals the quoted PCR-10 value.  Reaching the end of
the log without hitting that value means log and register diverged, which
is treated as tampering and is terminal for the platform.  A trailing line
without its newline is treated as not yet written (the writer may be
mid-append), never as tampering by itself.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Tuple, Union

from .crypto import DIGEST_LEN, ZERO_DIGEST, Rng, generate_keypair, sha256, sign
from .tpm import IMA_PCR, TpmState, extend_digest

TEMPLATE_NG = "ima-ng"
TEMPLATE_SIG = "ima-sig"


class ImaFormatError(Exception):
    pass


class TamperDetected(Exception):
    """Log contents and the certified PCR-10 value diverged."""


class ImaEvent(NamedTuple):
    """One log event, as measured, logged, parsed back and appraised.

    A named tuple rather than a frozen dataclass: one is built for every
    measured and every parsed line, and a tuple builds in about a third of
    the time.
    """

    pcr_index: int
    template_hash: bytes
    file_hash: bytes
    path: str
    signature: Optional[bytes] = None

    @property
    def template_name(self) -> str:
        return TEMPLATE_NG if self.signature is None else TEMPLATE_SIG

    def encode_line(self) -> bytes:
        parts = [
            str(self.pcr_index),
            self.template_hash.hex(),
            self.template_name,
            self.file_hash.hex(),
            self.path,
        ]
        if self.signature is not None:
            parts.append(self.signature.hex())
        return " ".join(parts).encode("ascii")


def template_hash(template_name: str, file_hash: bytes, path: str,
                  signature: Optional[bytes]) -> bytes:
    """Canonical event digest; what actually gets folded into PCR 10."""
    payload = template_name.encode() + b"\x00" + file_hash + b"\x00" + path.encode()
    if template_name == TEMPLATE_SIG:
        payload += b"\x00" + (signature or b"")
    return sha256(payload)


# canonical lowercase only: bytes.fromhex also accepts uppercase and
# whitespace, which would let two distinct spellings (log lines, policy
# whitelist entries) decode to the same digest
lowercase_hex = re.compile("[0-9a-f]+").fullmatch


def _strict_hex(field: str) -> bytes:
    if lowercase_hex(field) is None:
        raise ImaFormatError("hash fields must be lowercase hex")
    if len(field) % 2:
        # the only way lowercase hex digits fail bytes.fromhex
        raise ImaFormatError("bad numeric or hex field")
    return bytes.fromhex(field)


def parse_line(raw: bytes) -> ImaEvent:
    try:
        text = raw.decode("ascii")
    except UnicodeDecodeError as exc:
        raise ImaFormatError("non-ascii bytes in event line") from exc
    fields = text.split(" ")
    if len(fields) not in (5, 6):
        raise ImaFormatError(f"expected 5 or 6 fields, got {len(fields)}")
    try:
        pcr_index = int(fields[0])
    except ValueError as exc:
        raise ImaFormatError("bad numeric or hex field") from exc
    if fields[0] != str(pcr_index):
        # int() also reads "010", "+10" and "1_0" as 10
        raise ImaFormatError("pcr field must be canonical decimal")
    t_hash = _strict_hex(fields[1])
    file_hash = _strict_hex(fields[3])
    name = fields[2]
    if name not in (TEMPLATE_NG, TEMPLATE_SIG):
        raise ImaFormatError(f"unknown template {name!r}")
    if name == TEMPLATE_SIG:
        if len(fields) != 6:
            raise ImaFormatError("ima-sig event without signature field")
        signature: Optional[bytes] = _strict_hex(fields[5])
    else:
        if len(fields) != 5:
            raise ImaFormatError("ima-ng event with trailing field")
        signature = None
    path = fields[4]
    if len(t_hash) != DIGEST_LEN or len(file_hash) != DIGEST_LEN:
        raise ImaFormatError("hash fields must be 32 bytes")
    if t_hash != template_hash(name, file_hash, path, signature):
        raise ImaFormatError("template hash does not match event fields")
    return ImaEvent(pcr_index, t_hash, file_hash, path, signature)


def file_event(path: str, content: bytes, signature: Optional[bytes]) -> ImaEvent:
    """The PCR-10 event that measuring ``content`` at ``path`` logs."""
    if " " in path or "\n" in path:
        raise ImaFormatError("paths with whitespace are not representable")
    if signature == b"":
        raise ImaFormatError("an empty signature is not representable")
    file_hash = sha256(content)
    name = TEMPLATE_SIG if signature is not None else TEMPLATE_NG
    t_hash = template_hash(name, file_hash, path, signature)
    return ImaEvent(IMA_PCR, t_hash, file_hash, path, signature)


def measure_file(tpm: TpmState, path: str, content: bytes,
                 signature: Optional[bytes] = None) -> ImaEvent:
    """Measure a file: extend PCR 10 and return the event for the log
    (extend-first, so every complete log prefix matches some past register
    state)."""
    event = file_event(path, content, signature)
    tpm.pcr_extend(IMA_PCR, event.template_hash)
    return event


def aggregate(template_hashes) -> bytes:
    acc = ZERO_DIGEST
    for h in template_hashes:
        acc = extend_digest(acc, h)
    return acc


@dataclass(frozen=True)
class ImaCacheState:
    """Differential-verification cursor: B bytes consumed, running digest D."""

    bytes_read: int = 0
    running_digest: bytes = ZERO_DIGEST


def read_new_events(log_data: Union[bytes, bytearray], cache: ImaCacheState,
                    certified_pcr10: bytes) -> Tuple[List[ImaEvent], ImaCacheState]:
    """Consume new log lines until the running digest equals the certified
    PCR-10 value; raise :class:`TamperDetected` if that never happens.

    ``log_data`` is any bytes-like log, such as the ``bytearray`` a machine
    appends to in place; it is read as it is, one line at a time, and
    never copied whole.  The caller supplies the PCR-10 value it extracted
    from (and checked against) a verified quote.  Idempotent when nothing
    changed.
    """
    if cache.running_digest == certified_pcr10:
        return [], cache

    pos = cache.bytes_read
    running = cache.running_digest
    events: List[ImaEvent] = []

    while True:
        nl = log_data.find(b"\n", pos)
        if nl < 0:
            # any bytes past pos form an unfinished trailing line
            raise TamperDetected(
                "log ends before reaching the certified pcr-10 value"
            )
        line = log_data[pos:nl]
        try:
            event = parse_line(line)
        except ImaFormatError as exc:
            raise TamperDetected(f"unparseable event line: {exc}") from exc
        if event.pcr_index != IMA_PCR:
            # only events aimed at the aggregate register fold into the
            # chain; a rewritten index therefore surfaces as a digest
            # mismatch rather than silently hiding the event
            pos = nl + 1
            continue
        running = extend_digest(running, event.template_hash)
        events.append(event)
        pos = nl + 1
        if running == certified_pcr10:
            return events, ImaCacheState(bytes_read=pos, running_digest=running)


# --------------------------------------------------------------------------
# fixture generation
# --------------------------------------------------------------------------

SIGNED_FRACTION = 0.1
_PATH_STEMS = (
    "/usr/bin", "/usr/sbin", "/usr/lib64", "/lib/modules", "/etc/systemd",
    "/opt/stack", "/usr/libexec", "/var/lib/agents",
)


@dataclass(frozen=True)
class ManifestEntry:
    path: str
    content: bytes
    signature: Optional[bytes]


def generate_boot_manifest(seed: int, count: int) -> List[ManifestEntry]:
    """Deterministic pseudo boot file set; roughly ``SIGNED_FRACTION`` of the
    entries carry an ima-sig style signature by a seeded fixture signer."""
    rng = Rng(seed)
    signer = generate_keypair(rng.child("fixture-signer"))
    entries = []
    for i in range(count):
        stem = _PATH_STEMS[rng.randint(0, len(_PATH_STEMS) - 1)]
        path = f"{stem}/f{i:05d}-{rng.bytes(4).hex()}"
        content = rng.bytes(rng.randint(24, 96))
        signed = rng.uniform(0.0, 1.0) < SIGNED_FRACTION
        signature = sign(sha256(content), signer) if signed else None
        entries.append(ManifestEntry(path, content, signature))
    return entries


def render_fixture_log(manifest) -> Tuple[bytes, bytes]:
    """Materialize a manifest as (log bytes, final aggregate digest)."""
    events = [file_event(e.path, e.content, e.signature) for e in manifest]
    return (b"".join(e.encode_line() + b"\n" for e in events),
            aggregate(e.template_hash for e in events))
