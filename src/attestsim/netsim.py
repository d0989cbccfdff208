"""Virtual-time network, trusted beacons and proximity estimation.

Time is virtual.  A message leg draws its latency from the link model
(base + uniform jitter) in :meth:`Leg.ms`, which advances no clock; a
proximity measurement resolves its two legs once and draws every message
on them.  Each beacon stamps its responses from a :class:`VirtualClock`
of its own, and a proximity measurement advances only that clock, by each
leg it draws.  A fleet's script and controller run on another clock, and
the controller's reachability legs advance none.  An adversary on the
path can add delay, drop, or modify traffic, but can never deliver faster
than the honest base latency, which is the physical floor the proximity
check leans on.

Proximity to a beacon is estimated from ``DEFAULT_SAMPLES + 1`` back-to-back
timestamp requests: each sample is the difference between consecutive
beacon timestamps, i.e. one full round trip, so a relay across a slower
link inflates every sample.  The estimate is the trimmed mean of the
samples, ``DEFAULT_TRIM`` of them dropped from each tail.

The beacon signs the transcript once, after Roughtime: it folds each
response's record ``ts_k || echo_k`` into one running SHA-256 that starts
afresh with the transcript's first response, and only the last response
carries a signature, over the digest of every record.  Each record is
24 bytes wide, an 8-byte timestamp and a 16-byte (``TOKEN_LEN``) echo,
and the beacon refuses an echo of any other width, so the record
boundaries are fixed: an altered, dropped, inserted or reordered record
changes the hashed bytes, and no run of records can pass as one longer
echo.  The beacon holds the digest of the transcript it is answering; no
request carries one, so a relay cannot have the beacon sign over
timestamps it made up.  The agent folds what it received into a digest
of its own, so one verification covers every timestamp and echo.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Tuple

from .crypto import Certificate, KeyPair, Rng, certificate_valid, sign, verify

DEFAULT_SAMPLES = 20
DEFAULT_TRIM = 0.2

TOKEN_LEN = 16
_RECORD = struct.Struct(f">d{TOKEN_LEN}s")  # a response's timestamp and echo


class BeaconError(Exception):
    pass


class BeaconUnreachable(BeaconError):
    pass


class BeaconSignatureInvalid(BeaconError):
    pass


class VirtualClock:
    """Monotone simulated time in milliseconds."""

    def __init__(self):
        self.now_ms = 0.0

    def advance(self, delta_ms: float) -> float:
        if delta_ms < 0:
            raise ValueError("time cannot run backwards")
        self.now_ms += delta_ms
        return self.now_ms


@dataclass(frozen=True)
class LatencyModel:
    """A link's latency: ``base_ms`` plus a uniform draw from
    ``[0, jitter_ms]``, or no draw at all when ``jitter_ms`` is 0."""

    base_ms: float
    jitter_ms: float = 0.0


@dataclass
class AdversaryModel:
    """On-path adversary; applies to endpoints listed in relay_targets
    (or to everything when the tuple is empty but the model is installed)."""

    added_delay_ms: float = 0.0
    can_drop: bool = False
    can_modify: bool = False
    relay_targets: Tuple[str, ...] = ()

    def intercepts(self, src: str, dst: str) -> bool:
        if not self.relay_targets:
            return True
        return src in self.relay_targets or dst in self.relay_targets


class Leg(NamedTuple):
    """One direction between two endpoints, resolved once into what a
    message on it needs: the link's base and jitter, and the part of the
    adversary on this path, if any: its added delay, clamped at zero,
    whether it drops and whether it rewrites."""

    src: str
    dst: str
    base_ms: float
    jitter_ms: float
    delay_ms: float = 0.0
    drops: bool = False
    tampered: bool = False

    def ms(self, rng: Rng) -> float:
        """Latency of one message on this leg; raises on an adversarial drop,
        after the message's jitter is drawn."""
        jitter = self.jitter_ms
        latency = self.base_ms if jitter <= 0 else self.base_ms + rng.uniform(0.0, jitter)
        if self.drops:
            raise BeaconUnreachable(f"message {self.src}->{self.dst} dropped in transit")
        return latency + self.delay_ms


class NetworkModel:
    """Endpoint placement plus per-DC-pair latency models."""

    def __init__(
        self,
        links: Dict[Tuple[str, str], LatencyModel],
        placement: Dict[str, str],
        adversary: Optional[AdversaryModel] = None,
    ):
        self._links: Dict[Tuple[str, str], LatencyModel] = {}
        for (a, b), latency in links.items():  # a later orientation wins
            self._links[a, b] = self._links[b, a] = latency
        self._placement = dict(placement)
        self.adversary = adversary

    def place(self, endpoint: str, dc: str) -> None:
        self._placement[endpoint] = dc

    def dc_of(self, endpoint: str) -> str:
        try:
            return self._placement[endpoint]
        except KeyError:
            raise BeaconUnreachable(f"endpoint {endpoint!r} is not on the network")

    def link(self, src: str, dst: str) -> LatencyModel:
        pair = (self.dc_of(src), self.dc_of(dst))
        try:
            return self._links[pair]
        except KeyError:
            a, b = sorted(pair)
            raise BeaconUnreachable(f"no route between {a} and {b}")

    def leg(self, src: str, dst: str) -> Leg:
        """The leg from ``src`` to ``dst``; raises when there is no route."""
        latency = self.link(src, dst)
        adv = self.adversary
        if adv is None or not adv.intercepts(src, dst):
            return Leg(src, dst, latency.base_ms, latency.jitter_ms)
        return Leg(src, dst, latency.base_ms, latency.jitter_ms,
                   max(0.0, adv.added_delay_ms), adv.can_drop, adv.can_modify)


# --------------------------------------------------------------------------
# beacons
# --------------------------------------------------------------------------


@dataclass(slots=True)
class BeaconResponse:
    """A timestamp and the echoed request token; the last response of a
    transcript also carries the beacon's signature over its digest.

    Not frozen: a measurement builds 21 of them, and a frozen dataclass
    costs about twice as much to build.
    """

    timestamp_ms: float
    echo: bytes
    signature: Optional[bytes] = None


class BeaconService:
    """Trusted timestamp source pinned to a physical location."""

    def __init__(self, endpoint: str, keypair: KeyPair, certificate: Certificate,
                 clock: VirtualClock):
        self.endpoint = endpoint
        self.keypair = keypair
        self.certificate = certificate
        self.clock = clock
        self._transcript = hashlib.sha256()

    def respond(self, echo: bytes, first: bool, last: bool) -> BeaconResponse:
        """Timestamp ``echo`` as the next response of the transcript.

        ``first`` opens a new transcript digest.  Each response's record is
        folded into the digest the beacon holds, and the ``last`` one is
        signed over the digest of every record.  An echo that is not
        ``TOKEN_LEN`` bytes is refused: records of one width are what keep
        a relay from passing several records off as one.
        """
        if len(echo) != TOKEN_LEN:
            raise BeaconError(f"beacon {self.endpoint} refuses a {len(echo)}-byte echo")
        ts = self.clock.now_ms
        if first:
            self._transcript = hashlib.sha256()
        self._transcript.update(_RECORD.pack(ts, echo))
        return BeaconResponse(
            ts, echo, sign(self._transcript.digest(), self.keypair) if last else None)


def beacon_certified(beacon: BeaconService, chain: Tuple[bytes, ...]) -> bool:
    """Whether the beacon's certificate is for the beacon role and chains to
    one of the ``chain`` authority keys."""
    return certificate_valid(beacon.certificate, chain, "beacon")


def trimmed_mean(samples: List[float], trim_fraction: float) -> float:
    """Mean after dropping floor(trim * n) samples from each tail."""
    if not 0 <= trim_fraction < 0.5:
        raise ValueError("trim fraction must be in [0, 0.5)")
    if not samples:
        raise ValueError("no samples")
    cut = int(len(samples) * trim_fraction)
    kept = sorted(samples)[cut: len(samples) - cut]
    if not kept:
        raise ValueError("all samples trimmed away")
    return sum(kept) / len(kept)


@dataclass(frozen=True)
class ProximityEstimate:
    samples_ms: Tuple[float, ...]
    trimmed_mean_ms: float


def measure_proximity(
    net: NetworkModel,
    rng: Rng,
    agent_endpoint: str,
    beacon: BeaconService,
) -> ProximityEstimate:
    """Estimate round-trip distance to a beacon from timestamp deltas.

    Issues ``DEFAULT_SAMPLES + 1`` back-to-back requests, each with a fresh token;
    sample k is ``ts(k+1) - ts(k)`` which spans the return leg of request k
    plus the outbound leg of request k+1, one full round trip.  Each echo
    must match its token as it arrives, and its record is then folded into
    the agent's own transcript digest; the last response's signature must
    hold over that digest under the certified key, so any altered, dropped,
    inserted or reordered timestamp or echo fails the one verification.
    Whether the certificate chains is the caller's decision
    (:func:`beacon_certified`).
    """
    advance, respond, draw = beacon.clock.advance, beacon.respond, rng.bytes
    transcript = hashlib.sha256()
    fold = transcript.update
    timestamps: List[float] = []
    for k in range(DEFAULT_SAMPLES + 1):
        token = draw(TOKEN_LEN)
        if k == 0:
            # both legs resolve once, as the first request leaves; links are
            # symmetric, so the return leg resolves whenever this one does
            out = net.leg(agent_endpoint, beacon.endpoint)
            back = net.leg(beacon.endpoint, agent_endpoint)
        advance(out.ms(rng))
        response = respond(token, k == 0, k == DEFAULT_SAMPLES)
        advance(back.ms(rng))
        # a response rewritten in transit no longer echoes its token
        if out.tampered or response.echo != token:
            raise BeaconSignatureInvalid(f"beacon {beacon.endpoint} response rejected")
        ts = response.timestamp_ms
        fold(_RECORD.pack(ts, token))
        timestamps.append(ts)
    if response.signature is None or not verify(
        response.signature, transcript.digest(), beacon.certificate.subject
    ):
        raise BeaconSignatureInvalid(f"beacon {beacon.endpoint} transcript rejected")

    samples = [b - a for a, b in zip(timestamps, timestamps[1:])]
    return ProximityEstimate(
        samples_ms=tuple(samples),
        trimmed_mean_ms=trimmed_mean(samples, DEFAULT_TRIM),
    )
