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
response into a hash chain ``c_k = sha256(c_{k-1} || ts_k || echo_k)``
that starts empty, and only the last response carries a signature, over
``c_n``.  The beacon holds the chain of the transcript it is answering;
no request carries a chain value, so a relay cannot have the beacon sign
over timestamps it made up.  The agent recomputes the chain from what it
received, so one verification covers every timestamp and echo.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace
from typing import Dict, List, NamedTuple, Optional, Tuple

from .crypto import Certificate, KeyPair, Rng, certificate_valid, sha256, sign, verify

DEFAULT_SAMPLES = 20
DEFAULT_TRIM = 0.2


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
    base_ms: float
    jitter_ms: float = 0.0

    def sample(self, rng: Rng) -> float:
        if self.jitter_ms <= 0:
            return self.base_ms
        return self.base_ms + rng.uniform(0.0, self.jitter_ms)


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
    """One direction between two endpoints, resolved once: its link, and
    the adversary when one sits on this path."""

    src: str
    dst: str
    latency: LatencyModel
    adversary: Optional[AdversaryModel]

    def ms(self, rng: Rng) -> float:
        """Latency of one message on this leg; raises on an adversarial drop."""
        latency = self.latency.sample(rng)
        adv = self.adversary
        if adv is not None:
            if adv.can_drop:
                raise BeaconUnreachable(f"message {self.src}->{self.dst} dropped in transit")
            latency += max(0.0, adv.added_delay_ms)
        return latency

    @property
    def tampered(self) -> bool:
        return self.adversary is not None and self.adversary.can_modify


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
        adv = self.adversary
        return Leg(src, dst, self.link(src, dst),
                   adv if adv is not None and adv.intercepts(src, dst) else None)


# --------------------------------------------------------------------------
# beacons
# --------------------------------------------------------------------------


def transcript_link(chain: bytes, timestamp_ms: float, echo: bytes) -> bytes:
    """Fold one response into a transcript chain; the first link folds
    into the empty chain ``b""``."""
    return sha256(chain + struct.pack(">d", timestamp_ms) + echo)


@dataclass(frozen=True)
class BeaconResponse:
    """A timestamp and the echoed request token; the last response of a
    transcript also carries the beacon's signature over the chain."""

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
        self._chain = b""

    def respond(self, echo: bytes, first: bool, last: bool) -> BeaconResponse:
        """Timestamp ``echo`` as the next response of the transcript.

        ``first`` opens a transcript on the empty chain.  Each response is
        folded into the chain the beacon holds, and the ``last`` one is
        signed over the folded chain.
        """
        ts = self.clock.now_ms
        self._chain = transcript_link(b"" if first else self._chain, ts, echo)
        return BeaconResponse(ts, echo, sign(self._chain, self.keypair) if last else None)


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
    must match its token as it arrives.  The chain is then recomputed from
    the received timestamps and echoes, and the last response's signature
    must hold over it under the certified key; any altered, dropped or
    reordered timestamp or echo fails that check.  Whether the certificate
    chains is the caller's decision (:func:`beacon_certified`).
    """
    clock = beacon.clock
    chain = b""
    timestamps: List[float] = []
    for k in range(DEFAULT_SAMPLES + 1):
        token = rng.bytes(16)
        if k == 0:
            # both legs resolve once, as the first request leaves; links are
            # symmetric, so the return leg resolves whenever this one does
            out = net.leg(agent_endpoint, beacon.endpoint)
            back = net.leg(beacon.endpoint, agent_endpoint)
        clock.advance(out.ms(rng))
        response = beacon.respond(token, first=k == 0, last=k == DEFAULT_SAMPLES)
        clock.advance(back.ms(rng))
        if out.tampered:  # rewritten in transit
            echo = bytes([response.echo[0] ^ 1]) + response.echo[1:]
            response = replace(response, echo=echo)
        if response.echo != token:
            raise BeaconSignatureInvalid(f"beacon {beacon.endpoint} response rejected")
        chain = transcript_link(chain, response.timestamp_ms, response.echo)
        timestamps.append(response.timestamp_ms)
    if response.signature is None or not verify(
        response.signature, chain, beacon.certificate.subject
    ):
        raise BeaconSignatureInvalid(f"beacon {beacon.endpoint} transcript rejected")

    samples = [b - a for a, b in zip(timestamps, timestamps[1:])]
    return ProximityEstimate(
        samples_ms=tuple(samples),
        trimmed_mean_ms=trimmed_mean(samples, DEFAULT_TRIM),
    )
