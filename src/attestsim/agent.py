"""Two-phase in-enclave attestation agent.

Phase 1 (``agent_init``) runs from the initramfs hook on first boot: it
mints an attestation key, proves key/EK co-residence via credential
activation, quotes the platform, obfuscates static PCR 0 (the register the
firmware measurement lands in, and the model's one static register) by
extending it with a random value that is then discarded, re-quotes, and
seals the whole baseline to the enclave sealing key.  After the extend the
unobfuscated static value exists nowhere outside the sealed blob.

Phase 2 (``establish_trust``) runs when the runtime agent starts and
re-derives trust from four checks, reported in order of first failure:

* ``c1-unseal``            the sealed baseline opens on this hardware
* ``c2-dynamic-pcr``       sealed, golden and quoted dynamic PCRs agree
* ``c3-obfuscated-static-pcr``  the quote is signed by the initialized key
                           and reproduces the obfuscated static value
* ``c4-reboot-counter``    the TPM has not rebooted since initialization

A quote relayed from another machine fails c3 in the obfuscated variant:
the foreign TPM can show the golden static value but not the obfuscated one,
and replaying the extend is impossible because the random mask was never
stored.  With ``obfuscate=False`` initialization seals the raw static
value as the obfuscated one, so c3 compares the raw value, which a relay
to a well-booted host satisfies — that variant exists so the regression
can be demonstrated end to end.

The :class:`Agent` wraps both phases plus the serving loop: policy
deployment/evaluation with compromise latching, and a small HTTP-shaped
facade (:class:`AgentApi`).  Every round goes over the driver's current
route, so a relay swapped in under a serving agent meets the next one.
Each verdict refreshes the platform under its round nonce: a fresh quote
checked for c2-c4 by the same function that establishes trust, so the
runtime and the establishment decision cannot drift apart.  The agent
alone verifies quotes; the policy evaluator gets the certified PCR values
and whether this round's quote failed (``stale``).

Runtime work is differential at both ends.  Each refresh folds only the
new suffix of the measurement log (:func:`ima.read_new_events`), and each
policy keeps an appraisal cursor: how many folded events it has appraised
and the ``untrusted-file`` violations found in them.  A verdict appraises
only the events since that policy's last verdict, so a poll over an
unchanged log re-verifies no file signature.  Beside the cursor each
policy keeps the certificate decisions it anchors: whether the sealed EK
certificate chains to its TPM CA keys, taken at its first verdict, and
whether each location rule's beacon chains to the rule's keys, taken at
the rule's first measurement since the network was attached.

All of that runtime state is one :class:`Session`, which only a trusted
establishment opens.  Entering runtime ends the running session before it
establishes and refuses a machine that is not at OS runtime.  A session
lives within one power cycle: once the machine leaves OS runtime or its
TPM reboots, it latches ``rebooted`` for health, deployment and verdicts.
"""

from __future__ import annotations

import json
import logging
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple, Union
from urllib.parse import parse_qs, urlsplit

from . import ima
from .crypto import Certificate, Rng, UnsealError, seal, unseal
from .machine import (
    LOG_DISK_KEY,
    EnclaveContext,
    InitHookFailure,
    Machine,
    SoftwareImage,
    run_enclave,
)
from .netsim import (
    BeaconError,
    BeaconService,
    NetworkModel,
    beacon_certified,
    measure_proximity,
)
from .policy import (
    PlatformView,
    Policy,
    PolicyParseError,
    Violation,
    evaluate,
    parse_policy,
)
from .tpm import (
    DYNAMIC_PCRS,
    IMA_PCR,
    MASKED_PCR,
    NONCE_LEN,
    ActivationError,
    Quote,
    TpmError,
    composite_digest,
    extend_digest,
    make_credential,
)
from .trust import BASELINE, OBFUSCATED, disagreeing, static_half

logger = logging.getLogger(__name__)

CONFIG_DISK_KEY = "agent/config.sealed"
POLICY_ID_LEN = 16  # random bytes per deployed policy id
# every quote: the masked static, the measurement-log register, the dynamic bank
SELECTION = (MASKED_PCR, IMA_PCR, *DYNAMIC_PCRS)

CONDITION_UNSEAL = "c1-unseal"
CONDITION_DYNAMIC = "c2-dynamic-pcr"
CONDITION_STATIC = "c3-obfuscated-static-pcr"
CONDITION_REBOOT = "c4-reboot-counter"

_STATIC_DETAIL = {
    BASELINE: f"sealed baseline for static pcr {MASKED_PCR} is not the golden value",
    OBFUSCATED: f"static pcr {MASKED_PCR} does not show the expected value",
}


class InitFailure(Exception):
    """Phase-1 abort; ``reason`` is activation-failed, quote-invalid or
    obfuscation-mismatch."""

    def __init__(self, reason: str, detail: str = ""):
        super().__init__(f"{reason}: {detail}" if detail else reason)
        self.reason = reason


class UntrustedPlatform(Exception):
    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class UnknownPolicyId(KeyError):
    pass


# --------------------------------------------------------------------------
# sealed baseline
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SealedConfig:
    """Everything phase 2 needs, sealed to (machine, agent binary)."""

    aik_pub: bytes
    ek_cert: Certificate
    reboot_counter: int
    original: bytes               # the masked static pcr before obfuscation
    obfuscated: bytes             # the masked static pcr after obfuscation
    dynamics: Dict[int, bytes]    # dynamic pcr -> value at initialization

    def to_bytes(self) -> bytes:
        return json.dumps(asdict(self), sort_keys=True, default=bytes.hex).encode()

    @classmethod
    def from_bytes(cls, raw: bytes) -> "SealedConfig":
        doc = json.loads(raw.decode())
        cert = doc["ek_cert"]
        return cls(
            ek_cert=Certificate(bytes.fromhex(cert["subject"]), bytes.fromhex(cert["issuer"]),
                                cert["role"], bytes.fromhex(cert["signature"])),
            reboot_counter=int(doc["reboot_counter"]),
            dynamics={int(k): bytes.fromhex(v) for k, v in doc["dynamics"].items()},
            **{key: bytes.fromhex(doc[key]) for key in ("aik_pub", "original", "obfuscated")},
        )


def _checked_quote(channel, aik_pub: bytes, nonce: bytes):
    """Quote of :data:`SELECTION` plus PCR read-back, verified for internal
    consistency.

    The signature is checked under the key *inside* the quote; whether that
    key is the expected one is a trust-condition question, not a transport
    one, so a relayed quote passes here and fails c3 later.
    """
    quote = channel.quote(aik_pub, nonce, SELECTION)
    values = {i: channel.read_pcr(i) for i in SELECTION}
    consistent = (
        quote.nonce == nonce
        and quote.selection == SELECTION
        and quote.pcr_digest == composite_digest([values[i] for i in SELECTION])
        and quote.verify_signature()
    )
    return quote, values, consistent


# --------------------------------------------------------------------------
# phase 1: initialization
# --------------------------------------------------------------------------


def agent_init(
    ctx: EnclaveContext,
    channel,
    rng: Rng,
    obfuscate: bool = True,
) -> SealedConfig:
    """First-boot initialization inside the init enclave.

    Draws, in order: the attestation-key seed, the activation secret, the
    first quote nonce, the obfuscation mask, the second quote nonce.  The
    mask is zeroed before returning; only the sealed blob can tie the
    obfuscated register value back to the original.
    """
    if ctx.phase != "init":
        raise ValueError("initialization must run in the init-phase enclave")

    aik_pub = channel.create_aik(rng)
    secret = rng.bytes(32)
    ek_cert = channel.ek_cert
    challenge = make_credential(ek_cert, aik_pub, secret)
    try:
        recovered = channel.activate_credential(aik_pub, challenge)
    except ActivationError as exc:
        raise InitFailure("activation-failed", exc.reason) from exc
    if recovered != secret:
        raise InitFailure("activation-failed", "activation returned a different secret")

    nonce0 = rng.bytes(NONCE_LEN)
    quote0, values0, ok = _checked_quote(channel, aik_pub, nonce0)
    if not ok:
        raise InitFailure("quote-invalid", "baseline quote failed verification")

    original = values0[MASKED_PCR]
    if obfuscate:
        mask = bytearray(rng.bytes(32))
        channel.pcr_extend(MASKED_PCR, bytes(mask))
        nonce1 = rng.bytes(NONCE_LEN)
        _, values1, ok = _checked_quote(channel, aik_pub, nonce1)
        if not ok:
            raise InitFailure("quote-invalid", "post-obfuscation quote failed verification")
        expected = {MASKED_PCR: extend_digest(original, bytes(mask))}
        if disagreeing((MASKED_PCR,), expected, values1):
            raise InitFailure(
                "obfuscation-mismatch", f"pcr {MASKED_PCR} did not take the obfuscation extend"
            )
        moved = disagreeing(DYNAMIC_PCRS, values0, values1)
        if moved:
            raise InitFailure(
                "obfuscation-mismatch", f"dynamic pcr {moved[0]} moved during obfuscation"
            )
        for i in range(len(mask)):  # discard the mask for good
            mask[i] = 0
        obfuscated = values1[MASKED_PCR]
    else:
        obfuscated = original

    config = SealedConfig(
        aik_pub=aik_pub,
        ek_cert=ek_cert,
        reboot_counter=quote0.reboot_counter,
        original=original,
        obfuscated=obfuscated,
        dynamics={i: values0[i] for i in DYNAMIC_PCRS},
    )
    ctx.machine.disk[CONFIG_DISK_KEY] = seal(config.to_bytes(), ctx.seal_key())
    logger.info("agent initialized on %s (pcr %d %s)", ctx.machine.machine_id,
                MASKED_PCR, "obfuscated" if obfuscate else "left plain")
    return config


# --------------------------------------------------------------------------
# phase 2: trust establishment
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class TrustReport:
    trusted: bool
    failed_condition: Optional[str]
    detail: str = ""
    config: Optional[SealedConfig] = None
    pcr_values: Dict[int, bytes] = field(default_factory=dict)


def _failed_condition(
    config: SealedConfig,
    quote: Quote,
    values: Dict[int, bytes],
    golden_static: bytes,
    golden_dynamics: Dict[int, bytes],
) -> Optional[Tuple[str, str]]:
    """The first failing c2/c3/c4 condition and its detail, or ``None``.

    Takes a quote that already verified for internal consistency; c1 (the
    sealed baseline opens) is the caller's.  c2 and the static half of c3
    are the shared rules of :mod:`.trust`; the key binding and the reboot
    counter are checked here alone.  A plain initialization seals the
    original as the obfuscated value.
    """
    moved = disagreeing(config.dynamics, config.dynamics, golden_dynamics, values)
    if moved:
        return (CONDITION_DYNAMIC,
                f"dynamic pcr {moved[0]} disagrees across sealed/golden/quoted values")

    if quote.aik_pub != config.aik_pub:
        return CONDITION_STATIC, "quote signed by a key other than the initialized one"
    half = static_half(golden_static, config.original, config.obfuscated, values[MASKED_PCR])
    if half is not None:
        return CONDITION_STATIC, _STATIC_DETAIL[half]

    if quote.reboot_counter != config.reboot_counter:
        return (CONDITION_REBOOT,
                f"tpm rebooted {quote.reboot_counter - config.reboot_counter} time(s)"
                " since initialization")
    return None


def establish_trust(
    ctx: EnclaveContext,
    channel,
    rng: Rng,
    golden_static: bytes,
    golden_dynamics: Dict[int, bytes],
) -> TrustReport:
    """Runtime trust establishment against the sealed baseline.

    Checks c1..c4 in order and names the first failure.  ``golden_static``
    (the masked static pcr) and ``golden_dynamics`` are the fleet
    launch-configuration values the platform is expected to have measured.
    """
    blob = ctx.machine.disk.get(CONFIG_DISK_KEY)
    if blob is None:
        return TrustReport(False, CONDITION_UNSEAL, "no sealed baseline on disk")
    try:
        config = SealedConfig.from_bytes(unseal(blob, ctx.seal_key()))
    except (UnsealError, ValueError, KeyError) as exc:
        return TrustReport(False, CONDITION_UNSEAL, f"sealed baseline rejected: {exc}")

    nonce = rng.bytes(NONCE_LEN)
    try:
        quote, values, ok = _checked_quote(channel, config.aik_pub, nonce)
    except TpmError as exc:
        return TrustReport(False, None, f"tpm unreachable: {exc}")
    if not ok:
        # an unverifiable quote cannot certify the dynamic bank
        return TrustReport(
            False, CONDITION_DYNAMIC, "quote failed verification", config
        )

    failed = _failed_condition(config, quote, values, golden_static, golden_dynamics)
    if failed is not None:
        return TrustReport(False, *failed, config, values)
    return TrustReport(True, None, "", config, values)


# --------------------------------------------------------------------------
# the serving agent
# --------------------------------------------------------------------------


@dataclass
class NetworkAttachment:
    net: NetworkModel
    beacons: Dict[str, BeaconService]
    endpoint: str


@dataclass
class PolicyState:
    """What the agent has decided under one policy in this session: the
    appraisal cursor (``events`` folded events appraised, ``untrusted`` the
    ``untrusted-file`` violations among them) and the certificate chains
    the policy anchors, each decided once."""

    ek_certified: bool
    events: int = 0
    untrusted: Tuple[Violation, ...] = ()
    beacons: Dict[int, bool] = field(default_factory=dict)  # by location rule position


@dataclass
class Session:
    """The runtime state one trusted establishment opens; rounds use ``Agent.channel``."""

    config: SealedConfig
    power_cycle: int              # the attached TPM's reboot counter at opening
    pcr_values: Dict[int, bytes]  # the last certified values
    ima_cache: ima.ImaCacheState = field(default_factory=ima.ImaCacheState)
    events: List[ima.ImaEvent] = field(default_factory=list)  # folded so far
    policies: Dict[str, PolicyState] = field(default_factory=dict)
    compromised: Optional[str] = None  # log-tampered | pcr-changed | rebooted
    stale: bool = False           # this round's quote failed verification


class Agent:
    """Initialization hook plus the runtime attestation service.

    One instance is bound to one machine and one agent binary.  The boot
    pipeline calls :meth:`initialization_hook`; once the OS is up,
    :meth:`enter_runtime` re-establishes trust and the controller drives
    the :class:`AgentApi` endpoints; each verdict calls :meth:`refresh`.
    Every round goes over ``channel``, the driver's route at that round.
    Each trusted establishment opens one :class:`Session`, and the agent
    serves while it is open.  Entering runtime ends the running session
    first and refuses a machine not at OS runtime; a session latches
    ``rebooted`` once the machine leaves OS runtime or power-cycles.
    """

    def __init__(
        self,
        machine: Machine,
        binary: SoftwareImage,
        rng: Rng,
        golden_static: bytes,
        golden_dynamics: Dict[int, bytes],
        obfuscate: bool = True,
        parsed_policies: Optional[Dict[Union[str, bytes], Policy]] = None,
    ):
        self.machine = machine
        self.binary = binary
        self.rng = rng
        self.golden_static = golden_static
        self.golden_dynamics = dict(golden_dynamics)
        self.obfuscate = obfuscate
        self.channel = machine.tpm  # the driver's route: the attached chip, or a relay
        self.policies: Dict[str, Policy] = {}  # deployed policies by hex id
        # parsed policies by exact document: a fleet's, shared, or this agent's own
        self.parsed_policies = {} if parsed_policies is None else parsed_policies
        self.network: Optional[NetworkAttachment] = None
        self._session: Optional[Session] = None

    # -- lifecycle ---------------------------------------------------------

    def attach_network(self, net: NetworkModel, beacons: Dict[str, BeaconService],
                       endpoint: str) -> None:
        self.network = NetworkAttachment(net, dict(beacons), endpoint)
        if self._session is not None:
            for state in self._session.policies.values():
                state.beacons.clear()

    def initialization_hook(self, machine: Machine) -> None:
        """Initramfs hook: run phase 1, abort the boot if it fails."""
        ctx = run_enclave(machine, self.binary, "init")
        try:
            agent_init(ctx, self.channel, self.rng, self.obfuscate)
        except (InitFailure, TpmError) as exc:
            raise InitHookFailure(str(exc)) from exc

    def enter_runtime(self) -> TrustReport:
        """Phase 2: end the running session, establish trust and, if it
        holds, open a new session."""
        self._session = None
        if self.machine.state != "runtime":
            return TrustReport(False, None, "machine is not at os runtime")
        ctx = run_enclave(self.machine, self.binary, "runtime")
        report = establish_trust(
            ctx, self.channel, self.rng, self.golden_static, self.golden_dynamics
        )
        if not report.trusted:
            logger.info("trust establishment failed on %s: %s (%s)",
                        self.machine.machine_id, report.failed_condition, report.detail)
            return report
        session = self._session = Session(report.config, self.machine.tpm.reboot_counter,
                                          dict(report.pcr_values))
        self._fold_log(session, report.pcr_values[IMA_PCR])
        return report

    def _live_session(self) -> Optional[Session]:
        """The open session, latched ``rebooted`` once the machine has left
        OS runtime or power-cycled since it opened (``pcr-changed`` stays)."""
        session = self._session
        if session is not None and session.compromised != "pcr-changed" and (
                self.machine.state != "runtime"
                or self.machine.tpm.reboot_counter != session.power_cycle):
            session.compromised = "rebooted"
        return session

    @property
    def compromised(self) -> Optional[str]:
        session = self._live_session()
        return None if session is None else session.compromised

    # -- refresh -----------------------------------------------------------

    def _fold_log(self, session: Session, certified_pcr10: bytes) -> None:
        """Differential log verification; latches log tampering."""
        log_data = self.machine.disk.get(LOG_DISK_KEY, b"")
        try:
            fresh, session.ima_cache = ima.read_new_events(
                log_data, session.ima_cache, certified_pcr10
            )
        except ima.TamperDetected as exc:
            logger.warning("log verification failed on %s: %s", self.machine.machine_id, exc)
            session.compromised = "log-tampered"
            return
        session.events.extend(fresh)

    def _platform_session(self) -> Session:
        """The open session; raises unless it serves a platform not lost to
        PCR drift or a reboot."""
        session = self._live_session()
        if session is None:
            raise UntrustedPlatform("agent is not serving")
        if session.compromised in ("pcr-changed", "rebooted"):
            raise UntrustedPlatform(session.compromised)
        return session

    def refresh(self, nonce: bytes) -> None:
        """Re-quote the platform under ``nonce`` and re-check c2-c4,
        latching any compromise.

        A failed check latches ``rebooted`` if the reboot counter moved and
        ``pcr-changed`` otherwise.  A quote that fails verification (a TPM
        failure, a wrong nonce or a bad signature) leaves the last snapshot
        in place marked stale; the next evaluation reports stale-quote.
        """
        session = self._platform_session()
        config = session.config
        try:
            quote, values, ok = _checked_quote(self.channel, config.aik_pub, nonce)
        except TpmError as exc:
            logger.warning("tpm unreachable on %s: %s", self.machine.machine_id, exc)
            session.stale = True
            return
        if not ok:
            session.stale = True
            return
        session.stale = False
        session.pcr_values = values

        if _failed_condition(config, quote, values, self.golden_static,
                             self.golden_dynamics) is not None:
            moved = quote.reboot_counter != config.reboot_counter
            session.compromised = "rebooted" if moved else "pcr-changed"
            raise UntrustedPlatform(session.compromised)

        if session.compromised != "log-tampered":
            self._fold_log(session, values[IMA_PCR])

    # -- policies ----------------------------------------------------------

    def deploy_policy(self, document: Union[str, bytes]) -> str:
        """Store a policy under a fresh id and return the id.

        A document this agent's store (a fleet's, shared by its agents) has
        already parsed is not parsed again; one that fails to parse is not
        stored, so every agent refuses it with the same message.
        """
        self._platform_session()
        policy = self.parsed_policies.get(document)
        if policy is None:
            policy = self.parsed_policies[document] = parse_policy(document)
        policy_id = self.rng.bytes(POLICY_ID_LEN).hex()
        self.policies[policy_id] = policy
        logger.info("policy %s deployed to %s", policy_id, self.machine.machine_id)
        return policy_id

    def _measure_locations(self, policy: Policy, certified: Dict[int, bool]
                           ) -> Tuple[Optional[float], ...]:
        """Estimate each rule's beacon distance, aligned with
        ``policy.location``; ``certified`` keeps, by rule position, whether
        the rule's beacon chains to the rule's keys."""
        estimates: List[Optional[float]] = [None] * len(policy.location)
        att = self.network
        for position, rule in enumerate(policy.location):
            if att is None or rule.host not in att.beacons:
                continue
            beacon = att.beacons[rule.host]
            if position not in certified:
                certified[position] = beacon_certified(beacon, rule.beacon_chain)
            if not certified[position]:
                continue
            try:
                est = measure_proximity(att.net, self.rng, att.endpoint, beacon)
            except BeaconError:
                continue
            estimates[position] = est.trimmed_mean_ms
        return tuple(estimates)

    def verify_policy(self, policy_id: str, nonce: bytes) -> dict:
        """Evaluate a stored policy against the current platform state.

        Raises :class:`UntrustedPlatform` once the platform itself is gone
        (PCR drift or reboot); a tampered log keeps answering, carrying the
        violation in the verdict.  Only events folded since this policy's
        last verdict are appraised; earlier file violations and the
        policy's certificate decisions are carried over.
        """
        session = self._session
        if session is None:  # outranks an unknown id; a lost platform does not
            raise UntrustedPlatform("agent is not serving")
        policy = self.policies.get(policy_id)
        if policy is None:
            raise UnknownPolicyId(policy_id)
        self.refresh(nonce)  # raises if the platform is gone, or goes this round
        config = session.config
        state = session.policies.get(policy_id)
        if state is None:
            state = session.policies[policy_id] = PolicyState(
                policy.certifies_ek(config.ek_cert))
        view = PlatformView(
            pcr_values=session.pcr_values,
            ek_certified=state.ek_certified,
            ima_events=tuple(session.events[state.events:]),
            earlier_violations=state.untrusted,
            static_original=config.original,
            static_obfuscated=config.obfuscated,
            log_tampered=session.compromised == "log-tampered",
            stale=session.stale,
            location_estimates=self._measure_locations(policy, state.beacons),
        )
        verdict = evaluate(policy, view)
        state.events = len(session.events)
        state.untrusted = tuple(v for v in verdict.violations if v.kind == "untrusted-file")
        return {"policy_id": policy_id, **verdict.to_dict()}

    def health(self) -> dict:
        session = self._live_session()
        status, compromised = "not-serving", None
        if session is not None:
            compromised = session.compromised
            status = "compromised" if compromised else "stale" if session.stale else "ok"
        return {
            "status": status,
            "machine": self.machine.machine_id,
            "compromised": compromised,
            "policies": len(self.policies),
        }


# --------------------------------------------------------------------------
# http-shaped facade
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ApiResponse:
    status: int
    body: dict


class AgentApi:
    """The agent's wire surface: three endpoints over a simulated transport.

    * ``POST /policy`` with a YAML body     -> 200 {policy_id} | 400 | 403
    * ``GET /policy/{id}?nonce=<hex>``      -> 200 verdict | 404 | 403
    * ``GET /health``                       -> 200 always
    """

    def __init__(self, agent: Agent):
        self.agent = agent

    def handle(self, method: str, path: str, body: str = "") -> ApiResponse:
        try:
            parts = urlsplit(path)
        except ValueError as exc:  # e.g. an unclosed IPv6 host
            return ApiResponse(400, {"error": f"malformed path: {exc}"})
        segments = [s for s in parts.path.split("/") if s]
        query = {k: v[-1] for k, v in parse_qs(parts.query).items()}

        if method == "POST" and segments == ["policy"]:
            return self.post_policy(body)
        if method == "GET" and len(segments) == 2 and segments[0] == "policy":
            return self.get_policy(segments[1], query.get("nonce", ""))
        if method == "GET" and segments == ["health"]:
            return self.get_health()
        return ApiResponse(404, {"error": f"no route for {method} {parts.path}"})

    def post_policy(self, body: str) -> ApiResponse:
        try:
            policy_id = self.agent.deploy_policy(body)
        except PolicyParseError as exc:
            return ApiResponse(400, {"error": str(exc)})
        except UntrustedPlatform as exc:
            return ApiResponse(403, {"error": exc.reason})
        return ApiResponse(200, {"policy_id": policy_id})

    def get_policy(self, policy_id: str, nonce_hex: str) -> ApiResponse:
        try:
            nonce = bytes.fromhex(nonce_hex)
        except ValueError:
            return ApiResponse(400, {"error": "nonce must be hex"})
        if len(nonce) != NONCE_LEN:
            return ApiResponse(400, {"error": f"nonce must be {NONCE_LEN} bytes"})
        try:
            verdict = self.agent.verify_policy(policy_id, nonce)
        except UnknownPolicyId:
            return ApiResponse(404, {"error": f"no policy {policy_id}"})
        except UntrustedPlatform as exc:
            return ApiResponse(403, {"error": exc.reason})
        return ApiResponse(200, verdict)

    def get_health(self) -> ApiResponse:
        return ApiResponse(200, self.agent.health())
