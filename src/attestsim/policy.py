"""Integrity policy: schema, parsing, evaluation.

A policy document is a small YAML dialect::

    chain: |            # trusted TPM manufacturer verification keys (PEM)
      -----BEGIN CERTIFICATE----- ...
    whitelist:
      pcrs:
        - id: 0
          sha256: <hex>
    runtime:
      certificate: |    # distributor key for signed runtime files (PEM)
        -----BEGIN CERTIFICATE----- ...
      software:
        - name: base-os
          whitelist:
            <hex file hash>: /path
    location:
      - host: beacon-1
        max_latency: 2          # milliseconds
        chain: |                # beacon authority keys (PEM)
          -----BEGIN CERTIFICATE----- ...

``POLICY`` and the section shapes below declare it; unknown fields and
wrong types anywhere are rejected.  The PCR whitelist names only the masked
static register (``tpm.MASKED_PCR``) and the dynamic ones, and parses into
the forms the fleet, the agent and :mod:`.trust` hold registers in: one
digest, ``Policy.static``, and one index -> digest bank, ``Policy.dynamics``.

Evaluation is pure: it maps (policy, platform view) to a verdict whose
``violations`` list draws from {tpm-cert, pcr-mismatch, untrusted-file,
log-tampered, location, stale-quote}; compliant means the list is empty.
Freshness comes from the agent's checked quote, and whether the EK
certificate chains to the policy's TPM CA keys (``Policy.certifies_ek``) is
decided by the agent once per policy: evaluation verifies no quote and no
certificate, only file signatures.

``evaluate`` is the one appraisal rule: the kernel appraises nothing, so
only here is a logged file trusted, by a whitelisted hash or a signature
under the runtime certificate.
"""

from __future__ import annotations

import base64
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, List, Optional, Tuple

import yaml

from .crypto import Certificate, certificate_valid, verify
from .ima import ImaEvent, lowercase_hex
from .schema import Required, check_shape, read_yaml
from .tpm import DYNAMIC_PCRS, MASKED_PCR
from .trust import BASELINE, OBFUSCATED, disagreeing, static_half

# each section is checked as parsing reaches it, so a broken trust anchor
# is named before a mistake further down
POLICY = {Required("chain"): str, Required("whitelist"): dict, "runtime": dict,
          "location": list}
WHITELIST = {Required("pcrs"): [{Required("id"): int, Required("sha256"): str}]}
RUNTIME = {"certificate": str, "software": [{"name": str, "whitelist": {str: str}}]}
LOCATION = [{Required("host"): str, Required("max_latency"): (int, float),
             Required("chain"): str}]

_STATIC_DETAIL = {
    BASELINE: f"static pcr {MASKED_PCR} baseline differs from whitelist",
    OBFUSCATED: f"static pcr {MASKED_PCR} lost its obfuscated value",
}


class PolicyParseError(Exception):
    """Schema violation; the message names the offending field."""


# --------------------------------------------------------------------------
# PEM helpers (PEM-wrapped base64 of raw 32-byte verification keys)
# --------------------------------------------------------------------------

_PEM_HEADER = "-----BEGIN CERTIFICATE-----"
_PEM_FOOTER = "-----END CERTIFICATE-----"


def pem_encode(key: bytes) -> str:
    body = base64.b64encode(key).decode()
    return f"{_PEM_HEADER}\n{body}\n{_PEM_FOOTER}\n"


def pem_decode_all(text: str, where: str) -> List[bytes]:
    keys = []
    lines = [l.strip() for l in text.splitlines() if l.strip()]
    current: Optional[List[str]] = None
    for line in lines:
        if line == _PEM_HEADER:
            if current is not None:
                raise PolicyParseError(f"{where}: nested PEM header")
            current = []
        elif line == _PEM_FOOTER:
            if current is None:
                raise PolicyParseError(f"{where}: PEM footer without header")
            try:
                key = base64.b64decode("".join(current), validate=True)
            except Exception as exc:
                raise PolicyParseError(f"{where}: bad base64 in PEM block") from exc
            if len(key) != 32:
                raise PolicyParseError(f"{where}: key must be 32 bytes, got {len(key)}")
            keys.append(key)
            current = None
        else:
            if current is None:
                raise PolicyParseError(f"{where}: stray text outside PEM block")
            current.append(line)
    if current is not None:
        raise PolicyParseError(f"{where}: unterminated PEM block")
    if not keys:
        raise PolicyParseError(f"{where}: no PEM blocks found")
    return keys


# --------------------------------------------------------------------------
# model
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SoftwareList:
    name: str
    hashes: Tuple[Tuple[bytes, str], ...]  # (file hash, recorded path)


@dataclass(frozen=True)
class LocationRule:
    host: str
    max_latency_ms: float
    beacon_chain: Tuple[bytes, ...]


@dataclass(frozen=True)
class Policy:
    """One parsed policy document.

    A fleet's agents share one ``Policy`` per distinct document they are
    sent, so a parsed policy is never mutated, its dynamic bank included.
    """

    tpm_ca_chain: Tuple[bytes, ...]
    static: Optional[bytes]     # golden digest of the masked static pcr, if whitelisted
    dynamics: Dict[int, bytes]  # whitelisted dynamic pcr -> golden digest
    runtime_cert: Optional[bytes]
    software: Tuple[SoftwareList, ...]
    location: Tuple[LocationRule, ...]

    def certifies_ek(self, ek_cert: Certificate) -> bool:
        """Whether ``ek_cert`` is a TPM EK certificate issued by one of this
        policy's trusted manufacturer keys."""
        return certificate_valid(ek_cert, self.tpm_ca_chain, "tpm-ek")

    @cached_property
    def whitelisted_hashes(self) -> FrozenSet[bytes]:
        """Every software whitelist hash, built once per parsed policy: in
        a fleet, once per document rather than once per agent."""
        return frozenset(h for lst in self.software for h, _ in lst.hashes)


@dataclass(frozen=True)
class Violation:
    kind: str
    detail: str


@dataclass(frozen=True)
class PolicyVerdict:
    violations: Tuple[Violation, ...]

    @property
    def compliant(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "compliant": self.compliant,
            "violations": [
                {"kind": v.kind, "detail": v.detail} for v in self.violations
            ],
        }


# --------------------------------------------------------------------------
# parsing
# --------------------------------------------------------------------------


def _digest(text: str, where: str) -> bytes:
    """A sha256 digest written as exactly 64 lowercase hex digits, its one
    spelling, so that a whitelist cannot list one digest twice."""
    if lowercase_hex(text) is None:
        raise PolicyParseError(f"{where}: {text!r} is not lowercase hex")
    if len(text) != 64:
        raise PolicyParseError(f"{where}: a sha256 digest is 64 hex digits")
    return bytes.fromhex(text)


def parse_policy(text) -> Policy:
    """Parse a policy from YAML text (``str`` or ``bytes``)."""
    try:
        doc = read_yaml(text)
    except yaml.YAMLError as exc:
        raise PolicyParseError(str(exc)) from exc
    check_shape(doc, POLICY, "policy", PolicyParseError)
    chain = tuple(pem_decode_all(doc["chain"], "chain"))

    check_shape(doc["whitelist"], WHITELIST, "whitelist", PolicyParseError)
    if not doc["whitelist"]["pcrs"]:
        raise PolicyParseError("whitelist.pcrs: need at least one PCR entry")
    pcrs: Dict[int, bytes] = {}
    for i, node in enumerate(doc["whitelist"]["pcrs"]):
        where = f"whitelist.pcrs[{i}]"
        idx = node["id"]
        if idx != MASKED_PCR and idx not in DYNAMIC_PCRS:
            raise PolicyParseError(f"{where}.id: pcr {idx} is neither the masked static "
                                   f"pcr {MASKED_PCR} nor a dynamic pcr 17..19")
        if idx in pcrs:
            raise PolicyParseError(f"{where}: duplicate pcr id {idx}")
        pcrs[idx] = _digest(node["sha256"], f"{where}.sha256")
    static = pcrs.pop(MASKED_PCR, None)

    runtime_cert = None
    software: List[SoftwareList] = []
    rt = doc.get("runtime", {})
    check_shape(rt, RUNTIME, "runtime", PolicyParseError)
    if "certificate" in rt:
        certs = pem_decode_all(rt["certificate"], "runtime.certificate")
        if len(certs) != 1:
            raise PolicyParseError("runtime.certificate: exactly one key expected")
        runtime_cert = certs[0]
    for i, node in enumerate(rt.get("software", [])):
        where = f"runtime.software[{i}].whitelist"
        pairs = tuple((_digest(h, where), p) for h, p in node.get("whitelist", {}).items())
        software.append(SoftwareList(node.get("name", f"list-{i}"), pairs))

    location: List[LocationRule] = []
    check_shape(doc.get("location", []), LOCATION, "location", PolicyParseError)
    for i, node in enumerate(doc.get("location", [])):
        where = f"location[{i}]"
        if node["max_latency"] <= 0:
            raise PolicyParseError(f"{where}: max_latency must be positive")
        chain_keys = tuple(pem_decode_all(node["chain"], f"{where}.chain"))
        location.append(LocationRule(node["host"], float(node["max_latency"]), chain_keys))

    return Policy(chain, static, pcrs, runtime_cert, tuple(software), tuple(location))


def render_policy(policy: Policy) -> str:
    """Emit a policy as YAML in the canonical field order, PCRs by index."""
    doc: dict = {"chain": "".join(pem_encode(k) for k in policy.tpm_ca_chain)}
    pcrs = sorted({MASKED_PCR: policy.static, **policy.dynamics}.items())
    doc["whitelist"] = {"pcrs": [{"id": i, "sha256": v.hex()} for i, v in pcrs if v]}
    if policy.runtime_cert is not None or policy.software:
        rt: dict = {}
        if policy.runtime_cert is not None:
            rt["certificate"] = pem_encode(policy.runtime_cert)
        if policy.software:
            rt["software"] = [
                {"name": s.name, "whitelist": {h.hex(): p for h, p in s.hashes}}
                for s in policy.software
            ]
        doc["runtime"] = rt
    if policy.location:
        doc["location"] = [
            {
                "host": rule.host,
                "max_latency": rule.max_latency_ms,
                "chain": "".join(pem_encode(k) for k in rule.beacon_chain),
            }
            for rule in policy.location
        ]
    return yaml.safe_dump(doc, sort_keys=False)


# --------------------------------------------------------------------------
# evaluation
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class PlatformView:
    """Everything the evaluator may look at, frozen for one round.

    Freshness comes from the agent's checked quote: ``pcr_values`` are
    those of the last quote that verified, and ``stale`` says that this
    round's quote did not verify under the round nonce.  ``ek_certified``
    is the policy's decision on the sealed EK certificate
    (:meth:`Policy.certifies_ek`).

    A whitelisted static value is matched through the obfuscation split
    (:func:`.trust.static_half`): the policy's golden value must equal the
    value the agent sealed at initialization, and the current quote value
    must equal the sealed obfuscated value.  Dynamic whitelist values are
    matched directly against the quote (:func:`.trust.disagreeing`).

    ``ima_events`` are the log events still to appraise under this policy,
    and ``earlier_violations`` the ``untrusted-file`` violations that an
    earlier evaluation under the same policy found in the events before
    them.  A serving agent keeps that appraisal cursor per policy and passes
    only the suffix it has not appraised yet; every event since boot with
    no earlier violations is the full evaluation.

    ``location_estimates`` holds, by position in ``policy.location``, each
    location rule's measured beacon distance in milliseconds, or ``None``
    when the rule could not be measured; a missing entry counts as
    unreachable.
    """

    pcr_values: Dict[int, bytes]
    ek_certified: bool
    ima_events: Tuple[ImaEvent, ...]
    earlier_violations: Tuple[Violation, ...] = ()
    static_original: Optional[bytes] = None
    static_obfuscated: Optional[bytes] = None
    log_tampered: bool = False
    stale: bool = False
    location_estimates: Tuple[Optional[float], ...] = ()


def evaluate(policy: Policy, view: PlatformView) -> PolicyVerdict:
    """Map (policy, view) to a verdict.

    File violations come in log order: the view's earlier ones first, then
    those of ``ima_events``, so appraising a log in pieces gives the same
    verdict as appraising it whole.
    """
    violations: List[Violation] = []

    if view.stale:
        violations.append(Violation("stale-quote", "quote does not bind the round nonce"))

    if not view.ek_certified:
        violations.append(Violation("tpm-cert", "ek certificate does not chain to a trusted ca"))

    for index in disagreeing(policy.dynamics, policy.dynamics, view.pcr_values):
        violations.append(
            Violation("pcr-mismatch", f"dynamic pcr {index} differs from whitelist")
        )
    if policy.static is not None:
        half = static_half(policy.static, view.static_original, view.static_obfuscated,
                           view.pcr_values.get(MASKED_PCR))
        if half is not None:
            violations.append(Violation("pcr-mismatch", _STATIC_DETAIL[half]))

    if view.log_tampered:
        violations.append(Violation("log-tampered", "measurement log diverged from pcr-10"))

    violations.extend(view.earlier_violations)
    if policy.runtime_cert is not None or policy.software:
        whitelisted = policy.whitelisted_hashes
        for event in view.ima_events:
            if event.file_hash in whitelisted:
                continue
            if (
                policy.runtime_cert is not None
                and event.signature is not None
                and verify(event.signature, event.file_hash, policy.runtime_cert)
            ):
                continue
            violations.append(
                Violation("untrusted-file", f"{event.path} is neither whitelisted nor signed")
            )

    if policy.location:
        close_enough = False
        details = []
        estimates = view.location_estimates
        for position, rule in enumerate(policy.location):
            estimate = estimates[position] if position < len(estimates) else None
            if estimate is None:
                details.append(f"{rule.host}: unreachable")
            elif estimate <= rule.max_latency_ms:
                close_enough = True
            else:
                details.append(f"{rule.host}: {estimate:.3f} ms > {rule.max_latency_ms} ms")
        if not close_enough:
            violations.append(Violation("location", "; ".join(details) or "no beacon in reach"))

    return PolicyVerdict(tuple(violations))
