"""Monitoring controller: polling loop, alerting, vulnerability-window math.

The controller is the verifier-side counterpart of the agent: it holds a
map of agent endpoints, polls each one every period over the (simulated)
network, and turns observed state *transitions* into alerts.  Alerting is
edge-triggered — a machine that stays non-compliant for ten polls produces
one ``violation`` alert, and one ``recovered`` alert if it comes back.

The module also carries the window calculator: between two polls the
verifier is blind, and the length of that blind spot is a function of how
long a quote, a single log-event read and a verification round take.
"""

import logging
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from typing import Dict, List, Optional

from .agent import AgentApi
from .crypto import Rng
from .netsim import BeaconUnreachable, NetworkModel, VirtualClock
from .tpm import NONCE_LEN

logger = logging.getLogger(__name__)

DEFAULT_MISS_THRESHOLD = 3
CONTROLLER_ENDPOINT = "controller"  # where the controller sits on the network


class ControllerError(Exception):
    pass


# --------------------------------------------------------------------------
# durations and the vulnerability window
# --------------------------------------------------------------------------

_UNIT_US = {"s": 1_000_000, "ms": 1_000, "us": 1, "µs": 1}
MAX_DURATION_US = 2 ** 53  # every float derived from a duration stays finite


def parse_duration(text: str) -> int:
    """Parse ``"155ms"``-style durations into integer microseconds.

    Accepted units: ``s``, ``ms``, ``us`` (or ``µs``).  Decimal values are
    fine as long as they land on a whole microsecond (``"0.5ms"`` -> 500)
    and stay within :data:`MAX_DURATION_US` either way from zero.
    """
    raw = text.strip().lower()
    for unit in ("ms", "us", "µs", "s"):
        if raw.endswith(unit):
            number, factor = raw[: -len(unit)].strip(), _UNIT_US[unit]
            break
    else:
        raise ControllerError(f"duration {text!r} needs a unit (s, ms, us)")
    try:
        value = Decimal(number)
    except InvalidOperation:
        raise ControllerError(f"cannot parse duration {text!r}")
    if value.is_nan():  # NaN equals no value, not even its own integral one
        raise ControllerError(f"duration {text!r} is not a number")
    value *= factor
    if value != value.to_integral_value():
        raise ControllerError(f"duration {text!r} is finer than a microsecond")
    if abs(value) > MAX_DURATION_US:
        raise ControllerError(f"duration {text!r} exceeds {MAX_DURATION_US} us")
    return int(value)


def format_duration_ms(us: int) -> str:
    """Render integer microseconds as a millisecond string, no noise digits."""
    return f"{us / 1000:g} ms"


def vulnerability_window(t_rq_us: int, t_re_us: int, t_vp_us: int,
                         file_open_floor_us: int) -> dict:
    """The worst-case unmonitored interval and its log backlog, in integer
    microseconds and in milliseconds.

    ``t_rq``: one full quote read; ``t_re``: one measurement-log event
    read; ``t_vp``: one verification round trip; ``file_open_floor``: the
    smallest time opening a file can take, which bounds how many events an
    attacker can slip in during one quote.

    t_vw = t_rq + 2 * (n * t_re + t_vp) with n = floor(t_rq / floor):
    while one quote is read, up to n files can be opened; catching up on
    their log entries plus a verify round happens on both sides of the
    quote.
    """
    for label, value in (("t_rq_us", t_rq_us), ("t_re_us", t_re_us),
                         ("file_open_floor_us", file_open_floor_us)):
        if value <= 0:
            raise ControllerError(f"{label} must be strictly positive")
    # t_vp = 0 is admitted as the limit of an instantaneous verifier
    if t_vp_us < 0:
        raise ControllerError("t_vp_us must be non-negative")
    n = t_rq_us // file_open_floor_us
    backlog_us = n * t_re_us
    total_us = t_rq_us + 2 * (backlog_us + t_vp_us)
    return {
        "n": n,
        "n_t_re_us": backlog_us,
        "n_t_re_ms": backlog_us / 1000,
        "t_vw_us": total_us,
        "t_vw_ms": total_us / 1000,
    }


# --------------------------------------------------------------------------
# alerts
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Alert:
    """One edge of a machine's observed state: raised once per transition."""

    machine: str
    policy_id: Optional[str]
    verdict: dict
    timestamp_ms: float
    kind: str  # violation | unreachable | recovered

    @property
    def alarm(self) -> bool:
        """The machine went bad (a violation or unreachable), not back to ok."""
        return self.kind in ("violation", "unreachable")


@dataclass
class _Target:
    api: AgentApi
    endpoint: Optional[str] = None
    policy_id: Optional[str] = None
    state: str = "ok"  # ok | violation | unreachable
    misses: int = 0


# --------------------------------------------------------------------------
# the polling controller
# --------------------------------------------------------------------------


class Controller:
    """Polls registered agents and emits edge-triggered alerts.

    With a network model attached, each poll exchanges one request and one
    response leg with the agent's endpoint; an adversarial drop counts as
    a miss, and ``miss_threshold`` consecutive misses flip the machine to
    ``unreachable``.  Without a network the transport is assumed perfect.
    """

    def __init__(
        self,
        clock: VirtualClock,
        miss_threshold: int = DEFAULT_MISS_THRESHOLD,
        net: Optional[NetworkModel] = None,
    ):
        if miss_threshold < 1:
            raise ControllerError("miss_threshold must be >= 1")
        self.clock = clock
        self.miss_threshold = miss_threshold
        self.net = net
        self.alerts: List[Alert] = []
        self._targets: Dict[str, _Target] = {}

    # -- registry ----------------------------------------------------------

    def register(self, machine_id: str, api: AgentApi,
                 endpoint: Optional[str] = None) -> None:
        self._targets[machine_id] = _Target(api=api, endpoint=endpoint)

    def set_policy(self, machine_id: str, policy_id: str) -> None:
        self._targets[machine_id].policy_id = policy_id

    def targets(self) -> List[str]:
        return sorted(self._targets)

    # -- one poll round ----------------------------------------------------

    def poll_round(self, rng: Rng) -> List[Alert]:
        """Poll every target once; returns the alerts this round produced."""
        fresh: List[Alert] = []
        for machine_id in sorted(self._targets):
            alert = self._poll_one(machine_id, self._targets[machine_id], rng)
            if alert is not None:
                fresh.append(alert)
        self.alerts.extend(fresh)
        return fresh

    def _reachable(self, target: _Target, rng: Rng) -> bool:
        if self.net is None or target.endpoint is None:
            return True
        try:
            self.net.leg(CONTROLLER_ENDPOINT, target.endpoint).ms(rng)
            self.net.leg(target.endpoint, CONTROLLER_ENDPOINT).ms(rng)
        except BeaconUnreachable:
            return False
        return True

    def _poll_one(self, machine_id: str, target: _Target,
                  rng: Rng) -> Optional[Alert]:
        if not self._reachable(target, rng):
            return self._record(machine_id, target, "miss",
                                {"error": "agent unreachable"})

        if target.policy_id is not None:
            nonce = rng.bytes(NONCE_LEN)
            resp = target.api.handle(
                "GET", f"/policy/{target.policy_id}?nonce={nonce.hex()}"
            )
            if resp.status == 200:
                observed = "ok" if resp.body.get("compliant") else "violation"
            else:
                observed = "violation"
            return self._record(machine_id, target, observed, resp.body)

        resp = target.api.handle("GET", "/health")
        observed = "ok" if resp.body.get("status") in ("ok", "stale") else "violation"
        return self._record(machine_id, target, observed, resp.body)

    def _record(self, machine_id: str, target: _Target, observed: str,
                verdict: dict) -> Optional[Alert]:
        """Fold one observation into the target state; alert on the edge.

        The ``miss_threshold``-th miss in a row observes ``unreachable``,
        earlier misses observe nothing.  A state that does not change
        raises nothing; a change alerts as ``recovered`` when it is back to
        ``ok`` and as the new state otherwise.
        """
        if observed == "miss":
            target.misses += 1
            if target.misses < self.miss_threshold:
                return None
            observed = "unreachable"
        else:
            target.misses = 0
        if observed == target.state:
            return None
        target.state = observed
        kind = "recovered" if observed == "ok" else observed
        logger.info("%s alert for %s at %.0f ms", kind, machine_id, self.clock.now_ms)
        return Alert(machine_id, target.policy_id, verdict, self.clock.now_ms, kind)
