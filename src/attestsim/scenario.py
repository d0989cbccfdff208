"""YAML-scripted fleet runs: build machines, execute timed actions, poll.

A scenario file describes a small fleet and a script of timed actions on a
shared virtual clock, and optionally a polling block and a symbolic-check
block.  ``run_scenario`` executes it deterministically for a given seed and
returns a :class:`ScenarioResult` whose JSON form is byte-identical across
runs with the same (file, seed) pair.

Schema (all durations in virtual milliseconds)::

    name: honest-fleet
    images:                      # optional extra (unsigned) software images
      kernel-rootkit: "kernel-5.15-rootkit"
    machines:
      - id: m0
        dc: dc1                  # default dc1
        kernel: golden           # golden | an images key
        initramfs: golden
        agent:                   # omit for agentless machines
          obfuscate: true        # default true
          static_whitelist: [0]  # default [0]
    network:                     # optional; single-DC fleets can skip it
      links:
        - {between: [dc1, dc1], base_ms: 0.3, jitter_ms: 0.2}
      adversary: {added_delay_ms: 0, can_drop: false, can_modify: false,
                  relay_targets: []}
    beacons:
      - {endpoint: beacon-dc1, dc: dc1}
    policies:
      golden: builtin:golden     # generated from the fleet's golden values
      custom: |                  # or a literal policy document
        chain: ...
    script:
      - {at: 0, action: boot, machine: m0}          # hook: false skips init
      - {at: 50, action: establish, machine: m0}
      - {at: 60, action: deploy-policy, machine: m0, policy: golden}
      - {at: 70, action: verify, machine: m0, policy: golden}
      - {at: 80, action: load-file, machine: m0, path: /opt/tool,
         content: "...", signed: false}
      - {at: 90, action: reboot, machine: m0}
      - {at: 95, action: copy-disk, from: m0, to: m1}
      - {at: 99, action: relay, machine: m0, target: m1}
      - {at: 100, action: extend-pcr, machine: m0, pcr: 0, value: drift}
    poll: {period_ms: 1000, rounds: 5, miss_threshold: 3, targets: [m0]}
    modelcheck: {variant: plain, machines: 2, tpms: 2, depth: 5}

Actions and polls are merged on the timeline; equal timestamps run script
actions first, in file order.  Every random draw flows from one seeded
generator, which is what makes reports reproducible.
"""

import json
import logging
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import yaml

from . import ima
from .agent import Agent, AgentApi, TpmUnreachable, TrustReport
from .controller import DEFAULT_MISS_THRESHOLD, Alert, Controller
from .crypto import (
    ZERO_DIGEST,
    KeyPair,
    Rng,
    generate_keypair,
    issue_certificate,
    sha256,
    sign,
)
from .machine import (
    DirectTpmChannel,
    Machine,
    RelayTpmChannel,
    RemoteTpmSurface,
    SoftwareImage,
    boot,
    reboot_machine,
)
from .modelcheck import CheckConfig, check
from .netsim import (
    AdversaryModel,
    BeaconService,
    LatencyModel,
    NetworkModel,
    VirtualClock,
)
from .policy import PcrEntry, Policy, render_policy
from .tpm import TpmState, extend_digest

logger = logging.getLogger(__name__)

AGENT_BIN = SoftwareImage("attest-agent", b"attest-agent-bin-2.3")

GOLDEN_STACK = {
    "uefi": b"uefi-firmware-1.0",
    "tboot": b"drtm-loader-1.9",
    "kernel": b"kernel-5.15-golden",
    "initramfs": b"initramfs-agent-1.0",
}

_ACTIONS = frozenset(
    {"boot", "reboot", "establish", "deploy-policy", "verify", "load-file",
     "copy-disk", "relay", "extend-pcr"}
)


class ScenarioError(Exception):
    """The scenario file does not parse or references missing pieces."""


def _require(mapping, key, owner: str):
    """``mapping[key]``, or a :class:`ScenarioError` naming the missing key."""
    try:
        return mapping[key]
    except (KeyError, TypeError):
        raise ScenarioError(f"{owner} has no {key!r}") from None


def _section(mapping, key, kind, owner: str, default=None):
    """``mapping[key]`` checked to be a ``kind`` (dict or list); ``default``,
    or an empty ``kind``, when the key is absent or null."""
    value = mapping.get(key)
    if value is None:
        return kind() if default is None else default
    if not isinstance(value, kind):
        expected = "mapping" if kind is dict else "list"
        raise ScenarioError(f"{owner} {key!r} must be a {expected}")
    return value


def _number(mapping, key, kind, owner: str, default=None):
    """``mapping[key]`` checked to be a ``kind`` (``int``, or ``float``, which
    takes an integer too); ``default`` when the key is absent or null, and a
    :class:`ScenarioError` then if there is no default."""
    value = mapping.get(key)
    if value is None:
        if default is None:
            raise ScenarioError(f"{owner} has no {key!r}")
        return default
    accepted = (int, float) if kind is float else int
    if isinstance(value, bool) or not isinstance(value, accepted):
        expected = "a number" if kind is float else "an integer"
        raise ScenarioError(f"{owner} {key!r} must be {expected}")
    return kind(value)


# --------------------------------------------------------------------------
# result type
# --------------------------------------------------------------------------


@dataclass
class ScenarioResult:
    name: str
    seed: int
    timelines: Dict[str, List[dict]]
    alerts: List[Alert]
    verdicts: Dict[str, dict]
    explorer: Optional[dict] = None

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "seed": self.seed,
            "timelines": self.timelines,
            "alerts": [a.to_dict() for a in self.alerts],
            "verdicts": self.verdicts,
            "explorer": self.explorer,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @property
    def all_compliant(self) -> bool:
        """No failed establishment, no machine left compromised, no alert."""
        if any(a.kind in ("violation", "unreachable") for a in self.alerts):
            return False
        for verdict in self.verdicts.values():
            if verdict.get("trusted") is False or verdict.get("compromised"):
                return False
        return True


# --------------------------------------------------------------------------
# fleet construction
# --------------------------------------------------------------------------


@dataclass
class _Fleet:
    rng: Rng
    clock: VirtualClock
    images: Dict[str, SoftwareImage]
    golden_statics: Dict[int, bytes]
    golden_dynamics: Dict[int, bytes]
    machines: Dict[str, Machine]
    agents: Dict[str, Agent]
    apis: Dict[str, AgentApi]
    tpm_ca_pub: bytes
    platform_ca: KeyPair
    net: Optional[NetworkModel] = None
    beacons: Dict[str, BeaconService] = field(default_factory=dict)
    policies: Dict[str, str] = field(default_factory=dict)
    deployed: Dict[tuple, str] = field(default_factory=dict)  # (machine, name) -> id

    def machine(self, machine_id) -> Machine:
        try:
            return self.machines[machine_id]
        except KeyError:
            raise ScenarioError(f"unknown machine {machine_id!r}")

    def agent(self, machine_id) -> Agent:
        try:
            return self.agents[machine_id]
        except KeyError:
            raise ScenarioError(f"machine {machine_id!r} has no agent")

    def api(self, machine_id) -> AgentApi:
        self.agent(machine_id)
        return self.apis[machine_id]


def _golden_policy(fleet: _Fleet) -> str:
    entries = sorted({**fleet.golden_statics, **fleet.golden_dynamics}.items())
    return render_policy(Policy(
        tpm_ca_chain=(fleet.tpm_ca_pub,),
        pcr_whitelist=tuple(PcrEntry(i, v) for i, v in entries),
        runtime_cert=None,
        software=(),
        location=(),
    ))


def _build_network(spec: dict, machines: List[dict]) -> NetworkModel:
    links = {}
    for entry in _section(spec, "links", list, "network"):
        try:
            a, b = entry["between"]
        except (KeyError, ValueError, TypeError):
            raise ScenarioError(f"network link needs 'between: [dcA, dcB]': {entry!r}")
        links[(a, b)] = LatencyModel(
            base_ms=_number(entry, "base_ms", float, "network link", 1.0),
            jitter_ms=_number(entry, "jitter_ms", float, "network link", 0.0),
        )
    adv = None
    if "adversary" in spec:
        a = _section(spec, "adversary", dict, "network")
        adv = AdversaryModel(
            added_delay_ms=_number(a, "added_delay_ms", float, "adversary", 0.0),
            can_drop=bool(a.get("can_drop", False)),
            can_modify=bool(a.get("can_modify", False)),
            relay_targets=tuple(_section(a, "relay_targets", list, "adversary")),
        )
    placement = {}
    net = NetworkModel(links, placement, adv)
    for m in machines:
        net.place(f"agent-{_require(m, 'id', 'machine entry')}", m.get("dc", "dc1"))
    net.place("controller", machines[0].get("dc", "dc1") if machines else "dc1")
    return net


def build_fleet(doc: dict, seed: int) -> _Fleet:
    rng = Rng(seed)
    clock = VirtualClock()
    platform_ca = generate_keypair(rng.child("platform-ca"))
    tpm_ca = generate_keypair(rng.child("tpm-ca"))

    images = {
        "uefi": SoftwareImage("uefi", GOLDEN_STACK["uefi"],
                              sign(GOLDEN_STACK["uefi"], platform_ca)),
        "tboot": SoftwareImage("tboot", GOLDEN_STACK["tboot"],
                               sign(GOLDEN_STACK["tboot"], platform_ca)),
        "kernel": SoftwareImage("kernel", GOLDEN_STACK["kernel"]),
        "initramfs": SoftwareImage("initramfs", GOLDEN_STACK["initramfs"]),
    }
    for name, content in _section(doc, "images", dict, "scenario").items():
        if name in images:
            raise ScenarioError(f"image name {name!r} shadows a golden image")
        images[name] = SoftwareImage(name, str(content).encode())

    golden = {k: images[k].measurement for k in GOLDEN_STACK}
    golden_statics = {0: extend_digest(ZERO_DIGEST, images["uefi"].measurement)}
    golden_dynamics = {
        17: extend_digest(ZERO_DIGEST, images["tboot"].measurement),
        18: extend_digest(ZERO_DIGEST, images["kernel"].measurement),
        19: extend_digest(ZERO_DIGEST, images["initramfs"].measurement),
    }

    machine_specs = _section(doc, "machines", list, "scenario")
    if not machine_specs:
        raise ScenarioError("scenario defines no machines")

    net = None
    if "network" in doc:
        net = _build_network(_section(doc, "network", dict, "scenario"), machine_specs)

    beacons: Dict[str, BeaconService] = {}
    for b in _section(doc, "beacons", list, "scenario"):
        endpoint = _require(b, "endpoint", "beacon entry")
        pair = generate_keypair(rng.child(f"beacon-{endpoint}"))
        cert = issue_certificate(platform_ca, pair.public, "beacon")
        beacons[endpoint] = BeaconService(endpoint, pair, cert, VirtualClock())
        if net is not None:
            net.place(endpoint, b.get("dc", "dc1"))

    machines: Dict[str, Machine] = {}
    agents: Dict[str, Agent] = {}
    apis: Dict[str, AgentApi] = {}
    for spec in machine_specs:
        mid = _require(spec, "id", "machine entry")
        if mid in machines:
            raise ScenarioError(f"duplicate machine id {mid!r}")
        mrng = rng.child(f"machine-{mid}")
        tpm = TpmState(f"tpm-{mid}", tpm_ca, mrng)
        machine = Machine(mid, tpm, platform_ca.public, mrng, dc=spec.get("dc", "dc1"))
        machine.set_golden(golden)
        machines[mid] = machine
        if spec.get("agent") is not None:
            agent_spec = _section(spec, "agent", dict, f"machine {mid!r}")
            agent = Agent(
                machine,
                AGENT_BIN,
                rng.child(f"agent-{mid}"),
                golden_statics,
                golden_dynamics,
                static_whitelist=tuple(_section(agent_spec, "static_whitelist", list,
                                                f"machine {mid!r} agent", [0])),
                obfuscate=bool(agent_spec.get("obfuscate", True)),
                clock=clock,
            )
            if net is not None:
                agent.attach_network(net, beacons, f"agent-{mid}")
            agents[mid] = agent
            apis[mid] = AgentApi(agent)

    fleet = _Fleet(
        rng=rng,
        clock=clock,
        images=images,
        golden_statics=golden_statics,
        golden_dynamics=golden_dynamics,
        machines=machines,
        agents=agents,
        apis=apis,
        tpm_ca_pub=tpm_ca.public,
        platform_ca=platform_ca,
        net=net,
        beacons=beacons,
    )
    for name, body in _section(doc, "policies", dict, "scenario").items():
        if body == "builtin:golden":
            fleet.policies[name] = _golden_policy(fleet)
        else:
            fleet.policies[name] = str(body)
    return fleet


# --------------------------------------------------------------------------
# script execution
# --------------------------------------------------------------------------


def _report_dict(report: TrustReport) -> dict:
    return {
        "trusted": report.trusted,
        "failed_condition": report.failed_condition,
        "detail": report.detail,
    }


class _Runner:
    def __init__(self, fleet: _Fleet):
        self.fleet = fleet
        self.timelines: Dict[str, List[dict]] = {m: [] for m in fleet.machines}
        self.verdicts: Dict[str, dict] = {}
        self.verify_rng = fleet.rng.child("verify-nonces")

    def note(self, machine_id: str, event: str, detail: dict) -> None:
        self.timelines[machine_id].append(
            {"t_ms": self.fleet.clock.now_ms, "event": event, **detail}
        )

    # each action handler returns nothing; effects land in the timelines

    def run(self, step: dict) -> None:
        action = step.get("action")
        if action not in _ACTIONS:
            raise ScenarioError(f"unknown action {action!r}")
        getattr(self, "act_" + action.replace("-", "_"))(step)

    def act_boot(self, step: dict) -> None:
        fleet = self.fleet
        mid = _require(step, "machine", "boot step")
        machine = fleet.machine(mid)
        hook = None
        if step.get("hook", True) and mid in fleet.agents:
            hook = fleet.agents[mid].initialization_hook
        kernel = _require(fleet.images, step.get("kernel", "kernel"), "images")
        initramfs = _require(fleet.images, step.get("initramfs", "initramfs"), "images")
        outcome = boot(machine, fleet.images["uefi"], fleet.images["tboot"],
                       kernel, initramfs, hook)
        self.note(mid, "boot",
                  {"halted": outcome.halted, "reason": outcome.reason,
                   "hook": hook is not None})

    def act_reboot(self, step: dict) -> None:
        mid = _require(step, "machine", "reboot step")
        reboot_machine(self.fleet.machine(mid))
        self.note(mid, "reboot", {})

    def act_establish(self, step: dict) -> None:
        mid = _require(step, "machine", "establish step")
        agent = self.fleet.agent(mid)
        if self.fleet.machine(mid).state != "runtime":
            verdict = {"trusted": False, "failed_condition": None,
                       "detail": "machine is not at os runtime"}
        else:
            try:
                report = agent.enter_runtime()
                verdict = _report_dict(report)
            except TpmUnreachable as exc:
                verdict = {"trusted": False, "failed_condition": None,
                           "detail": f"tpm unreachable: {exc}"}
        self.verdicts[mid] = verdict
        self.note(mid, "establish", verdict)

    def act_deploy_policy(self, step: dict) -> None:
        fleet = self.fleet
        mid = _require(step, "machine", "deploy-policy step")
        name = _require(step, "policy", "deploy-policy step")
        if name not in fleet.policies:
            raise ScenarioError(f"unknown policy {name!r}")
        resp = fleet.api(mid).handle("POST", "/policy", fleet.policies[name])
        if resp.status == 200:
            fleet.deployed[(mid, name)] = resp.body["policy_id"]
        self.note(mid, "deploy-policy",
                  {"policy": name, "status": resp.status, **resp.body})

    def act_verify(self, step: dict) -> None:
        fleet = self.fleet
        mid = _require(step, "machine", "verify step")
        name = _require(step, "policy", "verify step")
        policy_id = fleet.deployed.get((mid, name))
        if policy_id is None:
            raise ScenarioError(f"policy {name!r} was never deployed to {mid}")
        nonce = self.verify_rng.bytes(32)
        resp = fleet.api(mid).handle(
            "GET", f"/policy/{policy_id}?nonce={nonce.hex()}"
        )
        self.note(mid, "verify",
                  {"policy": name, "status": resp.status, "verdict": resp.body})

    def act_load_file(self, step: dict) -> None:
        fleet = self.fleet
        mid = _require(step, "machine", "load-file step")
        path = _require(step, "path", "load-file step")
        machine = fleet.machine(mid)
        content = str(step.get("content", "")).encode()
        signature = None
        if step.get("signed", False):
            signature = sign(sha256(content), fleet.platform_ca)
        _event, loaded = machine.load_file(path, content, signature)
        self.note(mid, "load-file", {"path": path, "loaded": loaded})

    def act_copy_disk(self, step: dict) -> None:
        src_id = _require(step, "from", "copy-disk step")
        dst_id = _require(step, "to", "copy-disk step")
        src = self.fleet.machine(src_id)
        self.fleet.machine(dst_id).restore_disk(src.snapshot_disk())
        self.note(dst_id, "copy-disk", {"from": src_id})

    def act_relay(self, step: dict) -> None:
        """Hijack a machine's TPM driver: route its traffic to another host.

        ``target: null`` hands the driver back (direct channel again).
        """
        fleet = self.fleet
        mid = _require(step, "machine", "relay step")
        agent = fleet.agent(mid)
        target_id = step.get("target")
        if target_id is None:
            agent.channel_factory = DirectTpmChannel
            self.note(mid, "relay", {"target": None})
            return
        target = fleet.machine(target_id)
        relay_rng = fleet.rng.child(f"relay-{mid}-{target_id}")

        def factory(machine, _target=target, _rng=relay_rng):
            return RelayTpmChannel(machine, RemoteTpmSurface(_target), _rng)

        agent.channel_factory = factory
        self.note(mid, "relay", {"target": target_id})

    def act_extend_pcr(self, step: dict) -> None:
        mid = _require(step, "machine", "extend-pcr step")
        machine = self.fleet.machine(mid)
        pcr = _number(step, "pcr", int, "extend-pcr step")
        value = sha256(str(step.get("value", "")).encode())
        machine.tpm.pcr_extend(pcr, value, locality=0)
        self.note(mid, "extend-pcr", {"pcr": pcr})


# --------------------------------------------------------------------------
# the runner
# --------------------------------------------------------------------------


def load_scenario(path: str) -> dict:
    try:
        with open(path) as fh:
            doc = yaml.safe_load(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario: {exc}")
    except yaml.YAMLError as exc:
        raise ScenarioError(f"scenario is not valid yaml: {exc}")
    if not isinstance(doc, dict):
        raise ScenarioError("scenario root must be a mapping")
    return doc


def run_scenario(path: str, seed: int = 0) -> ScenarioResult:
    """Execute one scenario file; deterministic for a given (file, seed)."""
    doc = load_scenario(path)
    return run_scenario_doc(doc, seed)


def run_scenario_doc(doc: dict, seed: int = 0) -> ScenarioResult:
    result, _fleet, _controller = execute_scenario(doc, seed)
    return result


def _controller(fleet: _Fleet, targets,
                miss_threshold: int = DEFAULT_MISS_THRESHOLD) -> Controller:
    """A controller polling ``targets`` at their ``agent-<id>`` endpoints."""
    controller = Controller(clock=fleet.clock, miss_threshold=miss_threshold,
                            net=fleet.net)
    for mid in targets:
        if mid not in fleet.apis:
            raise ScenarioError(f"poll target {mid!r} has no agent")
        endpoint = f"agent-{mid}" if fleet.net is not None else None
        controller.register(mid, fleet.apis[mid], endpoint)
    return controller


def _sync_policies(fleet: _Fleet, controller: Controller) -> None:
    """Point each polled machine at the policies deployed to it so far."""
    for (mid, _name), policy_id in fleet.deployed.items():
        if mid in controller.targets():
            controller.set_policy(mid, policy_id)


def execute_scenario(doc: dict, seed: int = 0):
    """Like :func:`run_scenario_doc` but also returns the live fleet and
    controller, so callers can keep interacting after the script ends."""
    fleet = build_fleet(doc, seed)
    runner = _Runner(fleet)

    steps = []
    for index, step in enumerate(_section(doc, "script", list, "scenario")):
        try:
            at = float(step["at"])
        except (KeyError, TypeError, ValueError):
            raise ScenarioError(f"script step {index} needs a numeric 'at'")
        steps.append((at, 0, index, step))

    poll_spec = _section(doc, "poll", dict, "scenario")
    controller = None
    poll_rng = fleet.rng.child("poll-nonces")
    if poll_spec:
        controller = _controller(
            fleet,
            _section(poll_spec, "targets", list, "poll", sorted(fleet.agents)),
            _number(poll_spec, "miss_threshold", int, "poll", DEFAULT_MISS_THRESHOLD),
        )
        period = _number(poll_spec, "period_ms", float, "poll", 1000.0)
        rounds = _number(poll_spec, "rounds", int, "poll", 5)
        if period <= 0 or rounds < 0:
            raise ScenarioError("poll period must be positive, rounds >= 0")
        for k in range(1, rounds + 1):
            steps.append((period * k, 1, k, {"action": "_poll"}))

    steps.sort(key=lambda s: (s[0], s[1], s[2]))
    for at, _tier, _index, step in steps:
        if at > fleet.clock.now_ms:
            fleet.clock.advance(at - fleet.clock.now_ms)
        if step.get("action") == "_poll":
            # a poll round picks up freshly deployed policies first
            _sync_policies(fleet, controller)
            controller.poll_round(poll_rng)
        else:
            runner.run(step)

    # machines whose agent latched a compromise after establishment
    for mid, agent in fleet.agents.items():
        verdict = runner.verdicts.setdefault(mid, {})
        verdict["compromised"] = agent.compromised

    explorer = None
    if "modelcheck" in doc:
        spec = _section(doc, "modelcheck", dict, "scenario")
        variant = spec.get("variant", "plain")
        if variant not in ("plain", "obfuscated"):
            raise ScenarioError(
                f"modelcheck 'variant' must be 'plain' or 'obfuscated', not {variant!r}"
            )
        config = CheckConfig(
            machines=_number(spec, "machines", int, "modelcheck", 2),
            tpms=_number(spec, "tpms", int, "modelcheck", 2),
            derivation_depth=_number(spec, "depth", int, "modelcheck", 5),
            obfuscate=variant == "obfuscated",
        )
        explorer = check(config).to_dict()

    result = ScenarioResult(
        name=str(doc.get("name", "unnamed")),
        seed=seed,
        timelines=runner.timelines,
        alerts=list(controller.alerts) if controller else [],
        verdicts=runner.verdicts,
        explorer=explorer,
    )
    return result, fleet, controller


# --------------------------------------------------------------------------
# synthetic measurement logs
# --------------------------------------------------------------------------


def generate_ima_log(seed: int, events: int) -> tuple:
    """Seeded ASCII measurement log; returns (log bytes, aggregate digest)."""
    manifest = ima.generate_boot_manifest(seed, events)
    return ima.render_fixture_log(manifest)
