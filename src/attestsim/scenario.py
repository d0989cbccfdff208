"""YAML-scripted fleet runs: build machines, execute timed actions, poll.

A scenario file describes a small fleet and a script of timed actions on a
shared virtual clock, and optionally a polling block and a symbolic-check
block.  :class:`Fleet` holds one running fleet and the record its script
leaves.  ``run_scenario`` executes a file deterministically for a given seed
and returns a :class:`ScenarioResult` whose JSON form is byte-identical
across runs with the same (file, seed) pair.

Schema (all durations in virtual milliseconds)::

    name: honest-fleet
    images:                      # optional extra (unsigned) software images
      kernel-rootkit: "kernel-5.15-rootkit"
    machines:
      - id: m0
        dc: dc1                  # default dc1
        agent:                   # omit for agentless machines
          obfuscate: true        # default true: mask static pcr 0
      - id: m1                   # an agentless machine
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
      - {at: 10, action: boot, machine: m1, hook: false,
         kernel: kernel-rootkit, initramfs: initramfs}  # images keys;
                                 # the default is the golden image
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

Unknown keys and wrong types are errors: ``SCENARIO`` and ``STEPS`` below
declare the shape, one step shape per action.  Actions and polls are merged
on the timeline; equal timestamps run script actions first, in file order.
Every random draw flows from one seeded generator, which is what makes
reports reproducible.
"""

import heapq
from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, List, Optional, Union

import yaml

from . import ima
from .agent import Agent, AgentApi
from .controller import CONTROLLER_ENDPOINT, DEFAULT_MISS_THRESHOLD, Alert, Controller
from .crypto import (
    ZERO_DIGEST,
    Rng,
    generate_keypair,
    issue_certificate,
    sha256,
    sign,
)
from .machine import (
    BootError,
    Machine,
    RelayTpmChannel,
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
from .policy import Policy, render_policy
from .schema import MAX_DOCUMENT_CHARS, Required, check_shape, read_yaml
from .tpm import NONCE_LEN, TpmError, TpmState, extend_digest

AGENT_BIN = SoftwareImage("attest-agent", b"attest-agent-bin-2.3")

GOLDEN_STACK = {
    "uefi": b"uefi-firmware-1.0",
    "tboot": b"drtm-loader-1.9",
    "kernel": b"kernel-5.15-golden",
    "initramfs": b"initramfs-agent-1.0",
}

_NUMBER = (int, float)

SCENARIO = {
    "name": str,
    "images": {str: str},
    "machines": [{Required("id"): str, "dc": str,
                  "agent": {"obfuscate": bool}}],
    "network": {
        "links": [{Required("between"): [str], "base_ms": _NUMBER, "jitter_ms": _NUMBER}],
        "adversary": {"added_delay_ms": _NUMBER, "can_drop": bool, "can_modify": bool,
                      "relay_targets": [str]},
    },
    "beacons": [{Required("endpoint"): str, "dc": str}],
    "policies": {str: str},
    "script": [dict],  # each step has the shape STEPS gives its action
    "poll": {"period_ms": _NUMBER, "rounds": int, "miss_threshold": int, "targets": [str]},
    "modelcheck": {"variant": {"plain", "obfuscated"}, "machines": int, "tpms": int,
                   "depth": int},
}

_AT = {Required("at"): _NUMBER, Required("action"): str}
_ON = {**_AT, Required("machine"): str}
STEPS = {
    "boot": {**_ON, "kernel": str, "initramfs": str, "hook": bool},
    "reboot": _ON,
    "establish": _ON,
    "deploy-policy": {**_ON, Required("policy"): str},
    "verify": {**_ON, Required("policy"): str},
    "load-file": {**_ON, Required("path"): str, "content": str, "signed": bool},
    "copy-disk": {**_AT, Required("from"): str, Required("to"): str},
    "relay": {**_ON, "target": (str, type(None))},  # null restores the direct channel
    "extend-pcr": {**_ON, Required("pcr"): int, "value": str},
}


class ScenarioError(Exception):
    """The scenario file does not parse or references missing pieces."""


def validate(doc) -> None:
    """Raise :class:`ScenarioError` unless ``doc`` has the declared shape."""
    check_shape(doc, SCENARIO, "scenario", ScenarioError)
    for index, step in enumerate(doc.get("script", [])):
        where = f"scenario.script[{index}]"
        action = step.get("action")
        if not isinstance(action, str) or action not in STEPS:
            raise ScenarioError(f"{where}: unknown action {action!r}")
        check_shape(step, STEPS[action], where, ScenarioError)
        if step["at"] < 0:  # the clock runs forwards from 0
            raise ScenarioError(f"{where}: at must not be negative, not {step['at']}")
    if "modelcheck" in doc:  # refused before the script runs, not after
        try:
            check_config(doc["modelcheck"])
        except ValueError as exc:
            raise ScenarioError(f"scenario.modelcheck: {exc}") from None


# --------------------------------------------------------------------------
# result type
# --------------------------------------------------------------------------


@dataclass
class ScenarioResult:
    """One run's report; ``dataclasses.asdict`` gives its JSON form."""

    name: str
    seed: int
    timelines: Dict[str, List[dict]]
    alerts: List[Alert]
    verdicts: Dict[str, dict]
    explorer: Optional[dict] = None

    @property
    def all_compliant(self) -> bool:
        """No failed establishment, no machine left compromised, no alarm."""
        if any(a.alarm for a in self.alerts):
            return False
        for verdict in self.verdicts.values():
            if verdict.get("trusted") is False or verdict.get("compromised"):
                return False
        return True


# --------------------------------------------------------------------------
# the running fleet
# --------------------------------------------------------------------------


def _golden_policy(fleet: "Fleet") -> str:
    return render_policy(Policy((fleet.tpm_ca_pub,), fleet.golden_static,
                                fleet.golden_dynamics, None, (), ()))


def _build_network(spec: dict, machines: List[dict]) -> NetworkModel:
    links = {}
    for i, entry in enumerate(spec.get("links", [])):
        if len(entry["between"]) != 2:
            raise ScenarioError(f"scenario.network.links[{i}].between: needs exactly two "
                                f"data centres, not {len(entry['between'])}")
        for field in ("base_ms", "jitter_ms"):
            if entry.get(field, 0) < 0:  # a negative delay would run the clock backwards
                raise ScenarioError(f"network link {'-'.join(entry['between'])}: "
                                    f"{field} must not be negative, not {entry[field]}")
        links[tuple(entry["between"])] = LatencyModel(
            base_ms=float(entry.get("base_ms", 1.0)),
            jitter_ms=float(entry.get("jitter_ms", 0.0)),
        )
    adv = None
    if "adversary" in spec:
        a = spec["adversary"]
        if a.get("added_delay_ms", 0) < 0:  # a relay can only slow traffic down
            raise ScenarioError(f"network adversary: added_delay_ms must not be negative, "
                                f"not {a['added_delay_ms']}")
        adv = AdversaryModel(
            added_delay_ms=float(a.get("added_delay_ms", 0.0)),
            can_drop=a.get("can_drop", False),
            can_modify=a.get("can_modify", False),
            relay_targets=tuple(a.get("relay_targets", [])),
        )
    net = NetworkModel(links, {}, adv)
    for m in machines:
        net.place(f"agent-{m['id']}", m.get("dc", "dc1"))
    net.place(CONTROLLER_ENDPOINT, machines[0].get("dc", "dc1"))
    return net


class Fleet:
    """One running fleet, built from a validated scenario document, and the
    record its script leaves.

    The ``act_*`` steps drive the fleet; their effects land in
    ``timelines`` (per machine, in order) and ``verdicts`` (each machine's
    last establishment).  ``controller`` polls the poll block's targets
    (every agent when none are named) at their ``agent-<id>`` endpoints,
    each under the policy last deployed to it, for the scenario's poll
    block and ``attestsim poll`` alike.  Every agent shares the fleet's
    ``parsed_policies``, so a document deployed to many machines is parsed
    once.  Every random draw comes from a labelled child of ``rng``.
    """

    def __init__(self, doc: dict, seed: int = 0):
        validate(doc)
        self.rng = rng = Rng(seed)
        self.clock = VirtualClock()
        self.platform_ca = platform_ca = generate_keypair(rng.child("platform-ca"))
        tpm_ca = generate_keypair(rng.child("tpm-ca"))
        self.tpm_ca_pub = tpm_ca.public

        self.images = images = {
            "uefi": SoftwareImage("uefi", GOLDEN_STACK["uefi"],
                                  sign(GOLDEN_STACK["uefi"], platform_ca)),
            "tboot": SoftwareImage("tboot", GOLDEN_STACK["tboot"],
                                   sign(GOLDEN_STACK["tboot"], platform_ca)),
            "kernel": SoftwareImage("kernel", GOLDEN_STACK["kernel"]),
            "initramfs": SoftwareImage("initramfs", GOLDEN_STACK["initramfs"]),
        }
        for name, content in doc.get("images", {}).items():
            if name in images:
                raise ScenarioError(f"image name {name!r} shadows a golden image")
            images[name] = SoftwareImage(name, content.encode())

        self.golden_static = extend_digest(ZERO_DIGEST, images["uefi"].measurement)
        self.golden_dynamics = {
            17: extend_digest(ZERO_DIGEST, images["tboot"].measurement),
            18: extend_digest(ZERO_DIGEST, images["kernel"].measurement),
            19: extend_digest(ZERO_DIGEST, images["initramfs"].measurement),
        }

        machine_specs = doc.get("machines", [])
        if not machine_specs:
            raise ScenarioError("scenario defines no machines")
        self.net = _build_network(doc["network"], machine_specs) if "network" in doc else None

        self.beacons: Dict[str, BeaconService] = {}
        taken = {CONTROLLER_ENDPOINT, *(f"agent-{m['id']}" for m in machine_specs)}
        for b in doc.get("beacons", []):
            endpoint = b["endpoint"]
            if endpoint in taken:  # placing it would move what already sits there
                raise ScenarioError(f"beacon endpoint {endpoint!r} is already in use")
            taken.add(endpoint)
            pair = generate_keypair(rng.child(f"beacon-{endpoint}"))
            cert = issue_certificate(platform_ca, pair.public, "beacon")
            self.beacons[endpoint] = BeaconService(endpoint, pair, cert, VirtualClock())
            if self.net is not None:
                self.net.place(endpoint, b.get("dc", "dc1"))

        self.machines: Dict[str, Machine] = {}
        self.agents: Dict[str, Agent] = {}
        self.parsed_policies: Dict[Union[str, bytes], Policy] = {}
        self.apis: Dict[str, AgentApi] = {}
        for spec in machine_specs:
            mid = spec["id"]
            if mid in self.machines:
                raise ScenarioError(f"duplicate machine id {mid!r}")
            mrng = rng.child(f"machine-{mid}")
            machine = self.machines[mid] = Machine(mid, TpmState(tpm_ca, mrng),
                                                   platform_ca.public, mrng)
            if "agent" in spec:
                agent = self.agents[mid] = Agent(
                    machine,
                    AGENT_BIN,
                    rng.child(f"agent-{mid}"),
                    self.golden_static,
                    self.golden_dynamics,
                    obfuscate=spec["agent"].get("obfuscate", True),
                    parsed_policies=self.parsed_policies,
                )
                if self.net is not None:
                    agent.attach_network(self.net, self.beacons, f"agent-{mid}")
                self.apis[mid] = AgentApi(agent)

        self.policies: Dict[str, str] = {
            name: _golden_policy(self) if body == "builtin:golden" else body
            for name, body in doc.get("policies", {}).items()
        }
        self.deployed: Dict[tuple, str] = {}  # (machine, policy name) -> policy id
        self.timelines: Dict[str, List[dict]] = {m: [] for m in self.machines}
        self.verdicts: Dict[str, dict] = {}
        self.verify_rng = rng.child("verify-nonces")

        poll = doc.get("poll", {})
        self.controller = Controller(
            clock=self.clock, net=self.net,
            miss_threshold=poll.get("miss_threshold", DEFAULT_MISS_THRESHOLD))
        for mid in poll.get("targets", sorted(self.agents)):
            endpoint = f"agent-{mid}" if self.net is not None else None
            self.controller.register(mid, self.api(mid), endpoint)

    def machine(self, machine_id) -> Machine:
        try:
            return self.machines[machine_id]
        except KeyError:
            raise ScenarioError(f"unknown machine {machine_id!r}")

    def image(self, name) -> SoftwareImage:
        try:
            return self.images[name]
        except KeyError:
            raise ScenarioError(f"unknown image {name!r}")

    def agent(self, machine_id) -> Agent:
        self.machine(machine_id)  # an unknown id is not an agentless machine
        try:
            return self.agents[machine_id]
        except KeyError:
            raise ScenarioError(f"machine {machine_id!r} has no agent")

    def api(self, machine_id) -> AgentApi:
        self.agent(machine_id)
        return self.apis[machine_id]

    # -- script steps: each returns nothing; effects land in the timelines --

    def note(self, machine_id: str, event: str, detail: dict) -> None:
        self.timelines[machine_id].append(
            {"t_ms": self.clock.now_ms, "event": event, **detail}
        )

    def run(self, index: int, step: dict) -> None:
        action = step["action"]
        try:
            getattr(self, "act_" + action.replace("-", "_"))(step)
        except (BootError, ima.ImaFormatError, TpmError) as exc:
            raise ScenarioError(f"scenario.script[{index}] {action}: {exc}") from None

    def act_boot(self, step: dict) -> None:
        mid = step["machine"]
        machine = self.machine(mid)
        hook = None
        if step.get("hook", True) and mid in self.agents:
            hook = self.agents[mid].initialization_hook
        kernel = self.image(step.get("kernel", "kernel"))
        initramfs = self.image(step.get("initramfs", "initramfs"))
        outcome = boot(machine, self.images["uefi"], self.images["tboot"],
                       kernel, initramfs, hook)
        self.note(mid, "boot",
                  {"halted": outcome.halted, "reason": outcome.reason,
                   "hook": hook is not None})

    def act_reboot(self, step: dict) -> None:
        mid = step["machine"]
        reboot_machine(self.machine(mid))
        self.note(mid, "reboot", {})

    def act_establish(self, step: dict) -> None:
        mid = step["machine"]
        report = self.agent(mid).enter_runtime()
        verdict = self.verdicts[mid] = {"trusted": report.trusted,
                                        "failed_condition": report.failed_condition,
                                        "detail": report.detail}
        self.note(mid, "establish", verdict)

    def act_deploy_policy(self, step: dict) -> None:
        mid = step["machine"]
        name = step["policy"]
        if name not in self.policies:
            raise ScenarioError(f"unknown policy {name!r}")
        resp = self.api(mid).handle("POST", "/policy", self.policies[name])
        if resp.status == 200:
            policy_id = self.deployed[(mid, name)] = resp.body["policy_id"]
            if mid in self.controller.targets():  # polled from now on under it
                self.controller.set_policy(mid, policy_id)
        self.note(mid, "deploy-policy",
                  {"policy": name, "status": resp.status, **resp.body})

    def act_verify(self, step: dict) -> None:
        mid = step["machine"]
        name = step["policy"]
        api = self.api(mid)
        policy_id = self.deployed.get((mid, name))
        if policy_id is None:
            raise ScenarioError(f"policy {name!r} was never deployed to {mid}")
        nonce = self.verify_rng.bytes(NONCE_LEN)
        resp = api.handle("GET", f"/policy/{policy_id}?nonce={nonce.hex()}")
        self.note(mid, "verify",
                  {"policy": name, "status": resp.status, "verdict": resp.body})

    def act_load_file(self, step: dict) -> None:
        mid = step["machine"]
        path = step["path"]
        machine = self.machine(mid)
        content = step.get("content", "").encode()
        signature = None
        if step.get("signed", False):
            signature = sign(sha256(content), self.platform_ca)
        machine.load_file(path, content, signature)
        # the simulated kernel refuses no file; policies judge it later
        self.note(mid, "load-file", {"path": path, "loaded": True})

    def act_copy_disk(self, step: dict) -> None:
        src_id = step["from"]
        dst_id = step["to"]
        # a slice copies the log, which loads append to in place
        self.machine(dst_id).disk = {key: value[:] for key, value
                                     in self.machine(src_id).disk.items()}
        self.note(dst_id, "copy-disk", {"from": src_id})

    def act_relay(self, step: dict) -> None:
        """Hijack a machine's TPM driver: route its traffic to another host.

        The agent's next round goes over the new route, before trust or
        after it; ``target: null`` hands the driver back (the attached chip
        again) and clears no latch.
        """
        mid = step["machine"]
        agent = self.agent(mid)
        target_id = step.get("target")
        if target_id is None:
            agent.channel = agent.machine.tpm
        else:
            agent.channel = RelayTpmChannel(self.machine(target_id), self.golden_dynamics,
                                            self.rng.child(f"relay-{mid}-{target_id}"))
        self.note(mid, "relay", {"target": target_id})

    def act_extend_pcr(self, step: dict) -> None:
        mid = step["machine"]
        machine = self.machine(mid)
        if machine.state != "runtime":  # a powered-off chip would seal the drift at boot
            raise BootError("pcr extends run only at OS runtime")
        pcr = step["pcr"]
        value = sha256(step.get("value", "").encode())
        machine.tpm.pcr_extend(pcr, value)
        self.note(mid, "extend-pcr", {"pcr": pcr})


# --------------------------------------------------------------------------
# the runner
# --------------------------------------------------------------------------


def load_scenario(path: str) -> dict:
    try:
        with open(path) as fh:
            return read_yaml(fh.read(MAX_DOCUMENT_CHARS + 1), path)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario: {exc}")
    except yaml.YAMLError as exc:
        raise ScenarioError(f"scenario is not valid yaml: {exc}")


def run_scenario(path: str, seed: int = 0) -> ScenarioResult:
    """Execute one scenario file; deterministic for a given (file, seed)."""
    return execute_scenario(load_scenario(path), seed)[0]


def check_config(spec: dict) -> CheckConfig:
    """The explorer bounds a ``modelcheck`` block (or ``attestsim
    modelcheck``) names: ``variant``, ``machines``, ``tpms``, ``depth`` and
    ``max_states``; :class:`CheckConfig` supplies and checks the rest."""
    names = {"machines": "machines", "tpms": "tpms", "depth": "derivation_depth",
             "max_states": "max_states"}
    return CheckConfig(obfuscate=spec.get("variant") == "obfuscated",
                       **{names[key]: value for key, value in spec.items() if key in names})


def execute_scenario(doc: dict, seed: int = 0):
    """Run a scenario document; returns ``(result, fleet, controller)``, the
    live fleet and its controller for callers that keep interacting after
    the script ends."""
    fleet = Fleet(doc, seed)
    controller = fleet.controller
    order = itemgetter(0, 1, 2)  # (at, tier, index): at equal times the script runs first
    steps = sorted(((float(step["at"]), 0, index, step)
                    for index, step in enumerate(doc.get("script", []))), key=order)

    poll_spec = doc.get("poll", {})
    poll_rng = fleet.rng.child("poll-nonces")
    polls = ()
    if poll_spec:
        period = float(poll_spec.get("period_ms", 1000.0))
        rounds = poll_spec.get("rounds", 5)
        if period <= 0 or rounds < 0:
            raise ScenarioError("poll period must be positive, rounds >= 0")
        polls = ((period * k, 1, k, None) for k in range(1, rounds + 1))

    for at, _tier, index, step in heapq.merge(steps, polls, key=order):
        if at > fleet.clock.now_ms:
            fleet.clock.advance(at - fleet.clock.now_ms)
        if step is None:
            controller.poll_round(poll_rng)
        else:
            fleet.run(index, step)

    # machines whose agent latched a compromise after establishment
    for mid, agent in fleet.agents.items():
        fleet.verdicts.setdefault(mid, {})["compromised"] = agent.compromised

    explorer = None
    if "modelcheck" in doc:
        explorer = check(check_config(doc["modelcheck"])).to_dict()

    result = ScenarioResult(
        name=doc.get("name", "unnamed"),
        seed=seed,
        timelines=fleet.timelines,
        alerts=list(controller.alerts),
        verdicts=fleet.verdicts,
        explorer=explorer,
    )
    return result, fleet, controller
