"""Two-phase agent: initialization, trust conditions, serving loop, API."""

import sys
from dataclasses import replace
from unittest import mock

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from attestsim import crypto
from attestsim.agent import (
    CONDITION_DYNAMIC,
    CONDITION_REBOOT,
    CONDITION_STATIC,
    CONDITION_UNSEAL,
    CONFIG_DISK_KEY,
    Agent,
    AgentApi,
    InitFailure,
    UnknownPolicyId,
    UntrustedPlatform,
    agent_init,
    establish_trust,
)
from attestsim.crypto import (
    ZERO_DIGEST,
    Rng,
    generate_keypair,
    issue_certificate,
    sha256,
    sign,
)
from attestsim.machine import (
    InitHookFailure,
    Machine,
    RelayTpmChannel,
    SoftwareImage,
    boot,
    reboot_machine,
    run_enclave,
)
from attestsim.netsim import BeaconService, LatencyModel, NetworkModel, VirtualClock
from attestsim.policy import evaluate, parse_policy, pem_encode
from attestsim.tpm import IMA_PCR, TpmError, TpmState, extend_digest

AGENT_BIN = SoftwareImage("attest-agent", b"attest-agent-bin-2.3")


class World:
    """A small fleet sharing one platform CA, TPM manufacturer and goldens."""

    def __init__(self, seed=1, n_machines=1):
        rng = Rng(seed)
        self.rng = rng
        self.platform_ca = generate_keypair(rng.child("platform-ca"))
        self.tpm_ca = generate_keypair(rng.child("tpm-ca"))

        def signed(name, content):
            return SoftwareImage(name, content, sign(content, self.platform_ca))

        self.images = {
            "uefi": signed("uefi", b"uefi-firmware-1.0"),
            "tboot": signed("tboot", b"drtm-loader-1.9"),
            "kernel": SoftwareImage("kernel", b"kernel-5.15-golden"),
            "initramfs": SoftwareImage("initramfs", b"initramfs-agent-1.0"),
        }
        self.machines = []
        for i in range(n_machines):
            mrng = rng.child(f"machine-{i}")
            tpm = TpmState(self.tpm_ca, mrng)
            self.machines.append(Machine(f"m{i}", tpm, self.platform_ca.public, mrng))

        img = self.images
        self.golden_static = extend_digest(ZERO_DIGEST, img["uefi"].measurement)
        self.golden_dynamics = {
            17: extend_digest(ZERO_DIGEST, img["tboot"].measurement),
            18: extend_digest(ZERO_DIGEST, img["kernel"].measurement),
            19: extend_digest(ZERO_DIGEST, img["initramfs"].measurement),
        }

    def boot(self, m, init_hook=None, kernel=None, initramfs=None):
        img = self.images
        return boot(
            m,
            img["uefi"],
            img["tboot"],
            kernel or img["kernel"],
            initramfs or img["initramfs"],
            init_hook,
        )

    def agent_for(self, m, seed=909, obfuscate=True, channel=None):
        agent = Agent(
            m,
            AGENT_BIN,
            Rng(seed),
            self.golden_static,
            self.golden_dynamics,
            obfuscate=obfuscate,
        )
        if channel is not None:
            agent.channel = channel
        return agent


class CountingRng(Rng):
    def __init__(self, seed):
        super().__init__(seed)
        self.draws = []
        draw = self.bytes

        def counted(n):
            self.draws.append(n)
            return draw(n)

        self.bytes = counted


class FlakyChannel:
    """Wraps a channel and records each quote it returns.  While ``fault``
    is set, quotes fail (``down``), certify a nonce of the channel's own
    instead of the round's (``ignores-nonce``) or carry a flipped signature
    bit (``flipped-signature``)."""

    def __init__(self, inner):
        self.inner = inner
        self.fault = None
        self.quotes = []

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def quote(self, aik_pub, nonce, selection):
        if self.fault == "down":
            raise TpmError("device does not respond")
        if self.fault == "ignores-nonce":
            nonce = sha256(b"the channel's own nonce")
        quote = self.inner.quote(aik_pub, nonce, selection)
        if self.fault == "flipped-signature":
            quote = replace(quote, signature=bytes([quote.signature[0] ^ 1])
                            + quote.signature[1:])
        self.quotes.append(quote)
        return quote


def record_quotes(agent):
    """Record, from now on, every quote the agent's channel returns."""
    tap = agent.channel = FlakyChannel(agent.channel)
    return tap.quotes


def policy_text(world, pcr_entries, runtime_cert=None, software=None, location=None,
                tpm_ca=None):
    doc = {
        "chain": pem_encode((tpm_ca or world.tpm_ca).public),
        "whitelist": {"pcrs": [{"id": i, "sha256": v.hex()} for i, v in pcr_entries]},
    }
    if runtime_cert is not None or software:
        rt = {}
        if runtime_cert is not None:
            rt["certificate"] = pem_encode(runtime_cert)
        if software:
            rt["software"] = software
        doc["runtime"] = rt
    if location:
        doc["location"] = location
    return yaml.safe_dump(doc, sort_keys=False)


def golden_policy(world):
    entries = [(0, world.golden_static)] + sorted(world.golden_dynamics.items())
    return policy_text(world, entries)


# --------------------------------------------------------------------------
# phase 1: initialization
# --------------------------------------------------------------------------


def test_init_obfuscates_whitelisted_static_and_seals_baseline():
    w = World()
    (m,) = w.machines
    arng = Rng(909)
    captured = {}

    def hook(machine):
        ctx = run_enclave(machine, AGENT_BIN, "init")
        captured["config"] = agent_init(ctx, machine.tpm, arng)

    out = w.boot(m, init_hook=hook)
    assert not out.halted
    config = captured["config"]

    # replay oracle: draws are (aik seed, secret, nonce0, mask, nonce1), so an
    # observer holding the seed recovers the mask and the extend arithmetic
    replay = Rng(909)
    for _ in range(3):
        replay.bytes(32)
    mask = replay.bytes(32)
    assert config.original == w.golden_static
    assert config.obfuscated == extend_digest(config.original, mask)
    assert m.tpm.read_pcr(0) == config.obfuscated
    assert config.obfuscated != config.original
    assert CONFIG_DISK_KEY in m.disk
    assert config.dynamics == w.golden_dynamics
    assert config.reboot_counter == 0


def test_init_draws_exactly_five_values_when_obfuscating():
    w = World()
    (m,) = w.machines
    rng = CountingRng(5)

    def hook(machine):
        ctx = run_enclave(machine, AGENT_BIN, "init")
        agent_init(ctx, machine.tpm, rng)

    w.boot(m, init_hook=hook)
    assert rng.draws == [32] * 5


def test_plain_init_draws_three_and_leaves_pcrs_alone():
    w = World()
    (m,) = w.machines
    rng = CountingRng(6)
    captured = {}

    def hook(machine):
        ctx = run_enclave(machine, AGENT_BIN, "init")
        captured["config"] = agent_init(ctx, machine.tpm, rng, obfuscate=False)

    w.boot(m, init_hook=hook)
    assert rng.draws == [32] * 3
    config = captured["config"]
    assert config.obfuscated == config.original
    assert m.tpm.read_pcr(0) == w.golden_static


def test_init_requires_init_phase_enclave():
    w = World()
    (m,) = w.machines
    w.boot(m)
    ctx = run_enclave(m, AGENT_BIN, "runtime")
    with pytest.raises(ValueError):
        agent_init(ctx, m.tpm, Rng(1))


def test_init_fails_activation_when_ek_certificate_is_foreign():
    w = World(n_machines=2)
    m, other = w.machines
    w.boot(m)

    class ForeignEkChannel:
        """The attached chip, but handing out another chip's EK certificate."""

        ek_cert = other.tpm.ek_cert

        def __init__(self, tpm):
            self.tpm = tpm

        def __getattr__(self, name):
            return getattr(self.tpm, name)

    ctx = run_enclave(m, AGENT_BIN, "init")
    with pytest.raises(InitFailure) as err:
        agent_init(ctx, ForeignEkChannel(m.tpm), Rng(1))
    assert err.value.reason == "activation-failed"


def test_init_via_relay_to_golden_host_hits_obfuscation_mismatch():
    """The extend is silently dropped by a golden remote, and the read-back
    betrays it: obfuscation turns a quiet relay into a hard init failure."""
    w = World(n_machines=2)
    victim, oracle = w.machines
    w.boot(oracle)  # golden, agentless: refuses remote extends
    w.boot(victim)
    relay = RelayTpmChannel(oracle, w.golden_dynamics, w.rng.child("adv"))
    ctx = run_enclave(victim, AGENT_BIN, "init")
    with pytest.raises(InitFailure) as err:
        agent_init(ctx, relay, Rng(2))
    assert err.value.reason == "obfuscation-mismatch"


def test_init_via_relay_to_tampered_host_seals_foreign_values():
    w = World(n_machines=2)
    victim, host = w.machines
    rootkit = SoftwareImage("kernel", b"kernel-5.15-rootkit")
    w.boot(host, kernel=rootkit)  # tampered: accepts remote extends
    w.boot(victim)
    relay = RelayTpmChannel(host, w.golden_dynamics, w.rng.child("adv"))
    ctx = run_enclave(victim, AGENT_BIN, "init")
    config = agent_init(ctx, relay, Rng(3))
    assert config.dynamics[18] != w.golden_dynamics[18]
    assert config.dynamics[18] == host.tpm.read_pcr(18)
    assert config.aik_pub in host.tpm.aiks and config.aik_pub not in victim.tpm.aiks


# --------------------------------------------------------------------------
# phase 2: the four conditions
# --------------------------------------------------------------------------


def test_honest_machine_establishes_trust():
    w = World()
    (m,) = w.machines
    agent = w.agent_for(m)
    out = w.boot(m, init_hook=agent.initialization_hook)
    assert not out.halted
    quotes = record_quotes(agent)
    report = agent.enter_runtime()
    assert report.trusted and report.failed_condition is None
    assert IMA_PCR in quotes[-1].selection
    assert agent.health()["status"] == "ok"


def test_c1_sealed_baseline_does_not_open_on_another_machine():
    w = World(n_machines=2)
    m0, m1 = w.machines
    agent = w.agent_for(m0)
    w.boot(m0, init_hook=agent.initialization_hook)
    w.boot(m1)
    m1.disk[CONFIG_DISK_KEY] = m0.disk[CONFIG_DISK_KEY]
    ctx = run_enclave(m1, AGENT_BIN, "runtime")
    report = establish_trust(
        ctx, m1.tpm, Rng(77), w.golden_static, w.golden_dynamics
    )
    assert not report.trusted
    assert report.failed_condition == CONDITION_UNSEAL


def test_c1_missing_baseline():
    w = World()
    (m,) = w.machines
    w.boot(m)
    ctx = run_enclave(m, AGENT_BIN, "runtime")
    report = establish_trust(
        ctx, m.tpm, Rng(78), w.golden_static, w.golden_dynamics
    )
    assert report.failed_condition == CONDITION_UNSEAL


def test_c2_tampered_kernel_breaks_dynamic_agreement():
    w = World()
    (m,) = w.machines
    agent = w.agent_for(m)
    rootkit = SoftwareImage("kernel", b"kernel-5.15-rootkit")
    out = w.boot(m, init_hook=agent.initialization_hook, kernel=rootkit)
    assert not out.halted  # kernel is measured, not signature-gated
    report = agent.enter_runtime()
    assert not report.trusted
    assert report.failed_condition == CONDITION_DYNAMIC


def test_c3_runtime_relay_to_golden_host_is_caught():
    """The cuckoo move at runtime: the driver starts relaying to a healthy
    remote host.  Its quotes verify and show golden values everywhere, but
    they are signed by the wrong key and miss the obfuscated static."""
    w = World(n_machines=2)
    m, oracle = w.machines
    agent = w.agent_for(m)
    w.boot(m, init_hook=agent.initialization_hook)
    w.boot(oracle)
    relay = RelayTpmChannel(oracle, w.golden_dynamics, w.rng.child("adv"))
    agent.channel = relay
    quotes = record_quotes(agent)
    report = agent.enter_runtime()
    assert not report.trusted
    assert report.failed_condition == CONDITION_STATIC
    assert quotes[-1].aik_pub not in m.tpm.aiks


def test_c3_static_drift_on_the_attached_tpm():
    w = World()
    (m,) = w.machines
    agent = w.agent_for(m)
    w.boot(m, init_hook=agent.initialization_hook)
    m.tpm.pcr_extend(0, sha256(b"malicious rewrite"))
    report = agent.enter_runtime()
    assert report.failed_condition == CONDITION_STATIC


def test_c3_sealed_baseline_other_than_golden():
    # the platform measured and sealed a static value the fleet does not
    # expect; the quote still shows what was sealed as obfuscated
    w = World()
    (m,) = w.machines
    agent = w.agent_for(m)
    w.boot(m, init_hook=agent.initialization_hook)
    ctx = run_enclave(m, AGENT_BIN, "runtime")
    golden = {0: sha256(b"another launch configuration")}
    report = establish_trust(ctx, m.tpm, Rng(79), golden, w.golden_dynamics)
    assert (report.failed_condition, report.detail) == (
        CONDITION_STATIC, "sealed baseline for static pcr 0 is not the golden value")


def test_c4_reboot_without_reinitialization():
    # a plain agent masks no static, so the reboot counter is the
    # condition that catches the power cycle
    w = World()
    (m,) = w.machines
    agent = w.agent_for(m, obfuscate=False)
    w.boot(m, init_hook=agent.initialization_hook)
    reboot_machine(m)
    w.boot(m)  # attacker reboots the golden stack without the agent hook
    report = agent.enter_runtime()
    assert not report.trusted
    assert report.failed_condition == CONDITION_REBOOT


def test_reboot_with_obfuscated_statics_fails_c3_before_c4():
    w = World()
    (m,) = w.machines
    agent = w.agent_for(m)
    w.boot(m, init_hook=agent.initialization_hook)
    reboot_machine(m)
    w.boot(m)
    report = agent.enter_runtime()
    # the power cycle also wiped the obfuscated value, and c3 runs first
    assert report.failed_condition == CONDITION_STATIC


def test_conditions_check_in_order_c1_first():
    w = World(n_machines=2)
    m0, m1 = w.machines
    agent = w.agent_for(m0)
    rootkit = SoftwareImage("kernel", b"kernel-5.15-rootkit")
    w.boot(m0, init_hook=agent.initialization_hook, kernel=rootkit)
    w.boot(m1, kernel=rootkit)
    # wrong machine AND tampered kernel: the unseal failure is named
    m1.disk[CONFIG_DISK_KEY] = m0.disk[CONFIG_DISK_KEY]
    ctx = run_enclave(m1, AGENT_BIN, "runtime")
    report = establish_trust(
        ctx, m1.tpm, Rng(80), w.golden_static, w.golden_dynamics
    )
    assert report.failed_condition == CONDITION_UNSEAL


# --------------------------------------------------------------------------
# cuckoo soundness grid
# --------------------------------------------------------------------------


ROOTKIT = SoftwareImage("kernel", b"kernel-5.15-rootkit")


def _halt(machine):
    raise InitHookFailure("halted by test")


def _routed_world():
    """A victim m and its channel routes: ``direct`` to its own chip, or a
    relay to a golden, a tampered or a halted host."""
    w = World(n_machines=4)
    m, golden_host, tampered_host, halted_host = w.machines
    w.boot(golden_host)
    w.boot(tampered_host, kernel=ROOTKIT)
    assert w.boot(halted_host, init_hook=_halt).halted  # off, golden registers kept
    channels = {"direct": m.tpm, **{
        route: RelayTpmChannel(host, w.golden_dynamics, w.rng.child("adv"))
        for route, host in [("relay-golden", golden_host),
                            ("relay-tampered", tampered_host),
                            ("relay-halted", halted_host)]
    }}
    return w, m, channels


def _run_case(init_route, runtime_route, obfuscate=True, kernel=None):
    """Drive init+establish on a victim booting ``kernel`` with the given
    channel routes; returns (outcome, runtime quotes, attached_machine).
    The outcome is ``halted-at-init``, ``tpm-unreachable``, ``trusted`` or
    the failed condition."""
    w, m, channels = _routed_world()
    agent = w.agent_for(m, obfuscate=obfuscate, channel=channels[init_route])
    out = w.boot(m, init_hook=agent.initialization_hook, kernel=kernel)
    if out.halted:
        return "halted-at-init", [], m
    agent.channel = channels[runtime_route]
    quotes = record_quotes(agent)
    report = agent.enter_runtime()
    if report.detail.startswith("tpm unreachable"):
        return "tpm-unreachable", quotes, m
    return "trusted" if report.trusted else report.failed_condition, quotes, m


ROUTES = ["direct", "relay-golden", "relay-tampered", "relay-halted"]


@pytest.mark.parametrize("init_route", ROUTES)
@pytest.mark.parametrize("runtime_route", ROUTES)
def test_cuckoo_soundness_grid(init_route, runtime_route):
    """Over every channel combination: trust is granted only to the honest
    pair, and a granted quote is always signed by the attached TPM."""
    outcome, quotes, m = _run_case(init_route, runtime_route)
    trusted = outcome == "trusted"
    if trusted:
        assert quotes[-1].aik_pub in m.tpm.aiks
    assert trusted == (init_route == "direct" and runtime_route == "direct")


@pytest.mark.parametrize("serving_route", ROUTES)
def test_serving_route_grid(serving_route):
    """After a trusted direct establishment, the driver of the serving agent
    switches route: the next verdict quotes over that route, so a relay
    that answers fails the key binding and latches, and one that does not
    answer leaves the round stale until the driver is handed back."""
    w, m, channels = _routed_world()
    agent = w.agent_for(m)
    w.boot(m, init_hook=agent.initialization_hook)
    assert agent.enter_runtime().trusted
    pid = agent.deploy_policy(golden_policy(w))
    agent.channel = channels[serving_route]
    quotes = record_quotes(agent)
    if serving_route in ("relay-golden", "relay-tampered"):
        with pytest.raises(UntrustedPlatform, match="pcr-changed"):
            agent.verify_policy(pid, Rng(104).bytes(32))
        assert quotes[-1].aik_pub not in m.tpm.aiks
        assert agent.compromised == "pcr-changed"
        return
    verdict = agent.verify_policy(pid, Rng(104).bytes(32))
    if serving_route == "relay-halted":
        assert verdict["violations"] == [
            {"kind": "stale-quote", "detail": "quote does not bind the round nonce"}]
        assert agent.health()["status"] == "stale"
        agent.channel = channels["direct"]
        quotes = record_quotes(agent)
        verdict = agent.verify_policy(pid, Rng(105).bytes(32))
    assert verdict["compliant"] is True
    assert quotes[-1].aik_pub in m.tpm.aiks
    assert agent.health()["status"] == "ok"


# a rootkit victim over every (init route, runtime route): the plain scheme
# trusts the bridge to the golden host, the obfuscated one trusts no cell; a
# halted host keeps its golden registers but answers no relayed call
TAMPERED_VICTIM_GRID = {
    "plain": {
        "direct": ["c2-dynamic-pcr", "c2-dynamic-pcr", "c2-dynamic-pcr", "tpm-unreachable"],
        "relay-golden": ["tpm-unreachable", "trusted", "c2-dynamic-pcr", "tpm-unreachable"],
        "relay-tampered": ["tpm-unreachable", "c2-dynamic-pcr", "c2-dynamic-pcr",
                           "tpm-unreachable"],
        "relay-halted": ["halted-at-init"] * 4,
    },
    "obfuscated": {
        "direct": ["c2-dynamic-pcr", "c2-dynamic-pcr", "c2-dynamic-pcr", "tpm-unreachable"],
        "relay-golden": ["halted-at-init"] * 4,
        "relay-tampered": ["tpm-unreachable", "c2-dynamic-pcr", "c2-dynamic-pcr",
                           "tpm-unreachable"],
        "relay-halted": ["halted-at-init"] * 4,
    },
}


@pytest.mark.parametrize("variant", ["plain", "obfuscated"])
def test_tampered_victim_relay_grid(variant):
    grid = {init: [_run_case(init, runtime, variant == "obfuscated", ROOTKIT)[0]
                   for runtime in ROUTES]
            for init in ROUTES}
    assert grid == TAMPERED_VICTIM_GRID[variant]


def test_plain_variant_lets_the_bridged_cuckoo_through():
    """Regression witness for the unobfuscated scheme: relay from first boot
    to a golden host makes a tampered machine fully trusted."""
    w = World(n_machines=2)
    victim, oracle = w.machines
    w.boot(oracle)  # the healthy host whose TPM answers everything
    relay = RelayTpmChannel(oracle, w.golden_dynamics, w.rng.child("adv"))
    agent = w.agent_for(victim, obfuscate=False, channel=relay)
    rootkit = SoftwareImage("kernel", b"kernel-5.15-rootkit")
    out = w.boot(victim, init_hook=agent.initialization_hook, kernel=rootkit)
    assert not out.halted
    quotes = record_quotes(agent)
    report = agent.enter_runtime()

    assert report.trusted                          # the verdict says healthy
    assert victim.tpm.read_pcr(18) != w.golden_dynamics[18]  # the machine is not
    assert quotes[-1].aik_pub not in victim.tpm.aiks  # the quote is a cuckoo egg


def test_obfuscated_variant_kills_the_same_bridge_at_init():
    w = World(n_machines=2)
    victim, oracle = w.machines
    w.boot(oracle)
    relay = RelayTpmChannel(oracle, w.golden_dynamics, w.rng.child("adv"))
    agent = w.agent_for(victim, obfuscate=True, channel=relay)
    rootkit = SoftwareImage("kernel", b"kernel-5.15-rootkit")
    out = w.boot(victim, init_hook=agent.initialization_hook, kernel=rootkit)
    assert out.halted
    assert "obfuscation-mismatch" in out.reason


# --------------------------------------------------------------------------
# runtime serving: refresh, policies, api
# --------------------------------------------------------------------------


def serving_agent(w=None, **kw):
    w = w or World()
    (m,) = w.machines[:1]
    agent = w.agent_for(m, **kw)
    w.boot(m, init_hook=agent.initialization_hook)
    report = agent.enter_runtime()
    assert report.trusted
    return w, m, agent


def test_deploy_and_verify_compliant_policy():
    w, m, agent = serving_agent()
    tap = agent.channel = FlakyChannel(agent.channel)
    api = AgentApi(agent)
    resp = api.handle("POST", "/policy", golden_policy(w))
    assert resp.status == 200
    pid = resp.body["policy_id"]
    assert len(bytes.fromhex(pid)) == 16
    nonce = Rng(55).bytes(32)
    resp = api.handle("GET", f"/policy/{pid}?nonce={nonce.hex()}")
    assert resp.status == 200
    assert resp.body["compliant"] is True
    assert resp.body["violations"] == []
    assert tap.quotes[-1].nonce == nonce  # the round nonce reached the TPM


@pytest.mark.parametrize("pcr", [3, IMA_PCR])
def test_a_whitelist_naming_another_register_is_refused_at_deploy(pcr):
    """Only the masked static register and the dynamic ones have a whitelist
    rule: listing any other register, even at its true value, is a 400, not
    a policy under which every verdict is a false pcr-mismatch."""
    w, m, agent = serving_agent()
    api = AgentApi(agent)
    entries = [(0, w.golden_static), (pcr, m.tpm.read_pcr(pcr)),
               *sorted(w.golden_dynamics.items())]
    resp = api.handle("POST", "/policy", policy_text(w, entries))
    assert resp.status == 400
    assert resp.body["error"].startswith(f"whitelist.pcrs[1].id: pcr {pcr} is neither")
    assert agent.policies == {}


def test_policy_ids_are_fresh_16_byte_hex():
    w, m, agent = serving_agent()
    a = agent.deploy_policy(golden_policy(w))
    b = agent.deploy_policy(golden_policy(w))
    assert a != b and len(bytes.fromhex(a)) == 16
    assert agent.policies[a] == parse_policy(golden_policy(w))
    with pytest.raises(UnknownPolicyId):
        agent.verify_policy("00" * 16, Rng(76).bytes(32))


def test_unknown_file_raises_untrusted_file_violation():
    w, m, agent = serving_agent()
    distributor = generate_keypair(Rng(91))
    known = b"#!/bin/sh\necho backup\n"
    text = policy_text(
        w,
        [(0, w.golden_static)] + sorted(w.golden_dynamics.items()),
        runtime_cert=distributor.public,
        software=[{"name": "ops", "whitelist": {sha256(known).hex(): "/opt/backup.sh"}}],
    )
    pid = agent.deploy_policy(text)
    m.load_file("/opt/backup.sh", known)
    m.load_file("/tmp/dropper", b"\x7fELF evil")
    verdict = agent.verify_policy(pid, Rng(56).bytes(32))
    kinds = [v["kind"] for v in verdict["violations"]]
    assert kinds == ["untrusted-file"]
    assert "/tmp/dropper" in verdict["violations"][0]["detail"]


def test_signed_file_passes_without_whitelist_entry():
    w, m, agent = serving_agent()
    distributor = generate_keypair(Rng(92))
    text = policy_text(
        w,
        [(0, w.golden_static)] + sorted(w.golden_dynamics.items()),
        runtime_cert=distributor.public,
    )
    pid = agent.deploy_policy(text)
    tool = b"vendor tool v2"
    m.load_file("/usr/bin/vendor-tool", tool, sign(sha256(tool), distributor))
    verdict = agent.verify_policy(pid, Rng(57).bytes(32))
    assert verdict["compliant"] is True


def test_log_tamper_latches_and_keeps_answering():
    w, m, agent = serving_agent()
    pid = agent.deploy_policy(golden_policy(w))
    m.load_file("/usr/bin/a", b"aaa")
    agent.refresh(Rng(97).bytes(32))
    log = bytearray(m.disk["ima/log"])
    log[10] ^= 0x01
    m.disk["ima/log"] = bytes(log) + b"x 41414141 ima-ng 42424242 /oops\n"
    m.tpm.pcr_extend(IMA_PCR, sha256(b"hidden load"))
    agent.refresh(Rng(98).bytes(32))
    assert agent.compromised == "log-tampered"
    verdict = agent.verify_policy(pid, Rng(58).bytes(32))
    assert verdict["compliant"] is False
    assert "log-tampered" in [v["kind"] for v in verdict["violations"]]
    assert agent.health()["status"] == "compromised"


def test_log_on_disk_is_appended_and_an_edit_stays():
    w, m, agent = serving_agent()
    events = [m.load_file(f"/usr/bin/t{i}", b"tool %d" % i) for i in range(5)]
    assert m.disk["ima/log"] == b"".join(e.encode_line() + b"\n" for e in events)
    # an edit the agent has not folded yet must survive the next load
    log = bytearray(m.disk["ima/log"])
    log[-10] ^= 0x01
    m.disk["ima/log"] = bytes(log)
    m.load_file("/usr/bin/after", b"after")
    assert m.disk["ima/log"].startswith(bytes(log))
    agent.refresh(Rng(99).bytes(32))
    assert agent.compromised == "log-tampered"


# --------------------------------------------------------------------------
# incremental appraisal: each policy appraises only events new to it
# --------------------------------------------------------------------------

KNOWN = b"whitelisted tool"
VENDOR = generate_keypair(Rng(93))
FOREIGN = generate_keypair(Rng(94))


def _file_load(kind, i):
    """(path, content, signature) of a file of one of four kinds."""
    content = b"file %d of kind %d" % (i, kind)
    if kind == 0:
        return f"/opt/known{i}", KNOWN, None
    if kind == 1:
        return f"/opt/signed{i}", content, sign(sha256(content), VENDOR)
    if kind == 2:
        return f"/opt/forged{i}", content, sign(sha256(content), FOREIGN)
    return f"/tmp/rogue{i}", content, None


def _runtime_policies(w):
    """A policy with a runtime certificate, and one without whose PCR 17
    entry is wrong, so each of its verdicts also carries a pcr-mismatch."""
    entries = [(0, w.golden_static)] + sorted(w.golden_dynamics.items())
    software = [{"name": "ops", "whitelist": {sha256(KNOWN).hex(): "/opt/known"}}]
    wrong = [(i, ZERO_DIGEST if i == 17 else v) for i, v in entries]
    return (policy_text(w, entries, runtime_cert=VENDOR.public, software=software),
            policy_text(w, wrong, software=software))


STEPS = st.one_of(
    st.tuples(st.just("load"), st.integers(0, 3)),
    st.tuples(st.just("deploy"), st.integers(0, 1)),
    st.tuples(st.just("verify"), st.just(0)),
    st.tuples(st.just("reenter"), st.just(0)),
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(steps=st.lists(STEPS, min_size=4, max_size=30))
def test_incremental_verdicts_equal_full_evaluation(steps):
    """Every incremental verdict equals evaluating every event from scratch."""
    w, m, agent = serving_agent()
    texts = _runtime_policies(w)
    views = []

    def recording(policy, view):
        views.append(view)
        return evaluate(policy, view)

    pids = []
    loaded = []
    nonces = Rng(95)

    def verify_each():
        for pid in pids:
            verdict = agent.verify_policy(pid, nonces.bytes(32))
            full = replace(views[-1], ima_events=tuple(loaded), earlier_violations=())
            assert verdict == {"policy_id": pid,
                               **evaluate(agent.policies[pid], full).to_dict()}

    with mock.patch("attestsim.agent.evaluate", recording):
        for i, (action, arg) in enumerate(steps):
            if action == "load":
                loaded.append(m.load_file(*_file_load(arg, i)))
            elif action == "deploy":
                pids.append(agent.deploy_policy(texts[arg]))
            elif action == "reenter":
                assert agent.enter_runtime().trusted
            else:
                verify_each()
        verify_each()


def test_unchanged_log_is_appraised_once_per_policy(monkeypatch):
    w, m, agent = serving_agent()
    for i in range(40):
        m.load_file(*_file_load(1 if i % 10 == 0 else 0, i))
    verifies = []
    appraised = []

    def counting_verify(signature, message, public):
        verifies.append(message)
        return crypto.verify(signature, message, public)

    def recording(policy, view):
        appraised.append(len(view.ima_events))
        return evaluate(policy, view)

    monkeypatch.setattr("attestsim.policy.verify", counting_verify)
    monkeypatch.setattr("attestsim.agent.evaluate", recording)
    pid = agent.deploy_policy(_runtime_policies(w)[0])
    nonces = Rng(96)
    for _ in range(10):
        assert agent.verify_policy(pid, nonces.bytes(32))["compliant"] is True
    assert len(verifies) == 4
    assert appraised == [40] + [0] * 9
    for i in range(40, 45):
        m.load_file(*_file_load(1, i))
    assert agent.verify_policy(pid, nonces.bytes(32))["compliant"] is True
    assert appraised[-1] == 5 and len(verifies) == 9


@pytest.mark.parametrize("obfuscate", [False, True], ids=["plain-statics", "obfuscated-static"])
def test_reboot_under_running_agent_is_locked_out(obfuscate):
    """A reboot latches ``rebooted`` even when it also wipes the obfuscated
    static, which on its own would latch ``pcr-changed``."""
    w, m, agent = serving_agent(obfuscate=obfuscate)
    pid = agent.deploy_policy(golden_policy(w))
    reboot_machine(m)
    w.boot(m)
    with pytest.raises(UntrustedPlatform):
        agent.refresh(Rng(100).bytes(32))
    assert agent.compromised == "rebooted"
    api = AgentApi(agent)
    resp = api.handle("GET", f"/policy/{pid}?nonce={Rng(59).bytes(32).hex()}")
    assert resp.status == 403
    resp = api.handle("POST", "/policy", golden_policy(w))
    assert resp.status == 403
    # a compromised agent still names an unknown policy id first
    resp = api.handle("GET", f"/policy/{'00' * 16}?nonce={Rng(59).bytes(32).hex()}")
    assert resp.status == 404


def test_static_drift_under_running_agent_is_locked_out():
    w, m, agent = serving_agent()
    m.tpm.pcr_extend(0, sha256(b"drift"))
    with pytest.raises(UntrustedPlatform):
        agent.refresh(Rng(101).bytes(32))
    assert agent.compromised == "pcr-changed"


def test_failed_reestablishment_drops_the_ended_sessions_latch():
    """establish, drift, verify, establish: the second establishment fails
    and the pcr-changed latch ends with the session it belonged to."""
    w, m, agent = serving_agent()
    pid = agent.deploy_policy(golden_policy(w))
    m.tpm.pcr_extend(0, sha256(b"drift"))
    with pytest.raises(UntrustedPlatform, match="pcr-changed"):
        agent.verify_policy(pid, Rng(103).bytes(32))
    assert not agent.enter_runtime().trusted
    assert agent.compromised is None
    assert agent.health()["status"] == "not-serving"


def test_reboot_ends_the_session_and_enter_runtime_refuses_a_powered_off_machine():
    w, m, agent = serving_agent()
    reboot_machine(m)
    assert agent.compromised == "rebooted"
    assert agent.health()["status"] == "compromised"
    with pytest.raises(UntrustedPlatform, match="rebooted"):
        agent.deploy_policy(golden_policy(w))
    report = agent.enter_runtime()
    assert (report.trusted, report.failed_condition, report.detail) == (
        False, None, "machine is not at os runtime")
    assert agent.health()["status"] == "not-serving"


def test_runtime_relay_swap_under_running_agent_is_locked_out():
    """The driver of a serving agent starts relaying to a golden-booted
    host: its quotes verify and show golden values, but carry another key
    and miss the obfuscated static, so the next refresh latches."""
    w = World(n_machines=2)
    m, oracle = w.machines
    agent = w.agent_for(m)
    w.boot(m, init_hook=agent.initialization_hook)
    assert agent.enter_runtime().trusted
    w.boot(oracle)
    tap = agent.channel = FlakyChannel(
        RelayTpmChannel(oracle, w.golden_dynamics, w.rng.child("adv")))
    with pytest.raises(UntrustedPlatform):
        agent.refresh(Rng(102).bytes(32))
    assert agent.compromised == "pcr-changed"
    assert tap.quotes[-1].aik_pub not in m.tpm.aiks


def _stale_round_then_recovery(fault):
    w, m, agent = serving_agent()
    pid = agent.deploy_policy(golden_policy(w))
    flaky = agent.channel = FlakyChannel(agent.channel)
    flaky.fault = fault
    verdict = agent.verify_policy(pid, Rng(60).bytes(32))
    assert verdict["compliant"] is False
    assert verdict["violations"] == [
        {"kind": "stale-quote", "detail": "quote does not bind the round nonce"}]
    assert agent.health()["status"] == "stale"
    flaky.fault = None
    verdict = agent.verify_policy(pid, Rng(61).bytes(32))
    assert verdict["compliant"] is True
    assert agent.health()["status"] == "ok"


def test_unreachable_tpm_yields_stale_quote_verdict():
    _stale_round_then_recovery("down")


@pytest.mark.parametrize("fault", ["ignores-nonce", "flipped-signature"])
def test_unverifiable_quote_yields_stale_quote_verdict(fault):
    _stale_round_then_recovery(fault)


def in_dc_beacon(seed=71, authority=None):
    """A beacon beside machine m0: (network, beacon, the beacon's authority)."""
    brng = Rng(seed)
    authority = authority or generate_keypair(brng)
    bkp = generate_keypair(brng)
    beacon = BeaconService(
        "beacon-1", bkp, issue_certificate(authority, bkp.public, "beacon"), VirtualClock()
    )
    net = NetworkModel(
        {("dc1", "dc1"): LatencyModel(0.3, 0.2)}, {"m0": "dc1", "beacon-1": "dc1"}
    )
    return net, beacon, authority


def location_policy(w, *authorities, tpm_ca=None):
    """The golden policy with a 2 ms rule for beacon-1 under each authority."""
    entries = [(0, w.golden_static)] + sorted(w.golden_dynamics.items())
    rules = [{"host": "beacon-1", "max_latency": 2, "chain": pem_encode(a.public)}
             for a in authorities]
    return policy_text(w, entries, location=rules, tpm_ca=tpm_ca)


def test_location_rule_measured_through_attached_network():
    w, m, agent = serving_agent()
    net, beacon, authority = in_dc_beacon()
    pid = agent.deploy_policy(location_policy(w, authority))
    verdict = agent.verify_policy(pid, Rng(62).bytes(32))  # no network attached yet
    assert "location" in [v["kind"] for v in verdict["violations"]]
    agent.attach_network(net, {"beacon-1": beacon}, "m0")
    verdict = agent.verify_policy(pid, Rng(63).bytes(32))
    assert verdict["compliant"] is True


@pytest.mark.parametrize("certified_first", [True, False])
def test_two_rules_for_one_host_are_measured_apart(certified_first):
    """A certified rule for beacon-1 holds on either side of a rule for the
    same host under another chain: each rule keeps its own estimate."""
    w, m, agent = serving_agent()
    net, beacon, authority = in_dc_beacon()
    agent.attach_network(net, {"beacon-1": beacon}, "m0")
    other = generate_keypair(Rng(74))
    authorities = (authority, other) if certified_first else (other, authority)
    pid = agent.deploy_policy(location_policy(w, *authorities))
    verdict = agent.verify_policy(pid, Rng(75).bytes(32))
    assert (verdict["compliant"], verdict["violations"]) == (True, [])


def test_verdict_crypto_budget(monkeypatch):
    """After its first verdict, a serving agent with a location rule signs
    and verifies at most twice per verdict: one beacon transcript and one
    quote.  Calls are counted wherever a module bound ``sign``/``verify``."""
    w, m, agent = serving_agent()
    net, beacon, authority = in_dc_beacon()
    agent.attach_network(net, {"beacon-1": beacon}, "m0")
    pid = agent.deploy_policy(location_policy(w, authority))
    nonces = Rng(67)
    assert agent.verify_policy(pid, nonces.bytes(32))["compliant"] is True

    calls = {"sign": 0, "verify": 0}
    for name in calls:
        original = getattr(crypto, name)

        def counting(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] == "attestsim" \
                    and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting)
    verdicts = 3
    for _ in range(verdicts):
        assert agent.verify_policy(pid, nonces.bytes(32))["compliant"] is True
    assert 0 < calls["sign"] <= 2 * verdicts
    assert 0 < calls["verify"] <= 2 * verdicts


def test_certificates_decided_once_per_policy_and_serving_period(monkeypatch):
    """The EK chain is decided once per (policy, enter_runtime), a rule's
    beacon once per (policy, rule) until the network is attached again."""
    w, m, agent = serving_agent()
    net, beacon, authority = in_dc_beacon()
    agent.attach_network(net, {"beacon-1": beacon}, "m0")
    foreign_ca = generate_keypair(Rng(68))
    trusted = agent.deploy_policy(location_policy(w, authority))
    foreign = agent.deploy_policy(location_policy(w, authority, tpm_ca=foreign_ca))
    decided = []

    def recording(cert, roots, role):
        decided.append(role)
        return crypto.certificate_valid(cert, roots, role)

    monkeypatch.setattr("attestsim.policy.certificate_valid", recording)
    monkeypatch.setattr("attestsim.netsim.certificate_valid", recording)
    nonces = Rng(69)

    def verdicts(rounds):
        kinds = []
        for _ in range(rounds):
            for pid in (trusted, foreign):
                verdict = agent.verify_policy(pid, nonces.bytes(32))
                kinds.append([v["kind"] for v in verdict["violations"]])
        assert kinds == [[], ["tpm-cert"]] * rounds

    verdicts(3)
    assert sorted(decided) == ["beacon", "beacon", "tpm-ek", "tpm-ek"]
    decided.clear()
    agent.attach_network(net, {"beacon-1": beacon}, "m0")
    verdicts(2)
    assert decided == ["beacon", "beacon"]
    decided.clear()
    assert agent.enter_runtime().trusted
    verdicts(2)
    assert sorted(decided) == ["beacon", "beacon", "tpm-ek", "tpm-ek"]


def test_beacon_attached_anew_is_certified_anew():
    """A beacon certified by an authority the rule does not trust, attached
    after a trusted one, is not measured: the earlier decision is gone."""
    w, m, agent = serving_agent()
    net, beacon, authority = in_dc_beacon()
    agent.attach_network(net, {"beacon-1": beacon}, "m0")
    pid = agent.deploy_policy(location_policy(w, authority))
    assert agent.verify_policy(pid, Rng(70).bytes(32))["compliant"] is True
    net, rogue, _ = in_dc_beacon(seed=72)
    agent.attach_network(net, {"beacon-1": rogue}, "m0")
    verdict = agent.verify_policy(pid, Rng(73).bytes(32))
    assert verdict["violations"] == [
        {"kind": "location", "detail": "beacon-1: unreachable"}]


def test_api_error_paths():
    w, m, agent = serving_agent()
    api = AgentApi(agent)
    assert api.handle("POST", "/policy", "chain: [not a policy").status == 400
    assert api.handle("POST", "/policy", "{bogus: true}").status == 400
    nonce = Rng(64).bytes(32).hex()
    assert api.handle("GET", f"/policy/{'00' * 16}?nonce={nonce}").status == 404
    pid = api.handle("POST", "/policy", golden_policy(w)).body["policy_id"]
    assert api.handle("GET", f"/policy/{pid}?nonce=zz").status == 400
    assert api.handle("GET", f"/policy/{pid}?nonce=aabb").status == 400
    assert api.handle("GET", "/nothing").status == 404
    assert api.handle("GET", "http://[::1").status == 400  # unclosed IPv6 host
    health = api.handle("GET", "/health")
    assert health.status == 200 and health.body["status"] == "ok"


# "{pid}" stands for the deployed policy's id
API_PATHS = st.one_of(
    st.text(max_size=40),
    st.sampled_from(["/health", "/policy", "/policy/", "//health//", "/policy/{pid}",
                     "/policy/{pid}/x", "http://[::1", "/health?nonce=00"]),
    st.builds("/policy/{}?{}={}".format,
              st.sampled_from(["{pid}", "00" * 16]) | st.text(max_size=20),
              st.sampled_from(["nonce", "nonce=1&nonce", "x"]),
              st.text("0123456789abcdefABCDEF%&=+ ", max_size=70)),
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(method=st.sampled_from(["GET", "POST", "PUT", "get"]) | st.text(max_size=8),
       path=API_PATHS,
       body=st.text(max_size=80) | st.integers(0, 3000))
def test_api_answers_every_request_below_500(method, path, body):
    """An integer ``body`` cuts the deployed policy's text at that length."""
    w, m, agent = serving_agent()
    api, policy = AgentApi(agent), golden_policy(w)
    pid = api.handle("POST", "/policy", policy).body["policy_id"]
    if isinstance(body, int):
        body = policy[:body]
    assert api.handle(method, path.replace("{pid}", pid), body).status < 500


def test_agent_not_serving_before_runtime():
    w = World()
    (m,) = w.machines
    agent = w.agent_for(m)
    w.boot(m, init_hook=agent.initialization_hook)
    api = AgentApi(agent)
    assert api.handle("POST", "/policy", golden_policy(w)).status == 403
    # not serving is named before an unknown policy id
    nonce = Rng(65).bytes(32).hex()
    assert api.handle("GET", f"/policy/{'00' * 16}?nonce={nonce}").status == 403
    assert api.handle("GET", "/health").body["status"] == "not-serving"
