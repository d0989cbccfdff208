"""Measured boot, enclave sealing, TPM channels."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attestsim.crypto import ONES_DIGEST, ZERO_DIGEST, Rng, generate_keypair, seal, sha256, sign, unseal, UnsealError
from attestsim.agent import Agent
from attestsim.machine import (
    InitHookFailure,
    Machine,
    RelayTpmChannel,
    SoftwareImage,
    boot,
    reboot_machine,
    run_enclave,
)
from attestsim.modelcheck import world as model
from attestsim.tpm import LocalityViolation, TpmError, TpmState


def build_world(seed=1, n_machines=1):
    rng = Rng(seed)
    platform_ca = generate_keypair(rng.child("platform-ca"))
    tpm_ca = generate_keypair(rng.child("tpm-ca"))

    def signed(name, content):
        return SoftwareImage(name, content, sign(content, platform_ca))

    images = {
        "uefi": signed("uefi", b"uefi-firmware-1.0"),
        "tboot": signed("tboot", b"drtm-loader-1.9"),
        "kernel": SoftwareImage("kernel", b"kernel-5.15-golden"),
        "initramfs": SoftwareImage("initramfs", b"initramfs-agent-1.0"),
    }
    machines = []
    for i in range(n_machines):
        mrng = rng.child(f"machine-{i}")
        tpm = TpmState(tpm_ca, mrng)
        machines.append(Machine(f"m{i}", tpm, platform_ca.public, mrng))
    return machines, images, platform_ca, tpm_ca, rng


def chain(start, values):
    acc = start
    for v in values:
        acc = sha256(acc + v)
    return acc


# --------------------------------------------------------------------------
# boot pipeline
# --------------------------------------------------------------------------

def test_golden_boot_produces_expected_pcr_chain():
    (m,), img, *_ = build_world()
    out = boot(m, img["uefi"], img["tboot"], img["kernel"], img["initramfs"])
    assert not out.halted
    tpm = m.tpm
    # independent fold oracle for each register
    assert tpm.read_pcr(0) == chain(ZERO_DIGEST, [img["uefi"].measurement])
    assert tpm.read_pcr(17) == chain(ZERO_DIGEST, [img["tboot"].measurement])
    assert tpm.read_pcr(18) == chain(ZERO_DIGEST, [img["kernel"].measurement])
    assert tpm.read_pcr(19) == chain(ZERO_DIGEST, [img["initramfs"].measurement])
    assert m.state == "runtime" and m.tpm.locality == 0


def test_unsigned_tboot_halts_before_any_dynamic_change():
    (m,), img, *_ = build_world()
    bad_tboot = SoftwareImage("tboot", img["tboot"].content, None)
    out = boot(m, img["uefi"], bad_tboot, img["kernel"], img["initramfs"])
    assert out.halted and out.reason == "uefi-signature-invalid"
    assert m.tpm.read_pcr(0) != ZERO_DIGEST        # firmware already measured
    assert m.tpm.read_pcr(17) == ONES_DIGEST       # dynamics untouched
    assert m.state == "off"


def test_wrong_signer_on_uefi_halts():
    (m,), img, *_ = build_world()
    rogue = generate_keypair(Rng(77))
    bad = SoftwareImage("uefi", img["uefi"].content, sign(img["uefi"].content, rogue))
    out = boot(m, bad, img["tboot"], img["kernel"], img["initramfs"])
    assert out.halted


def test_different_kernel_changes_only_pcr18():
    (a, b), img, *rest = build_world(n_machines=2)
    boot(a, img["uefi"], img["tboot"], img["kernel"], img["initramfs"])
    evil = SoftwareImage("kernel", b"kernel-5.15-rootkit")
    boot(b, img["uefi"], img["tboot"], evil, img["initramfs"])
    assert a.tpm.read_pcr(17) == b.tpm.read_pcr(17)
    assert a.tpm.read_pcr(18) != b.tpm.read_pcr(18)
    assert a.tpm.read_pcr(19) == b.tpm.read_pcr(19)


def test_init_hook_runs_at_locality_two_and_can_abort():
    (m,), img, *_ = build_world()
    seen = {}

    def hook(machine):
        seen["locality"] = machine.tpm.locality
        seen["state"] = machine.state

    boot(m, img["uefi"], img["tboot"], img["kernel"], img["initramfs"], init_hook=hook)
    assert seen == {"locality": 2, "state": "initramfs"}

    (m2,), img2, *_ = build_world(seed=2)

    def failing(machine):
        raise InitHookFailure("no trust")

    out = boot(m2, img2["uefi"], img2["tboot"], img2["kernel"], img2["initramfs"], init_hook=failing)
    assert out.halted and m2.state == "off"


def test_reboot_preserves_disk_but_resets_registers():
    (m,), img, *_ = build_world()
    boot(m, img["uefi"], img["tboot"], img["kernel"], img["initramfs"])
    m.disk["note"] = b"survives"
    reboot_machine(m)
    assert m.disk["note"] == b"survives"
    assert m.tpm.read_pcr(0) == ZERO_DIGEST
    assert m.state == "off"
    # and the machine can boot again
    out = boot(m, img["uefi"], img["tboot"], img["kernel"], img["initramfs"])
    assert not out.halted and m.tpm.reboot_counter == 1


def test_double_power_on_is_rejected():
    (m,), img, *_ = build_world()
    boot(m, img["uefi"], img["tboot"], img["kernel"], img["initramfs"])
    with pytest.raises(Exception):
        boot(m, img["uefi"], img["tboot"], img["kernel"], img["initramfs"])


@settings(max_examples=30)
@given(idx=st.sampled_from([17, 18, 19]), loc=st.sampled_from([0, 1]))
def test_dynamic_mutation_outside_boot_is_impossible(idx, loc):
    (m,), img, *_ = build_world(seed=9)
    boot(m, img["uefi"], img["tboot"], img["kernel"], img["initramfs"])
    m.tpm.locality = loc
    with pytest.raises(LocalityViolation):
        m.tpm.pcr_extend(idx, sha256(b"x"))


# --------------------------------------------------------------------------
# enclaves
# --------------------------------------------------------------------------

AGENT_BIN = SoftwareImage("agent", b"trust-agent-enclave-1.0")
OTHER_BIN = SoftwareImage("other", b"some-other-enclave")


def test_seal_key_binds_machine_and_binary():
    (a, b), img, *_ = build_world(n_machines=2)
    ctx_a1 = run_enclave(a, AGENT_BIN, "init")
    ctx_a2 = run_enclave(a, AGENT_BIN, "runtime")
    ctx_ao = run_enclave(a, OTHER_BIN, "runtime")
    ctx_b = run_enclave(b, AGENT_BIN, "runtime")
    assert ctx_a1.seal_key() == ctx_a2.seal_key()      # same binary, same machine
    assert ctx_a1.seal_key() != ctx_ao.seal_key()      # different binary
    assert ctx_a1.seal_key() != ctx_b.seal_key()       # different machine


def test_sealed_data_moves_between_phases_but_not_machines():
    (a, b), *_ = build_world(n_machines=2)
    blob = seal(b"cfg", run_enclave(a, AGENT_BIN, "init").seal_key())
    assert unseal(blob, run_enclave(a, AGENT_BIN, "runtime").seal_key()) == b"cfg"
    with pytest.raises(UnsealError):
        unseal(blob, run_enclave(b, AGENT_BIN, "runtime").seal_key())


# --------------------------------------------------------------------------
# channels
# --------------------------------------------------------------------------

def test_direct_channel_speaks_to_attached_tpm():
    (m,), img, *_ = build_world()
    boot(m, img["uefi"], img["tboot"], img["kernel"], img["initramfs"])
    ch = Agent(m, SoftwareImage("agent", b"agent-bin"), Rng(0), {}, {}).channel
    assert ch is m.tpm  # the honest driver's route
    rng = Rng(60)
    aik = ch.create_aik(rng)
    q = ch.quote(aik, rng.bytes(32), [0])
    assert q.verify_signature() and q.aik_pub == aik
    before = ch.read_pcr(5)
    ch.pcr_extend(5, sha256(b"v"))
    assert ch.read_pcr(5) == sha256(before + sha256(b"v"))


def golden_dynamics(img):
    return {pcr: chain(ZERO_DIGEST, [img[name].measurement])
            for pcr, name in ((17, "tboot"), (18, "kernel"), (19, "initramfs"))}


def _boot_golden(m, img):
    boot(m, img["uefi"], img["tboot"], img["kernel"], img["initramfs"])


def _boot_rootkit(m, img):
    boot(m, img["uefi"], img["tboot"], SoftwareImage("kernel", b"kernel-rootkit"),
         img["initramfs"])


def _halt_at_init(m, img):
    def failing(machine):
        raise InitHookFailure("no trust")

    boot(m, img["uefi"], img["tboot"], img["kernel"], img["initramfs"], init_hook=failing)


def _reboot(m, img):
    _boot_golden(m, img)
    reboot_machine(m)


def _model_host(phase, image=None):
    """The model's world with host m1 booted with ``image`` by the model's
    own boot step (so its TPM holds that stack's registers), then in
    ``phase``."""
    world = model.build_world(2, 2)
    if image is not None:
        world = model.World(model._boot(world, 1, image))
    machines = (world.machines[0], model.MachineProc(phase, world.machines[1].image))
    return model._pack(machines, world.tpms)


# host state -> (how the host gets there, relay serves reads, relay forwards
# extends, the model's world with the host in the matching phase).  A reboot
# has no model twin: an episode of the model is one power cycle.
RELAY_HOST_STATES = {
    "never-booted": (lambda m, img: None, False, False, _model_host("created")),
    "golden-runtime": (_boot_golden, True, False, _model_host("booted", "golden")),
    "rootkit-runtime": (_boot_rootkit, True, True,
                        _model_host("booted", "malicious-kernel")),
    "halted-at-init": (_halt_at_init, False, False, _model_host("halted", "golden")),
    "rebooted": (_reboot, False, False, None),
}


def _served(call):
    try:
        call()
    except TpmError:
        return False
    return True


@pytest.mark.parametrize("state", list(RELAY_HOST_STATES))
def test_relay_serves_only_a_running_host(state):
    prepare, reads, extends, twin = RELAY_HOST_STATES[state]
    (_, host), img, *_ = build_world(n_machines=2)
    prepare(host, img)
    rng = Rng(71)
    relay = RelayTpmChannel(host, golden_dynamics(img), rng.child("adv"))
    calls = [lambda: relay.read_pcr(0), lambda: relay.ek_cert,
             lambda: relay.quote(rng.bytes(32), rng.bytes(32), [0])]
    assert [_served(call) for call in calls] == [reads] * len(calls)

    before = host.tpm.read_pcr(0)
    assert _served(lambda: relay.pcr_extend(0, sha256(b"x"))) == reads
    assert (host.tpm.read_pcr(0) != before) == extends
    if extends:
        # the cooperating daemon runs at OS runtime, locality 0: dynamics stay sealed
        with pytest.raises(LocalityViolation):
            relay.pcr_extend(17, sha256(b"x"))

    if twin is not None:
        assert (1 in model._readable_tpms(twin.machines, twin.tpms, 0)) == reads
        assert model._host_accepts_extends(twin.machines, twin.tpms, 1) == extends


def test_relay_channel_serves_remote_quotes_under_remote_key():
    (local, remote), img, *_ = build_world(n_machines=2)
    boot(local, img["uefi"], img["tboot"], img["kernel"], img["initramfs"])
    boot(remote, img["uefi"], img["tboot"], img["kernel"], img["initramfs"])
    rng = Rng(70)
    relay = RelayTpmChannel(remote, golden_dynamics(img), rng.child("adv"))

    # agent asks for a quote under a key the remote never saw: the relay
    # answers with the remote TPM's own resident AIK
    foreign_aik = rng.bytes(32)
    q = relay.quote(foreign_aik, rng.bytes(32), [0])
    assert q.aik_pub != foreign_aik
    assert q.verify_signature()
    assert q.aik_pub in remote.tpm.aiks

    # extends silently vanish against a golden remote
    before = remote.tpm.read_pcr(3)
    relay.pcr_extend(3, sha256(b"rnd"))
    assert remote.tpm.read_pcr(3) == before
