"""Scenario runner: the shipped scripts, determinism, schema validation."""

import hashlib
import json
import os
import subprocess
import sys
import textwrap
from dataclasses import asdict, replace
from pathlib import Path

import pytest
import yaml

from attestsim import agent as agent_module
from attestsim import ima, scenario
from attestsim.cli import main
from attestsim.crypto import ZERO_DIGEST, Rng, generate_keypair, sha256
from attestsim.policy import SoftwareList, parse_policy, render_policy
from attestsim.scenario import Fleet, ScenarioError, execute_scenario, run_scenario
from attestsim.tpm import extend_digest

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def run(name, seed=0):
    return run_scenario(str(SCENARIOS / f"{name}.yaml"), seed)


def run_doc(doc, seed):
    return execute_scenario(doc, seed)[0]


def report_bytes(result):
    """The report as ``attestsim run --out`` writes it."""
    return json.dumps(asdict(result), sort_keys=True, separators=(",", ":"))


# --------------------------------------------------------------------------
# the shipped condition matrix
# --------------------------------------------------------------------------


def test_honest_scenario_is_fully_compliant():
    result = run("honest")
    assert result.verdicts["m0"]["trusted"] is True
    assert result.alerts == []
    assert result.all_compliant
    events = [e["event"] for e in result.timelines["m0"]]
    assert events[:4] == ["boot", "establish", "deploy-policy", "verify"]
    verify = result.timelines["m0"][3]
    assert verify["verdict"]["compliant"] is True


@pytest.mark.parametrize("name,machine,condition", [
    ("wrong-machine-unseal", "m1", "c1-unseal"),
    ("tampered-kernel", "m0", "c2-dynamic-pcr"),
    ("runtime-relay", "m0", "c3-obfuscated-static-pcr"),
    ("reboot-attack", "m0", "c4-reboot-counter"),
])
def test_each_attack_scenario_names_its_condition(name, machine, condition):
    result = run(name)
    verdict = result.verdicts[machine]
    assert verdict["trusted"] is False
    assert verdict["failed_condition"] == condition
    assert not result.all_compliant
    # no other machine fails with a different condition
    for other, v in result.verdicts.items():
        if other != machine and "failed_condition" in v:
            assert v["failed_condition"] in (None, condition)


def test_reboot_attack_alert_lands_within_one_poll_period():
    result = run("reboot-attack")
    violations = [a for a in result.alerts if a.kind == "violation"]
    assert len(violations) == 1
    establish = next(
        e for e in result.timelines["m0"] if e["event"] == "establish"
    )
    assert violations[0].timestamp_ms <= establish["t_ms"] + 1000.0


def test_runtime_relay_embeds_the_symbolic_counterpart():
    result = run("runtime-relay")
    assert result.explorer is not None
    assert result.explorer["variant"] == "plain"
    assert result.explorer["property_holds"] is False


# --------------------------------------------------------------------------
# determinism
# --------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["honest", "reboot-attack"])
def test_reports_are_byte_identical_for_a_seed(name):
    assert report_bytes(run(name, seed=5)) == report_bytes(run(name, seed=5))


def test_reports_differ_across_seeds():
    assert report_bytes(run("honest", seed=5)) != report_bytes(run("honest", seed=6))


# --------------------------------------------------------------------------
# script features beyond the shipped files
# --------------------------------------------------------------------------


def _one_machine_doc(**agent):
    return {
        "name": "inline",
        "machines": [{"id": "m0", "agent": agent or {}}],
        "policies": {"golden": "builtin:golden"},
        "script": [
            {"at": 0, "action": "boot", "machine": "m0"},
            {"at": 10, "action": "establish", "machine": "m0"},
            {"at": 20, "action": "deploy-policy", "machine": "m0",
             "policy": "golden"},
        ],
    }


def test_runtime_pcr_drift_is_caught_by_the_poll_loop():
    doc = _one_machine_doc()
    doc["script"].append(
        {"at": 1500, "action": "extend-pcr", "machine": "m0", "pcr": 0,
         "value": "malicious rewrite"}
    )
    doc["poll"] = {"period_ms": 1000, "rounds": 3, "targets": ["m0"]}
    result = run_doc(doc, seed=3)
    assert result.verdicts["m0"]["trusted"] is True  # establishment was clean
    assert result.verdicts["m0"]["compromised"] == "pcr-changed"
    kinds = [a.kind for a in result.alerts]
    assert kinds == ["violation"]
    assert result.alerts[0].timestamp_ms == 2000.0  # first poll after drift
    assert not result.all_compliant


def test_load_file_lands_in_the_timeline_and_stays_compliant():
    doc = _one_machine_doc()
    doc["script"].append(
        {"at": 30, "action": "load-file", "machine": "m0",
         "path": "/usr/bin/tool", "content": "tool-v1", "signed": False}
    )
    doc["script"].append(
        {"at": 1500, "action": "verify", "machine": "m0", "policy": "golden"}
    )
    result = run_doc(doc, seed=3)
    entry = next(e for e in result.timelines["m0"] if e["event"] == "load-file")
    assert entry["loaded"] is True
    verify = next(e for e in result.timelines["m0"] if e["event"] == "verify")
    assert verify["verdict"]["compliant"] is True  # golden policy has no
    # software rules, so an unknown binary only has to keep the log sound
    assert result.all_compliant


def _load_file_doc(seed):
    """Three loads under a policy that whitelists the unsigned tool and
    trusts the platform CA's signatures, so only the rogue file fails."""
    doc = _one_machine_doc()
    doc["script"] = doc["script"][:2] + [
        {"at": 20, "action": "load-file", "machine": "m0",
         "path": "/usr/bin/tool", "content": "tool-v1"},
        {"at": 25, "action": "load-file", "machine": "m0",
         "path": "/usr/bin/vendor", "content": "vendor-v2", "signed": True},
        {"at": 30, "action": "load-file", "machine": "m0",
         "path": "/tmp/dropper", "content": "evil"},
        {"at": 40, "action": "deploy-policy", "machine": "m0", "policy": "files"},
        {"at": 50, "action": "verify", "machine": "m0", "policy": "files"},
    ]
    doc["poll"] = {"period_ms": 1000, "rounds": 3, "targets": ["m0"]}
    fleet = Fleet(doc, seed)
    golden = parse_policy(fleet.policies["golden"])
    tool = SoftwareList("base-os", ((sha256(b"tool-v1"), "/usr/bin/tool"),))
    doc["policies"]["files"] = render_policy(replace(
        golden, runtime_cert=fleet.platform_ca.public, software=(tool,)))
    return doc


@pytest.mark.parametrize("seed,digest", [
    (0, "8fb9c1e99e7e174505139a0fe05df44a8900e1929b53a42657f426fd83c689fd"),
    (1, "0d19c9d01489740cf8faa940441896e5f6944cbbe82a560903d58da17c608e7d"),
])
def test_load_file_report_bytes_are_pinned(seed, digest):
    result = run_doc(_load_file_doc(seed), seed)
    verify = next(e for e in result.timelines["m0"] if e["event"] == "verify")
    assert verify["verdict"]["violations"] == [
        {"kind": "untrusted-file",
         "detail": "/tmp/dropper is neither whitelisted nor signed"}]
    assert [e["loaded"] for e in result.timelines["m0"]
            if e["event"] == "load-file"] == [True, True, True]
    assert hashlib.sha256(report_bytes(result).encode()).hexdigest() == digest


def test_the_poll_follows_the_newest_deployment():
    """golden -> strict -> golden: the poll judges under the last golden, so
    the unsigned /opt/x, which only strict refuses, raises no alert."""
    doc = _one_machine_doc()
    doc["script"] = doc["script"][:2] + [
        {"at": 20, "action": "load-file", "machine": "m0", "path": "/opt/x",
         "content": "x"},
        {"at": 30, "action": "deploy-policy", "machine": "m0", "policy": "golden"},
        {"at": 40, "action": "deploy-policy", "machine": "m0", "policy": "strict"},
        {"at": 50, "action": "deploy-policy", "machine": "m0", "policy": "golden"},
    ]
    doc["poll"] = {"period_ms": 1000, "rounds": 2, "targets": ["m0"]}
    golden = parse_policy(Fleet(doc, 4).policies["golden"])
    signs_nothing = generate_keypair(Rng(77)).public
    doc["policies"]["strict"] = render_policy(replace(golden, runtime_cert=signs_nothing))
    result, fleet, ctl = execute_scenario(doc, seed=4)
    assert result.alerts == []

    deployed = [e for e in result.timelines["m0"] if e["event"] == "deploy-policy"]
    assert [e["status"] for e in deployed] == [200, 200, 200]
    fleet.machines["m0"].tpm.pcr_extend(0, sha256(b"drift"))  # the next poll alerts
    (alert,) = ctl.poll_round(Rng(5))
    assert alert.policy_id == deployed[-1]["policy_id"]


def test_poll_schedule_is_built_lazily():
    """A million poll rounds cost no schedule of a million entries: the
    rounds are drawn as the clock reaches them.  The run gets a fresh
    interpreter and reads its own peak RSS from ``VmHWM``, since
    ``ru_maxrss`` keeps the spawning process's peak across exec and would
    read this test session's."""
    code = textwrap.dedent("""
        from attestsim.scenario import execute_scenario
        execute_scenario({"machines": [{"id": "m0"}],
                          "poll": {"period_ms": 1, "rounds": 1000000, "targets": []}})
        with open("/proc/self/status") as status:
            print(next(line.split()[1] for line in status if line.startswith("VmHWM:")))
    """)
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    peak_mb = int(proc.stdout) / 1024  # VmHWM is in kB
    assert peak_mb < 100, f"peak RSS {peak_mb:.1f} MB"


def test_a_fleet_parses_each_document_once(monkeypatch):
    """Every agent of a fleet looks a document up in the fleet's store before
    parsing it: one parse per distinct document and one shared Policy behind
    every id, while a document that fails to parse is never stored and is
    refused alike by each agent that receives it."""
    parses = []
    real_parse = agent_module.parse_policy

    def counting_parse(document):
        parses.append(document)
        return real_parse(document)

    monkeypatch.setattr(agent_module, "parse_policy", counting_parse)
    fleet = Fleet({"machines": [{"id": mid, "agent": {}} for mid in ("m0", "m1", "m2")],
                   "policies": {"golden": "builtin:golden"}}, seed=4)
    golden = fleet.policies["golden"]

    def deploy(mid, document):
        return fleet.api(mid).handle("POST", "/policy", document)

    # the serving check comes first: no parse for an agent that is not serving
    assert deploy("m0", golden).status == 403
    assert parses == []
    for index, mid in enumerate(fleet.agents):
        fleet.run(index, {"at": 0, "action": "boot", "machine": mid})
        fleet.run(index, {"at": 0, "action": "establish", "machine": mid})

    ids = {mid: deploy(mid, golden).body["policy_id"] for mid in fleet.agents}
    assert len(parses) == 1 and len(set(ids.values())) == 3
    shared = fleet.agents["m0"].policies[ids["m0"]]
    assert all(fleet.agents[mid].policies[ids[mid]] is shared for mid in fleet.agents)

    second = render_policy(replace(shared, software=(
        SoftwareList("tools", ((sha256(b"tool"), "/opt/tool"),)),)))
    assert deploy("m1", second).status == 200 and deploy("m2", second).status == 200
    assert len(parses) == 2
    assert fleet.agents["m1"].policies[deploy("m1", second).body["policy_id"]] \
        is fleet.parsed_policies[second]

    refusals = [deploy(mid, "whitelist: [") for mid in ("m0", "m2")]
    assert [r.status for r in refusals] == [400, 400]
    assert refusals[0].body == refusals[1].body
    assert list(fleet.parsed_policies) == [golden, second]
    assert deploy("m0", golden).status == 200 and len(parses) == 4


def test_copy_disk_gives_the_target_its_own_log():
    doc = {
        "name": "copy",
        "machines": [{"id": "m0"}, {"id": "m1"}],
        "script": [
            {"at": 0, "action": "boot", "machine": "m0"},
            {"at": 0, "action": "boot", "machine": "m1"},
            {"at": 10, "action": "load-file", "machine": "m0", "path": "/a",
             "content": "a"},
            {"at": 20, "action": "copy-disk", "from": "m0", "to": "m1"},
            {"at": 30, "action": "load-file", "machine": "m0", "path": "/b",
             "content": "b"},
            {"at": 40, "action": "load-file", "machine": "m1", "path": "/c",
             "content": "c"},
        ],
    }
    _, fleet, _ = execute_scenario(doc, seed=1)

    def line(path, content):
        return ima.file_event(path, content, None).encode_line() + b"\n"

    copied = line("/a", b"a")
    assert fleet.machines["m0"].disk["ima/log"] == copied + line("/b", b"b")
    assert fleet.machines["m1"].disk["ima/log"] == copied + line("/c", b"c")


def test_relay_null_restores_the_direct_channel():
    doc = {
        "name": "relay-roundtrip",
        "machines": [{"id": "m0", "agent": {}}, {"id": "m1"}],
        "script": [
            {"at": 0, "action": "boot", "machine": "m0"},
            {"at": 5, "action": "boot", "machine": "m1"},
            {"at": 10, "action": "relay", "machine": "m0", "target": "m1"},
            {"at": 15, "action": "relay", "machine": "m0", "target": None},
            {"at": 20, "action": "establish", "machine": "m0"},
        ],
    }
    result = run_doc(doc, seed=1)
    assert result.verdicts["m0"]["trusted"] is True


def test_establish_on_a_halted_machine_reports_cleanly():
    doc = {
        "name": "halted",
        "machines": [{"id": "m0", "agent": {}}],
        "script": [{"at": 0, "action": "establish", "machine": "m0"}],
    }
    result = run_doc(doc, seed=1)
    assert result.verdicts["m0"]["trusted"] is False
    assert "runtime" in result.verdicts["m0"]["detail"]


def test_failed_relay_reestablishment_ends_serving():
    """The second establishment runs over a relay to m1 and fails c3; the
    session the first one started must not keep answering."""
    doc = _one_machine_doc()
    doc["machines"].append({"id": "m1"})
    doc["script"] = [
        {"at": 0, "action": "boot", "machine": "m0"},
        {"at": 5, "action": "boot", "machine": "m1"},
        {"at": 10, "action": "establish", "machine": "m0"},
        {"at": 20, "action": "deploy-policy", "machine": "m0", "policy": "golden"},
        {"at": 30, "action": "relay", "machine": "m0", "target": "m1"},
        {"at": 40, "action": "establish", "machine": "m0"},
        {"at": 60, "action": "verify", "machine": "m0", "policy": "golden"},
    ]
    doc["poll"] = {"period_ms": 1000, "rounds": 2, "targets": ["m0"]}
    result = run_doc(doc, seed=0)
    timeline = result.timelines["m0"]
    assert [(e["trusted"], e["failed_condition"]) for e in timeline
            if e["event"] == "establish"] == [(True, None),
                                              (False, "c3-obfuscated-static-pcr")]
    assert timeline[-1]["status"] == 403
    assert timeline[-1]["verdict"] == {"error": "agent is not serving"}
    assert [(a.kind, a.timestamp_ms) for a in result.alerts] == [("violation", 1000.0)]


def test_relay_under_a_serving_agent_is_caught_at_its_next_round(tmp_path, capsys):
    """A relay step means the same after trust as before it: the next round
    quotes over the relay to golden m1, fails the key binding and latches
    ``pcr-changed``, which handing the driver back does not clear."""
    doc = _one_machine_doc()
    doc["machines"].append({"id": "m1"})
    doc["script"] = [
        {"at": 0, "action": "boot", "machine": "m0"},
        {"at": 5, "action": "boot", "machine": "m1"},
        {"at": 10, "action": "establish", "machine": "m0"},
        {"at": 20, "action": "deploy-policy", "machine": "m0", "policy": "golden"},
        {"at": 30, "action": "relay", "machine": "m0", "target": "m1"},
        {"at": 40, "action": "verify", "machine": "m0", "policy": "golden"},
        {"at": 1500, "action": "relay", "machine": "m0", "target": None},
        {"at": 1600, "action": "verify", "machine": "m0", "policy": "golden"},
    ]
    doc["poll"] = {"period_ms": 1000, "rounds": 3, "targets": ["m0"]}
    result = run_doc(doc, seed=0)
    verifies = [e for e in result.timelines["m0"] if e["event"] == "verify"]
    assert [(e["status"], e["verdict"]) for e in verifies] == [
        (403, {"error": "pcr-changed"})] * 2
    assert [(a.kind, a.timestamp_ms) for a in result.alerts] == [("violation", 1000.0)]
    assert result.verdicts["m0"]["trusted"] is True
    assert result.verdicts["m0"]["compromised"] == "pcr-changed"

    path = tmp_path / "relay-after-trust.yaml"
    path.write_text(yaml.safe_dump(doc))
    assert main(["run", str(path), "--seed", "0"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("obfuscate,trusted,halted,code", [
    pytest.param(False, True, None, 0, id="plain"),
    pytest.param(True, False,
                 "init-hook: obfuscation-mismatch: pcr 0 did not take the obfuscation extend",
                 2, id="obfuscated"),
])
def test_relay_before_boot_is_the_cuckoo(tmp_path, capsys, obfuscate, trusted, halted, code):
    """m0's driver relays to golden, agentless m1 before m0 boots an evil
    initramfs: the model's ``boot, boot, q0(m1, t0), seal, verify``
    counterexample.  A plain agent seals m1's golden values and comes out
    trusted; a masking agent sees the extend dropped and halts the boot."""
    doc = {
        "name": "relay-before-boot",
        "images": {"initramfs-evil": "initramfs-evil-1.0"},
        "machines": [{"id": "m0", "agent": {"obfuscate": obfuscate}}, {"id": "m1"}],
        "script": [
            {"at": 0, "action": "boot", "machine": "m1"},
            {"at": 5, "action": "relay", "machine": "m0", "target": "m1"},
            {"at": 10, "action": "boot", "machine": "m0", "initramfs": "initramfs-evil"},
            {"at": 30, "action": "establish", "machine": "m0"},
        ],
    }
    result = run_doc(doc, seed=0)
    boot_event = next(e for e in result.timelines["m0"] if e["event"] == "boot")
    assert (boot_event["halted"], boot_event["reason"]) == (halted is not None, halted)
    assert result.verdicts["m0"]["trusted"] is trusted

    path = tmp_path / "relay-before-boot.yaml"
    path.write_text(yaml.safe_dump(doc))
    assert main(["run", str(path), "--seed", "0"]) == code
    capsys.readouterr()


def test_failed_reboot_reestablishment_stops_health_reporting_ok():
    """After a reboot without the agent hook the second establishment fails
    c4; a controller polling health alone must see the agent stop serving."""
    doc = {
        "name": "re-establish-after-reboot",
        "machines": [{"id": "m0", "agent": {"obfuscate": False}}],
        "script": [
            {"at": 0, "action": "boot", "machine": "m0"},
            {"at": 10, "action": "establish", "machine": "m0"},
            {"at": 100, "action": "reboot", "machine": "m0"},
            {"at": 200, "action": "boot", "machine": "m0", "hook": False},
            {"at": 300, "action": "establish", "machine": "m0"},
        ],
        "poll": {"period_ms": 1000, "rounds": 2, "targets": ["m0"]},
    }
    result, fleet, _ = execute_scenario(doc, seed=0)
    assert result.verdicts["m0"]["failed_condition"] == "c4-reboot-counter"
    assert fleet.apis["m0"].handle("GET", "/health").body["status"] == "not-serving"
    assert [(a.kind, a.timestamp_ms) for a in result.alerts] == [("violation", 1000.0)]


@pytest.mark.parametrize("after_reboot", [
    [],
    [{"at": 200, "action": "boot", "machine": "m0", "hook": False}],
])
def test_reboot_under_a_serving_agent_latches_rebooted(after_reboot):
    """A session lives within one power cycle: a reboot, with or without a
    boot after it, latches ``rebooted`` and health-only polls alert."""
    doc = {
        "name": "reboot-under-serving-agent",
        "machines": [{"id": "m0", "agent": {}}],
        "script": [
            {"at": 0, "action": "boot", "machine": "m0"},
            {"at": 10, "action": "establish", "machine": "m0"},
            {"at": 100, "action": "reboot", "machine": "m0"},
            *after_reboot,
        ],
        "poll": {"period_ms": 1000, "rounds": 3, "targets": ["m0"]},
    }
    result, fleet, _ = execute_scenario(doc, seed=0)
    assert result.verdicts["m0"] == {"trusted": True, "failed_condition": None,
                                     "detail": "", "compromised": "rebooted"}
    health = fleet.apis["m0"].handle("GET", "/health").body
    assert (health["status"], health["compromised"]) == ("compromised", "rebooted")
    assert [(a.kind, a.timestamp_ms) for a in result.alerts] == [("violation", 1000.0)]
    assert not result.all_compliant


# --------------------------------------------------------------------------
# validation
# --------------------------------------------------------------------------


@pytest.mark.parametrize("mutate,message", [
    (lambda d: d.update(machines=[]), "no machines"),
    (lambda d: d["script"].append({"at": 99, "action": "warp"}), "unknown action"),
    (lambda d: d["script"].append({"action": "boot", "machine": "m0"}), "'at'"),
    (lambda d: d["script"].append(
        {"at": 99, "action": "boot", "machine": "mX"}), "unknown machine"),
    (lambda d: d["script"].append(
        {"at": 99, "action": "establish", "machine": "m1"}), "no agent"),
    (lambda d: d["script"].append(
        {"at": 99, "action": "verify", "machine": "m0", "policy": "ghost"}),
     "never deployed"),
    (lambda d: d.update(images={"kernel": "shadow"}), "shadows"),
    (lambda d: d.update(
        machines=d["machines"] + [{"id": "m0"}]), "duplicate"),
    (lambda d: d.update(poll={"period_ms": 0, "rounds": 1}), "positive"),
    (lambda d: d.update(poll={"rounds": 1, "targets": ["m1"]}), "no agent"),
    (lambda d: d.update(network={"links": [], "adversary": {"added_delay_ms": -5}}),
     "network adversary: added_delay_ms must not be negative, not -5"),
    (lambda d: d["machines"][0]["agent"].update(static_whitelist=[]),
     "unknown key 'static_whitelist'"),
    (lambda d: d.update(modelcheck={"variant": "plain", "machines": 0, "tpms": 2}),
     "scenario.modelcheck: machines must be >= 1"),
    (lambda d: d.update(modelcheck={"machines": 3, "tpms": 2}),
     "scenario.modelcheck: tpms must cover every machine"),
])
def test_scenario_validation_errors(mutate, message):
    _assert_rejected(mutate, message)


def _on_unknown_machine(action, **fields):
    step = {"at": 0, "action": action, "machine": "mX", **fields}
    return pytest.param(
        lambda d: d.update(policies={"g": "builtin:golden"}, script=[step]),
        "unknown machine 'mX'", id=f"{action}-on-unknown-machine")


@pytest.mark.parametrize("mutate,message", [
    pytest.param(lambda d: d["script"].append({"at": 99}), "unknown action",
                 id="step-without-action"),
    pytest.param(lambda d: d.update(policies={"g": "builtin:golden"}, script=[
        {"at": 0, "action": "deploy-policy", "machine": "m1", "policy": "g"}]),
        "no agent", id="deploy-policy-without-agent"),
    pytest.param(lambda d: d["script"].append({"at": -10, "action": "boot", "machine": "m1"}),
                 r"scenario.script\[1\]: at must not be negative, not -10", id="negative-at"),
    _on_unknown_machine("establish"),
    _on_unknown_machine("deploy-policy", policy="g"),
    _on_unknown_machine("verify", policy="g"),
    _on_unknown_machine("relay", target="m1"),
    pytest.param(lambda d: d.update(poll={"rounds": 1, "targets": ["mX"]}),
                 "unknown machine 'mX'", id="poll-target-unknown-machine"),
])
def test_scenario_step_validation_errors(mutate, message):
    _assert_rejected(mutate, message)


@pytest.mark.parametrize("endpoint", [
    pytest.param("beacon-1", id="repeated"),
    pytest.param("controller", id="controller"),
    pytest.param("agent-m0", id="agent-endpoint"),
    pytest.param("agent-m1", id="agentless-machine-endpoint"),
])
def test_beacon_endpoint_already_in_use_is_refused(endpoint):
    """Placing a beacon where another endpoint sits would silently move that
    endpoint, a machine's agent to another data centre for one."""
    beacons = [{"endpoint": "beacon-1", "dc": "dc1"}, {"endpoint": endpoint, "dc": "dc2"}]
    _assert_rejected(lambda d: d.update(network={"links": []}, beacons=beacons),
                     f"beacon endpoint '{endpoint}' is already in use")


@pytest.mark.parametrize("step,message", [
    pytest.param({"at": 5, "action": "load-file", "machine": "m1", "path": "/x"},
                 r"script\[1\] load-file: files load only at OS runtime",
                 id="load-file-before-boot"),
    pytest.param({"at": 5, "action": "boot", "machine": "m0"},
                 r"script\[1\] boot: machine is already powered", id="boot-when-powered"),
    pytest.param({"at": 5, "action": "load-file", "machine": "m0", "path": "/a b"},
                 r"script\[1\] load-file: paths with whitespace", id="path-with-a-space"),
    pytest.param({"at": 5, "action": "extend-pcr", "machine": "m0", "pcr": 99},
                 r"script\[1\] extend-pcr: pcr 99 does not exist", id="pcr-that-does-not-exist"),
    pytest.param({"at": 5, "action": "extend-pcr", "machine": "m0", "pcr": 17},
                 r"script\[1\] extend-pcr: dynamic pcr 17 extend needs locality >= 2",
                 id="dynamic-pcr-at-os-runtime"),
    pytest.param({"at": 5, "action": "extend-pcr", "machine": "m1", "pcr": 0},
                 r"script\[1\] extend-pcr: pcr extends run only at OS runtime",
                 id="extend-pcr-before-boot"),
])
def test_script_state_errors_name_the_step(step, message):
    _assert_rejected(lambda d: d["script"].append(step), message)


def test_machine_level_kernel_is_an_unknown_key():
    doc = {
        "images": {"kernel-rootkit": "kernel-5.15-rootkit"},
        "machines": [{"id": "m0", "agent": {}, "kernel": "kernel-rootkit"}],
        "script": [{"at": 0, "action": "boot", "machine": "m0"},
                   {"at": 10, "action": "establish", "machine": "m0"}],
    }
    with pytest.raises(ScenarioError, match=r"machines\[0\]: unknown key 'kernel'"):
        run_doc(doc, seed=0)


def test_docstring_example_has_the_declared_shape():
    block = scenario.__doc__.split("::\n", 1)[1].split("\n\n", 1)[0]
    example = yaml.safe_load(textwrap.dedent(block))
    scenario.validate(example)
    assert set(example) == set(scenario.SCENARIO)
    assert {step["action"] for step in example["script"]} == set(scenario.STEPS)


def _assert_rejected(mutate, message):
    doc = {
        "name": "bad",
        "machines": [{"id": "m0", "agent": {}}, {"id": "m1"}],
        "script": [{"at": 0, "action": "boot", "machine": "m0"}],
    }
    mutate(doc)
    with pytest.raises(ScenarioError, match=message):
        run_doc(doc, seed=0)


def test_missing_file_and_bad_yaml_raise(tmp_path):
    with pytest.raises(ScenarioError):
        run_scenario(str(tmp_path / "nope.yaml"), 0)
    bad = tmp_path / "bad.yaml"
    bad.write_text("- just\n- a\n- list\n")
    with pytest.raises(ScenarioError, match="mapping"):
        run_scenario(str(bad), 0)


# --------------------------------------------------------------------------
# fleet construction details
# --------------------------------------------------------------------------


def test_network_and_beacons_are_placed():
    doc = {
        "name": "net",
        "machines": [{"id": "m0", "dc": "dc2", "agent": {}}],
        "network": {
            "links": [
                {"between": ["dc1", "dc2"], "base_ms": 5.0, "jitter_ms": 0.5},
                {"between": ["dc2", "dc2"], "base_ms": 0.3, "jitter_ms": 0.2},
            ],
            "adversary": {"added_delay_ms": 1.0},
        },
        "beacons": [{"endpoint": "beacon-dc2", "dc": "dc2"}],
    }
    fleet = Fleet(doc, seed=2)
    assert fleet.net is not None
    assert fleet.net.dc_of("agent-m0") == "dc2"
    assert fleet.net.dc_of("beacon-dc2") == "dc2"
    assert fleet.net.adversary.added_delay_ms == 1.0
    assert fleet.agents["m0"].network is not None
    assert "beacon-dc2" in fleet.agents["m0"].network.beacons


def test_golden_policy_covers_static_and_dynamic_banks():
    import yaml

    fleet = Fleet(
        {"name": "p", "machines": [{"id": "m0", "agent": {}}],
         "policies": {"g": "builtin:golden"}},
        seed=4,
    )
    doc = yaml.safe_load(fleet.policies["g"])
    ids = sorted(e["id"] for e in doc["whitelist"]["pcrs"])
    assert ids == [0, 17, 18, 19]
    uefi = next(e for e in doc["whitelist"]["pcrs"] if e["id"] == 0)
    assert uefi["sha256"] == fleet.golden_static.hex()


# --------------------------------------------------------------------------
# synthetic logs
# --------------------------------------------------------------------------


def test_generated_log_is_deterministic_and_sound():
    log1, agg1 = ima.render_fixture_log(ima.generate_boot_manifest(11, 40))
    log2, agg2 = ima.render_fixture_log(ima.generate_boot_manifest(11, 40))
    assert log1 == log2 and agg1 == agg2
    log3, _ = ima.render_fixture_log(ima.generate_boot_manifest(12, 40))
    assert log3 != log1

    lines = [l for l in log1.split(b"\n") if l]
    assert len(lines) == 40
    running = ZERO_DIGEST
    for raw in lines:
        event = ima.parse_line(raw)
        running = extend_digest(running, event.template_hash)
    assert running == agg1
