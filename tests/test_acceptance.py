"""End-to-end acceptance checks, one test per release criterion.

Run ``pytest tests/test_acceptance.py -v`` for a one-line-per-criterion
checklist.  Each test also prints an ``ACCEPTANCE n PASS`` summary that is
visible under ``-s`` (or in the captured output of a failing run).

The eight criteria:

1. the symbolic explorer finds the bridged-relay counterexample for the
   plain agent within bounds (2 machines, 2 TPMs, depth 5) in under 60 s;
2. with PCR obfuscation the same bounds are exhausted with no violation,
   and the verdict is byte-identical from run to run;
3. the vulnerability-window arithmetic reproduces the reference point
   (155 ms / 58 us / 100 ms / 40 us -> n = 3875, t_vw = 804.5 ms);
4. the shipped scenarios map each attack onto exactly one of the four
   establishment conditions, and the honest scenario stays compliant;
5. every single-bit flip in a 1800-event measurement log is tamper-evident,
   and chunked incremental reading equals a single pass;
6. beacon proximity accepts an in-rack peer and rejects every cell of a
   10x10 cross-DC relay grid (added delay x jitter) with zero false accepts;
7. a policy deployed over the agent API round-trips: stable verdicts,
   an unknown binary flags ``untrusted-file``, and extending the software
   whitelist restores compliance;
8. whole-scenario reports are byte-identical for a fixed seed.
"""

import json
import random
import re
import time
from dataclasses import asdict
from pathlib import Path

import pytest
import yaml

from attestsim import cli, ima
from attestsim.crypto import Rng, generate_keypair, issue_certificate
from attestsim.ima import ImaCacheState, TamperDetected
from attestsim.modelcheck.explore import CheckConfig, check
from attestsim.netsim import (
    AdversaryModel,
    BeaconService,
    LatencyModel,
    NetworkModel,
    VirtualClock,
    beacon_certified,
    measure_proximity,
)
from attestsim.policy import pem_encode
from attestsim.scenario import execute_scenario, run_scenario
from attestsim.tpm import extend_digest

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def scenario_path(name: str) -> str:
    return str(SCENARIOS / f"{name}.yaml")


def report_bytes(result) -> str:
    """The report as ``attestsim run --out`` writes it."""
    return json.dumps(asdict(result), sort_keys=True, separators=(",", ":"))


# --------------------------------------------------------------------------
# 1. plain-variant counterexample
# --------------------------------------------------------------------------


def test_criterion_1_plain_variant_finds_relay_counterexample(capsys):
    started = time.perf_counter()
    code = cli.main([
        "modelcheck", "--variant", "plain", "--machines", "2",
        "--tpms", "2", "--depth", "5", "--format", "json",
    ])
    elapsed = time.perf_counter() - started
    report = json.loads(capsys.readouterr().out)

    assert code == 2, "a violated property must exit 2"
    assert elapsed < 60.0, f"bounded search took {elapsed:.1f}s"
    assert report["property_holds"] is False

    cx = report["counterexample"]
    assert cx is not None and len(cx["steps"]) <= 5
    world = cx["world"]
    machine = world["violation"]["machine"]
    x, y = world["violation"]["x"], world["violation"]["y"]
    assert x != y, "quotes must come from a TPM other than the attached one"
    # the trusted machine runs a non-golden image on a non-golden TPM ...
    assert world["machines"][machine]["trusted"] is True
    assert world["machines"][machine]["image"] != "golden"
    attached = world["tpms"][y]
    assert not (attached["spcr_is_golden"] and attached["dpcr_is_golden"])
    # ... while the quote-serving TPM looks entirely golden
    assert world["spcr_is_golden"] is True and world["dpcr_is_golden"] is True

    print(f"ACCEPTANCE 1 PASS: plain (2,2,5) violated in {elapsed:.1f}s; "
          f"machine m{machine} trusted on t{x} quotes while attached to t{y}")


# --------------------------------------------------------------------------
# 2. obfuscated variant holds, deterministically
# --------------------------------------------------------------------------


def test_criterion_2_obfuscated_variant_holds_deterministically(capsys):
    code = cli.main([
        "modelcheck", "--variant", "obfuscated", "--machines", "2",
        "--tpms", "2", "--depth", "5", "--format", "json",
    ])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["property_holds"] is True
    assert report["counterexample"] is None

    cfg = CheckConfig(machines=2, tpms=2, derivation_depth=5, obfuscate=True)
    first = json.dumps(check(cfg).to_dict(), sort_keys=True, indent=2)
    assert json.dumps(check(cfg).to_dict(), sort_keys=True, indent=2) == first
    assert json.loads(first) == report

    print(f"ACCEPTANCE 2 PASS: obfuscated (2,2,5) holds over "
          f"{report['states_explored']} states; verdict byte-identical "
          f"across runs")


# --------------------------------------------------------------------------
# 3. vulnerability-window reference point
# --------------------------------------------------------------------------


def test_criterion_3_vulnerability_window_reference_point(capsys):
    code = cli.main([
        "vwindow", "--trq", "155ms", "--tre", "58us",
        "--tvp", "100ms", "--floor", "40us",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "n = 3875" in out
    assert "n*t_re = 224.75 ms" in out

    match = re.search(r"t_vw = ([0-9.]+) ms", out)
    assert match is not None, out
    t_vw_ms = float(match.group(1))
    assert abs(t_vw_ms - 804.5) < 1.0

    print(f"ACCEPTANCE 3 PASS: 155ms/58us/100ms/40us -> n=3875, "
          f"t_vw={t_vw_ms} ms (|err| < 1 ms)")


# --------------------------------------------------------------------------
# 4. the four establishment conditions, plus the honest baseline
# --------------------------------------------------------------------------


def test_criterion_4_attack_scenarios_cover_all_four_conditions():
    honest = run_scenario(scenario_path("honest"), seed=0)
    assert honest.all_compliant
    assert honest.verdicts["m0"]["trusted"] is True

    expected = {
        "wrong-machine-unseal": ("m1", "c1-unseal"),
        "tampered-kernel": ("m0", "c2-dynamic-pcr"),
        "runtime-relay": ("m0", "c3-obfuscated-static-pcr"),
        "reboot-attack": ("m0", "c4-reboot-counter"),
    }
    seen = {}
    for name, (machine, condition) in expected.items():
        result = run_scenario(scenario_path(name), seed=0)
        verdict = result.verdicts[machine]
        assert verdict["trusted"] is False, name
        assert verdict["failed_condition"] == condition, name
        seen[name] = condition
    assert sorted(seen.values()) == [
        "c1-unseal", "c2-dynamic-pcr",
        "c3-obfuscated-static-pcr", "c4-reboot-counter",
    ]

    print("ACCEPTANCE 4 PASS: honest trusted; "
          + "; ".join(f"{n} -> {c}" for n, c in sorted(seen.items())))


# --------------------------------------------------------------------------
# 5. measurement-log tamper evidence
# --------------------------------------------------------------------------


def test_criterion_5_every_bit_flip_in_the_log_is_detected():
    log, certified = ima.render_fixture_log(ima.generate_boot_manifest(1234, 1800))

    # clean one-pass read succeeds and yields all events
    events, cache = ima.read_new_events(log, ImaCacheState(), certified)
    assert len(events) == 1800
    assert cache.running_digest == certified

    mutator = random.Random(99)
    for trial in range(200):
        pos = mutator.randrange(len(log))
        bit = 1 << mutator.randrange(8)
        mutated = log[:pos] + bytes([log[pos] ^ bit]) + log[pos + 1:]
        with pytest.raises(TamperDetected):
            ima.read_new_events(mutated, ImaCacheState(), certified)

    # incremental chunked reading equals the single pass
    lines = log.split(b"\n")[:-1]
    offsets, running, aggregates = [], ima.ZERO_DIGEST, []
    consumed = 0
    for raw in lines:
        consumed += len(raw) + 1
        offsets.append(consumed)
        running = extend_digest(running, ima.parse_line(raw).template_hash)
        aggregates.append(running)
    assert aggregates[-1] == certified

    chunked, cache = [], ImaCacheState()
    for k in range(1, 6):
        upto = offsets[360 * k - 1]
        got, cache = ima.read_new_events(log[:upto], cache, aggregates[360 * k - 1])
        chunked.extend(got)
    assert [e.template_hash for e in chunked] == [e.template_hash for e in events]
    assert cache.running_digest == certified

    print("ACCEPTANCE 5 PASS: 1800-event log verified; 200/200 random "
          "bit flips raised TamperDetected; 5-chunk read == one pass")


# --------------------------------------------------------------------------
# 6. beacon proximity vs a cross-DC relay grid
# --------------------------------------------------------------------------


def test_criterion_6_relay_grid_never_passes_the_proximity_threshold():
    max_latency_ms = 2.0
    rng = Rng(2024)
    clock = VirtualClock()
    authority = generate_keypair(rng)

    def beacon(endpoint):
        kp = generate_keypair(rng)
        return BeaconService(endpoint, kp, issue_certificate(authority, kp.public, "beacon"), clock)

    near, far = beacon("beacon-near"), beacon("beacon-far")
    placement = {"agent": "dc1", "beacon-near": "dc1", "beacon-far": "dc2"}

    def network(jitter, adversary=None):
        links = {
            ("dc1", "dc1"): LatencyModel(0.3, 0.2),
            ("dc2", "dc2"): LatencyModel(0.3, 0.2),
            ("dc1", "dc2"): LatencyModel(5.0, jitter),
        }
        return NetworkModel(links, placement, adversary)

    assert beacon_certified(near, (authority.public,))
    assert beacon_certified(far, (authority.public,))
    honest = measure_proximity(network(1.0), rng, "agent", near)
    assert honest.trimmed_mean_ms <= max_latency_ms

    delays = [d * 0.5 for d in range(10)]
    jitters = [j * 0.5 for j in range(10)]
    false_accepts = 0
    for delay in delays:
        for jitter in jitters:
            adv = AdversaryModel(added_delay_ms=delay,
                                 relay_targets=("beacon-far",))
            est = measure_proximity(network(jitter, adv), rng, "agent", far)
            if est.trimmed_mean_ms <= max_latency_ms:
                false_accepts += 1
    assert false_accepts == 0

    print(f"ACCEPTANCE 6 PASS: honest estimate "
          f"{honest.trimmed_mean_ms:.2f} ms <= 2 ms; 100/100 relay cells "
          f"rejected (0 false accepts)")


# --------------------------------------------------------------------------
# 7. policy round trip and whitelist monotonicity
# --------------------------------------------------------------------------


def test_criterion_7_policy_roundtrip_over_the_agent_api():
    doc = {
        "name": "policy-roundtrip",
        "machines": [{"id": "m0", "dc": "dc1",
                      "agent": {"obfuscate": True}}],
        "script": [
            {"at": 0, "action": "boot", "machine": "m0"},
            {"at": 10, "action": "establish", "machine": "m0"},
        ],
    }
    result, fleet, _controller = execute_scenario(doc, seed=7)
    assert result.verdicts["m0"]["trusted"] is True
    api = fleet.apis["m0"]
    machine = fleet.machines["m0"]
    rng = Rng(515)
    loaded = []  # every event measured since boot

    def policy_text(extra_whitelist=()):
        known = {e.file_hash.hex(): e.path for e in loaded}
        known.update(extra_whitelist)
        entries = sorted({0: fleet.golden_static, **fleet.golden_dynamics}.items())
        return yaml.safe_dump({
            "chain": pem_encode(fleet.tpm_ca_pub),
            "whitelist": {"pcrs": [{"id": i, "sha256": v.hex()}
                                   for i, v in entries]},
            "runtime": {"software": [{"name": "base-os", "whitelist": known}]},
        }, sort_keys=False)

    def verify(policy_id):
        nonce = rng.bytes(32).hex()
        return api.handle("GET", f"/policy/{policy_id}?nonce={nonce}")

    deployed = api.handle("POST", "/policy", policy_text())
    assert deployed.status == 200
    policy_id = deployed.body["policy_id"]
    assert len(bytes.fromhex(policy_id)) == 16

    first, second = verify(policy_id), verify(policy_id)
    assert first.status == second.status == 200
    assert first.body == second.body
    assert first.body["compliant"] is True

    rogue = b"unsigned-diagnostic-tool-v1"
    loaded.append(machine.load_file("/opt/diag", rogue))
    flagged = verify(policy_id)
    assert flagged.status == 200
    assert flagged.body["compliant"] is False
    kinds = {v["kind"] for v in flagged.body["violations"]}
    assert kinds == {"untrusted-file"}
    assert any("/opt/diag" in v["detail"] for v in flagged.body["violations"])

    amended = api.handle(
        "POST", "/policy",
        policy_text(extra_whitelist={ima.sha256(rogue).hex(): "/opt/diag"}))
    assert amended.status == 200
    new_id = amended.body["policy_id"]
    assert new_id != policy_id
    restored = verify(new_id)
    assert restored.status == 200 and restored.body["compliant"] is True
    # the original, stricter policy still flags the same file
    assert verify(policy_id).body["compliant"] is False

    print("ACCEPTANCE 7 PASS: deploy -> stable verdicts -> untrusted-file "
          "on /opt/diag -> whitelist amendment restores compliance")


# --------------------------------------------------------------------------
# 8. determinism of whole-scenario reports
# --------------------------------------------------------------------------


def test_criterion_8_scenario_reports_are_deterministic(tmp_path):
    for name in ("honest", "runtime-relay"):
        path = scenario_path(name)
        first = report_bytes(run_scenario(path, seed=42))
        second = report_bytes(run_scenario(path, seed=42))
        assert first == second, f"{name}: same seed must give identical bytes"
        assert report_bytes(run_scenario(path, seed=43)) != first

    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (out_a, out_b):
        code = cli.main(["run", scenario_path("honest"),
                         "--seed", "42", "--out", str(out)])
        assert code == 0
    assert out_a.read_bytes() == out_b.read_bytes()

    print("ACCEPTANCE 8 PASS: honest and runtime-relay reports are "
          "byte-identical at seed 42 (library and CLI)")
