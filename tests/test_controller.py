"""Controller: window math, duration parsing, edge-triggered alerting."""

from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attestsim.agent import ApiResponse
from attestsim.controller import (
    Controller,
    ControllerError,
    format_duration_ms,
    parse_duration,
    vulnerability_window,
)
from attestsim.crypto import Rng, sha256
from attestsim.netsim import (
    AdversaryModel,
    LatencyModel,
    NetworkModel,
    VirtualClock,
)
from attestsim.scenario import execute_scenario
from attestsim.tpm import IMA_PCR

# --------------------------------------------------------------------------
# the window formula
# --------------------------------------------------------------------------


def window_oracle(trq: int, tre: int, tvp: int, floor: int) -> tuple:
    """Independent re-computation: count the events one by one."""
    n = 0
    remaining = trq
    while remaining >= floor:
        remaining -= floor
        n += 1
    total = trq
    for _ in range(2):
        total += n * tre + tvp
    return n, total


def test_reference_point():
    report = vulnerability_window(155_000, 58, 100_000, 40)
    assert report["n"] == 3875
    assert 3875 * 58 == 224_750  # 224.75 ms of log catch-up
    assert report["t_vw_us"] == 804_500  # 804.5 ms


def test_reference_point_matches_oracle():
    n, total = window_oracle(155_000, 58, 100_000, 40)
    assert (n, total) == (3875, 804_500)


def test_instantaneous_verifier_limit():
    assert vulnerability_window(155_000, 58, 0, 40)["t_vw_us"] == 604_500


def test_floor_equal_to_quote_time():
    # one file fits: window degenerates to t_rq + 2 (t_re + t_vp)
    report = vulnerability_window(500, 7, 30, 500)
    assert report["n"] == 1
    assert report["t_vw_us"] == 500 + 2 * (7 + 30)


@given(
    trq=st.integers(1, 1_000_000),
    tre=st.integers(1, 10_000),
    tvp=st.integers(0, 1_000_000),
    floor=st.integers(1, 10_000),
)
def test_window_equals_bruteforce_oracle(trq, tre, tvp, floor):
    report = vulnerability_window(trq, tre, tvp, floor)
    n, total = window_oracle(trq, tre, tvp, floor)
    assert report["n"] == n
    assert report["t_vw_us"] == total


@pytest.mark.parametrize("bad", [
    dict(t_rq_us=0, t_re_us=1, t_vp_us=1, file_open_floor_us=1),
    dict(t_rq_us=1, t_re_us=-3, t_vp_us=1, file_open_floor_us=1),
    dict(t_rq_us=1, t_re_us=1, t_vp_us=-1, file_open_floor_us=1),
    dict(t_rq_us=1, t_re_us=1, t_vp_us=1, file_open_floor_us=0),
])
def test_invalid_window_params(bad):
    with pytest.raises(ControllerError):
        vulnerability_window(**bad)


def test_report_carries_both_units():
    report = vulnerability_window(155_000, 58, 100_000, 40)
    assert report["n"] == 3875
    assert report["n_t_re_us"] == 224_750
    assert report["n_t_re_ms"] == pytest.approx(224.75)
    assert report["t_vw_ms"] == pytest.approx(804.5)


# --------------------------------------------------------------------------
# durations
# --------------------------------------------------------------------------


@pytest.mark.parametrize("text,expected", [
    ("155ms", 155_000),
    ("58us", 58),
    ("40µs", 40),
    ("2s", 2_000_000),
    ("0.5ms", 500),
    (" 1 ms ", 1_000),
    ("0.000001s", 1),
    ("9007199254740992us", 2 ** 53),
])
def test_parse_duration(text, expected):
    assert parse_duration(text) == expected


@pytest.mark.parametrize("text", ["155", "abcms", "", "0.0005ms", "ms",
                                  "9007199254740993us", "1e999ms", "-1e999ms", "infms"])
def test_parse_duration_rejects(text):
    with pytest.raises(ControllerError):
        parse_duration(text)


@pytest.mark.parametrize("text", ["nanms", "-NaN us", "snans"])
def test_parse_duration_says_nan_is_not_a_number(text):
    with pytest.raises(ControllerError, match="is not a number"):
        parse_duration(text)


def test_format_duration_strips_noise():
    assert format_duration_ms(224_750) == "224.75 ms"
    assert format_duration_ms(804_500) == "804.5 ms"
    assert format_duration_ms(1_000) == "1 ms"


# --------------------------------------------------------------------------
# alerting
# --------------------------------------------------------------------------


class ScriptedApi:
    """Serves a pre-programmed response per poll."""

    def __init__(self, responses):
        self.responses = list(responses)

    def handle(self, method, path, body=""):
        status, payload = self.responses.pop(0)
        return ApiResponse(status, payload)


OK = (200, {"compliant": True, "violations": []})
BAD = (200, {"compliant": False, "violations": [{"kind": "untrusted-file"}]})
GONE = (403, {"error": "rebooted"})


def make_controller(**kwargs):
    return Controller(clock=VirtualClock(), **kwargs)


def test_alerts_fire_only_on_transitions():
    ctl = make_controller()
    api = ScriptedApi([OK, OK, BAD, BAD, OK, OK])
    ctl.register("m0", api)
    ctl.set_policy("m0", "p1")
    rng = Rng(5)
    kinds = []
    for _ in range(6):
        kinds.extend(a.kind for a in ctl.poll_round(rng))
    assert kinds == ["violation", "recovered"]


def test_forbidden_counts_as_violation():
    ctl = make_controller()
    ctl.register("m0", ScriptedApi([OK, GONE, GONE]))
    ctl.set_policy("m0", "p1")
    rng = Rng(6)
    alerts = [a for _ in range(3) for a in ctl.poll_round(rng)]
    assert [a.kind for a in alerts] == ["violation"]
    assert alerts[0].verdict == {"error": "rebooted"}
    assert alerts[0].policy_id == "p1"


def test_health_polls_without_policy():
    responses = [
        (200, {"status": "ok"}),
        (200, {"status": "stale"}),      # degraded but not an alert
        (200, {"status": "compromised"}),
    ]
    ctl = make_controller()
    ctl.register("m0", ScriptedApi(responses))
    rng = Rng(7)
    alerts = [a for _ in range(3) for a in ctl.poll_round(rng)]
    assert [a.kind for a in alerts] == ["violation"]


def _dropping_net(drop: bool) -> NetworkModel:
    net = NetworkModel(
        {("dc1", "dc1"): LatencyModel(0.5, 0.1)},
        {"controller": "dc1", "agent-m0": "dc1"},
        AdversaryModel(can_drop=drop, relay_targets=("agent-m0",)) if drop else None,
    )
    return net


def test_unreachable_after_miss_threshold_then_recovered():
    net = _dropping_net(drop=True)
    ctl = make_controller(miss_threshold=3, net=net)
    ctl.register("m0", ScriptedApi([OK] * 10), endpoint="agent-m0")
    ctl.set_policy("m0", "p1")
    rng = Rng(8)

    assert ctl.poll_round(rng) == []  # miss 1
    assert ctl.poll_round(rng) == []  # miss 2
    third = ctl.poll_round(rng)       # miss 3 -> alert
    assert [a.kind for a in third] == ["unreachable"]
    assert ctl.poll_round(rng) == []  # still down: no repeat alert

    net.adversary = None              # the path heals
    recovered = ctl.poll_round(rng)
    assert [a.kind for a in recovered] == ["recovered"]


OBSERVATIONS = st.sampled_from(["ok", "violation", "miss"])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(rounds=st.lists(st.tuples(OBSERVATIONS, OBSERVATIONS), max_size=30),
       threshold=st.integers(1, 4))
def test_edge_rule_over_observation_sequences(rounds, threshold):
    """Per machine, over any ok/violation/miss sequence: no two alerts in a
    row share a kind, ``recovered`` follows only an alarm, and fewer than
    ``miss_threshold`` misses in a row raise nothing."""
    machines = ("m0", "m1")
    net = NetworkModel(
        {("dc1", "dc1"): LatencyModel(0.5, 0.1)},
        {"controller": "dc1", **{f"agent-{m}": "dc1" for m in machines}},
    )
    ctl = make_controller(miss_threshold=threshold, net=net)
    for i, mid in enumerate(machines):
        answers = [OK if r[i] == "ok" else BAD for r in rounds if r[i] != "miss"]
        ctl.register(mid, ScriptedApi(answers), endpoint=f"agent-{mid}")
        ctl.set_policy(mid, "p")
    rng = Rng(11)
    run = dict.fromkeys(machines, 0)  # misses in a row, this round included
    for observed in rounds:
        down = tuple(f"agent-{m}" for m, o in zip(machines, observed) if o == "miss")
        net.adversary = AdversaryModel(can_drop=True, relay_targets=down) if down else None
        raised = {a.machine for a in ctl.poll_round(rng)}
        for mid, o in zip(machines, observed):
            run[mid] = run[mid] + 1 if o == "miss" else 0
            if 0 < run[mid] < threshold:
                assert mid not in raised
    for mid in machines:
        kinds = [a.kind for a in ctl.alerts if a.machine == mid]
        assert all(a != b for a, b in zip(kinds, kinds[1:]))
        for before, kind in zip([None] + kinds, kinds):
            assert kind != "recovered" or before in ("violation", "unreachable")


def test_round_orders_alerts_by_machine_id():
    ctl = make_controller()
    ctl.register("m1", ScriptedApi([BAD]))
    ctl.register("m0", ScriptedApi([GONE]))
    for m in ("m0", "m1"):
        ctl.set_policy(m, "p")
    alerts = ctl.poll_round(Rng(9))
    assert [a.machine for a in alerts] == ["m0", "m1"]
    assert all(a.kind == "violation" for a in alerts)


def test_miss_threshold_validation():
    with pytest.raises(ControllerError):
        make_controller(miss_threshold=0)


def test_alert_serialization_roundtrip():
    ctl = make_controller()
    ctl.register("m0", ScriptedApi([BAD]))
    ctl.set_policy("m0", "p2")
    (alert,) = ctl.poll_round(Rng(10))
    d = asdict(alert)
    assert d["kind"] == "violation" and d["machine"] == "m0"
    assert d["policy_id"] == "p2"
    assert d["timestamp_ms"] == 0.0


def test_an_unparseable_log_line_latches_log_tampering_across_a_round():
    # an odd-length signature field is log tampering like any malformed
    # line: no exception may escape the agent's API and end the round
    _, fleet, ctl = execute_scenario({
        "name": "odd-signature",
        "machines": [{"id": "m0", "agent": {}}],
        "policies": {"golden": "builtin:golden"},
        "script": [
            {"at": 0, "action": "boot", "machine": "m0"},
            {"at": 10, "action": "establish", "machine": "m0"},
            {"at": 20, "action": "deploy-policy", "machine": "m0", "policy": "golden"},
        ],
    }, seed=1)  # the deploy step points the controller at golden
    assert ctl.poll_round(Rng(11)) == []

    machine = fleet.machines["m0"]
    t_hash = sha256(b"odd signature")
    machine.disk["ima/log"] += (b"10 " + t_hash.hex().encode() + b" ima-sig "
                                + sha256(b"x").hex().encode() + b" /x abc\n")
    machine.tpm.pcr_extend(IMA_PCR, t_hash)
    (alert,) = ctl.poll_round(Rng(12))
    assert alert.machine == "m0" and alert.kind == "violation"
    assert "log-tampered" in [v["kind"] for v in alert.verdict["violations"]]
    assert fleet.apis["m0"].handle("GET", "/health").body["status"] == "compromised"
