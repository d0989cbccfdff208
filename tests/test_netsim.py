"""Network, beacon and proximity-estimation tests."""

import hashlib
import struct
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from attestsim.crypto import Rng, generate_keypair, issue_certificate
from attestsim.netsim import (
    DEFAULT_SAMPLES,
    DEFAULT_TRIM,
    AdversaryModel,
    BeaconError,
    BeaconResponse,
    BeaconService,
    BeaconSignatureInvalid,
    BeaconUnreachable,
    LatencyModel,
    NetworkModel,
    VirtualClock,
    beacon_certified,
    measure_proximity,
    trimmed_mean,
)


def make_beacon(rng, clock, endpoint="beacon-1", authority=None):
    authority = authority or generate_keypair(rng)
    kp = generate_keypair(rng)
    cert = issue_certificate(authority, kp.public, "beacon")
    return BeaconService(endpoint, kp, cert, clock), authority


def two_dc_net(adversary=None, cross_base=5.0, cross_jitter=1.0):
    links = {
        ("dc-east", "dc-east"): LatencyModel(0.3, 0.2),
        ("dc-west", "dc-west"): LatencyModel(0.3, 0.2),
        ("dc-east", "dc-west"): LatencyModel(cross_base, cross_jitter),
    }
    placement = {"agent": "dc-east", "beacon-1": "dc-east", "beacon-2": "dc-west"}
    return NetworkModel(links, placement, adversary)


# --------------------------------------------------------------------------
# trimmed mean
# --------------------------------------------------------------------------


def test_trimmed_mean_frozen_oracle():
    # 4 samples, trim 0.25: one dropped per tail, mean of [2, 3].
    assert trimmed_mean([1.0, 2.0, 3.0, 100.0], 0.25) == pytest.approx(2.5)


def test_trimmed_mean_zero_trim_is_plain_mean():
    assert trimmed_mean([4.0, 8.0], 0.0) == pytest.approx(6.0)


def test_trimmed_mean_rejects_bad_inputs():
    with pytest.raises(ValueError):
        trimmed_mean([], 0.2)
    with pytest.raises(ValueError):
        trimmed_mean([1.0], 0.5)
    with pytest.raises(ValueError):
        trimmed_mean([1.0], -0.1)


@given(
    st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=5, max_size=40),
    st.floats(min_value=0.0, max_value=0.4),
)
def test_trimmed_mean_bounded_by_extremes(samples, trim):
    m = trimmed_mean(samples, trim)
    assert min(samples) - 1e-9 <= m <= max(samples) + 1e-9


def test_trimmed_mean_discards_outlier():
    samples = [1.0] * 16 + [500.0] * 4
    assert trimmed_mean(samples, 0.2) == pytest.approx(1.0)


# --------------------------------------------------------------------------
# clock and links
# --------------------------------------------------------------------------


def test_clock_is_monotone():
    clock = VirtualClock()
    clock.advance(5.0)
    assert clock.now_ms == 5.0
    with pytest.raises(ValueError):
        clock.advance(-1.0)


def test_latency_sample_within_jitter_band():
    rng = Rng(7)
    leg = NetworkModel({("a", "a"): LatencyModel(2.0, 0.5)}, {"x": "a", "y": "a"}).leg("x", "y")
    for _ in range(200):
        s = leg.ms(rng)
        assert 2.0 <= s <= 2.5


def test_link_lookup_is_order_insensitive():
    net = two_dc_net()
    net.place("roamer", "dc-west")
    assert net.link("agent", "roamer").base_ms == 5.0
    assert net.link("roamer", "agent").base_ms == 5.0
    with pytest.raises(BeaconUnreachable):
        net.leg("agent", "ghost")
    # a pair listed in both orientations takes the later entry either way
    net = NetworkModel({("dc-west", "dc-east"): LatencyModel(5.0),
                        ("dc-east", "dc-west"): LatencyModel(7.0)},
                       {"agent": "dc-east", "roamer": "dc-west", "ghost": "dc-north"})
    assert net.link("agent", "roamer").base_ms == 7.0
    assert net.link("roamer", "agent").base_ms == 7.0
    with pytest.raises(BeaconUnreachable, match="no route between dc-east and dc-north"):
        net.link("ghost", "agent")


# --------------------------------------------------------------------------
# proximity measurement
# --------------------------------------------------------------------------


def test_in_dc_estimate_passes_threshold():
    rng = Rng(11)
    clock = VirtualClock()
    beacon, _ = make_beacon(rng, clock)
    net = two_dc_net()
    est = measure_proximity(net, rng, "agent", beacon)
    # per-leg latency in [0.3, 0.5] so a round trip sits in [0.6, 1.0]
    assert len(est.samples_ms) == 20
    assert 0.6 <= est.trimmed_mean_ms <= 1.0
    assert est.trimmed_mean_ms <= 2.0


def test_cross_dc_estimate_always_fails_threshold():
    rng = Rng(12)
    clock = VirtualClock()
    beacon, _ = make_beacon(rng, clock, endpoint="beacon-2")
    net = two_dc_net()
    est = measure_proximity(net, rng, "agent", beacon)
    assert est.trimmed_mean_ms >= 10.0
    assert all(s >= 10.0 for s in est.samples_ms)


def test_samples_are_consecutive_timestamp_differences():
    rng = Rng(13)
    clock = VirtualClock()
    beacon, _ = make_beacon(rng, clock)
    net = two_dc_net()
    est = measure_proximity(net, rng, "agent", beacon)
    assert len(est.samples_ms) == DEFAULT_SAMPLES
    # each sample is one round trip across the in-DC link
    assert all(0.6 <= s <= 1.0 for s in est.samples_ms)


def test_untrusted_beacon_certificate_aborts():
    rng = Rng(15)
    clock = VirtualClock()
    beacon, authority = make_beacon(rng, clock)
    rogue = generate_keypair(rng)
    assert beacon_certified(beacon, (authority.public,))
    assert not beacon_certified(beacon, (rogue.public,))


def test_beacon_certificate_for_another_role_aborts():
    # issued by the beacon authority, but for the ek role
    rng = Rng(15)
    clock = VirtualClock()
    kp, authority = generate_keypair(rng), generate_keypair(rng)
    miscast = BeaconService("beacon-1", kp, issue_certificate(authority, kp.public, "ek"),
                            clock)
    assert not beacon_certified(miscast, (authority.public,))


def test_rogue_beacon_with_a_borrowed_certificate_aborts():
    # the rogue signs with its own key but presents another beacon's valid
    # certificate; responses must verify under the certified subject
    rng = Rng(15)
    clock = VirtualClock()
    honest, authority = make_beacon(rng, clock)
    rogue = BeaconService("beacon-1", generate_keypair(rng), honest.certificate, clock)
    assert beacon_certified(rogue, (authority.public,))
    with pytest.raises(BeaconSignatureInvalid):
        measure_proximity(two_dc_net(), rng, "agent", rogue)


# --------------------------------------------------------------------------
# adversary behaviour
# --------------------------------------------------------------------------


def test_adversarial_delay_inflates_estimate():
    rng = Rng(16)
    clock = VirtualClock()
    beacon, _ = make_beacon(rng, clock)
    adv = AdversaryModel(added_delay_ms=4.0)
    net = two_dc_net(adversary=adv)
    est = measure_proximity(net, rng, "agent", beacon)
    # 4 ms added to each leg: round trips land in [8.6, 9.0]
    assert est.trimmed_mean_ms >= 8.6
    assert est.trimmed_mean_ms > 2.0


def test_adversary_cannot_beat_honest_floor():
    """Added delay is clamped at zero: relays only ever slow traffic down."""
    rng = Rng(17)
    clock = VirtualClock()
    beacon, _ = make_beacon(rng, clock)
    adv = AdversaryModel(added_delay_ms=-50.0)
    net = two_dc_net(adversary=adv)
    est = measure_proximity(net, rng, "agent", beacon)
    assert est.trimmed_mean_ms >= 0.6


def test_dropping_adversary_makes_beacon_unreachable():
    rng = Rng(18)
    clock = VirtualClock()
    beacon, _ = make_beacon(rng, clock)
    net = two_dc_net(adversary=AdversaryModel(can_drop=True))
    with pytest.raises(BeaconUnreachable):
        measure_proximity(net, rng, "agent", beacon)


@pytest.mark.parametrize("net,draws", [
    (NetworkModel({("a", "a"): LatencyModel(0.3, 0.2)}, {"agent": "a", "beacon-1": "b"}),
     ["token"]),
    (two_dc_net(adversary=AdversaryModel(can_drop=True)), ["token", "jitter"]),
], ids=["no-route", "drop"])
def test_a_failed_measurement_draws_only_what_it_sent(net, draws):
    """A missing route raises as the first request leaves, after its token
    is drawn; a drop raises after that leg's latency is drawn as well.  The
    agent goes on drawing from the same rng, so these draws shape its
    later output."""
    beacon, _ = make_beacon(Rng(3), VirtualClock())
    rng, expected = Rng(4), Rng(4)
    with pytest.raises(BeaconUnreachable):
        measure_proximity(net, rng, "agent", beacon)
    for draw in draws:
        if draw == "token":
            expected.bytes(16)
        else:
            expected.uniform(0.0, 0.2)
    assert rng.bytes(8) == expected.bytes(8)


def test_modifying_adversary_breaks_signature():
    rng = Rng(19)
    clock = VirtualClock()
    beacon, _ = make_beacon(rng, clock)
    net = two_dc_net(adversary=AdversaryModel(can_modify=True))
    with pytest.raises(BeaconSignatureInvalid):
        measure_proximity(net, rng, "agent", beacon)


def test_targeted_adversary_leaves_other_paths_alone():
    rng = Rng(20)
    clock = VirtualClock()
    beacon, _ = make_beacon(rng, clock)
    adv = AdversaryModel(added_delay_ms=9.0, relay_targets=("beacon-2",))
    net = two_dc_net(adversary=adv)
    est = measure_proximity(net, rng, "agent", beacon)
    assert est.trimmed_mean_ms <= 1.0


def test_delay_grid_never_lowers_estimate():
    """Across a grid of adversarial delays the estimate is monotone-ish:
    it never drops below the honest in-DC round-trip floor."""
    for delay in (0.0, 0.5, 1.0, 2.0, 5.0, 10.0):
        rng = Rng(21)
        clock = VirtualClock()
        beacon, _ = make_beacon(rng, clock)
        net = two_dc_net(adversary=AdversaryModel(added_delay_ms=delay))
        est = measure_proximity(net, rng, "agent", beacon)
        assert est.trimmed_mean_ms >= 0.6 + 2 * delay - 1e-9


# --------------------------------------------------------------------------
# transcript tampering: one signature covers every timestamp and echo
# --------------------------------------------------------------------------

MID = 10  # a middle response of the default 21


class Relay:
    """On-path relay in front of a beacon: request ``k`` and its answer pass
    through ``forward(beacon, k, token, first, last)``, which may change
    either or answer itself."""

    def __init__(self, beacon, forward):
        self.beacon = beacon
        self.forward = forward
        self.endpoint = beacon.endpoint
        self.clock = beacon.clock
        self.certificate = beacon.certificate
        self.requests = 0

    def respond(self, echo, first, last):
        self.requests += 1
        return self.forward(self.beacon, self.requests - 1, echo, first, last)


def in_dc_beacon():
    return make_beacon(Rng(41), VirtualClock())[0]


def relayed(forward, beacon=None):
    """Measure ``beacon`` (a fresh in-DC one by default) through a relay;
    every call draws the same tokens and latencies."""
    relay = Relay(beacon or in_dc_beacon(), forward)
    return measure_proximity(two_dc_net(), Rng(40), "agent", relay)


def recording(into):
    """A relay that forwards honestly and keeps each answer in ``into``."""
    def forward(beacon, k, token, first, last):
        into.append(beacon.respond(token, first, last))
        return into[-1]
    return forward


def test_honest_relay_leaves_the_estimate_alone():
    direct = measure_proximity(two_dc_net(), Rng(40), "agent", in_dc_beacon())
    assert relayed(recording([])) == direct


# the first response, a middle one and the signed last one
ENDS_AND_MIDDLE = pytest.mark.parametrize("tampered", [0, MID, DEFAULT_SAMPLES],
                                          ids=["first", "middle", "last"])


@ENDS_AND_MIDDLE
def test_changed_timestamp_aborts(tampered):
    def forward(beacon, k, token, first, last):
        response = beacon.respond(token, first, last)
        if k == tampered:
            response = replace(response, timestamp_ms=response.timestamp_ms - 0.2)
        return response

    with pytest.raises(BeaconSignatureInvalid):
        relayed(forward)


@ENDS_AND_MIDDLE
def test_changed_echo_aborts(tampered):
    # the beacon answers a token of the relay's; the agent gets its own echo back
    def forward(beacon, k, token, first, last):
        if k == tampered:
            return replace(beacon.respond(bytes(16), first, last), echo=token)
        return beacon.respond(token, first, last)

    with pytest.raises(BeaconSignatureInvalid):
        relayed(forward)


@ENDS_AND_MIDDLE
def test_dropped_response_aborts(tampered):
    # the beacon answers the request twice within the transcript; the relay
    # drops the first answer
    def forward(beacon, k, token, first, last):
        if k == tampered:
            beacon.respond(token, first, last=False)
            first = False
        return beacon.respond(token, first, last)

    with pytest.raises(BeaconSignatureInvalid):
        relayed(forward)


@ENDS_AND_MIDDLE
def test_swapped_responses_abort(tampered):
    # a genuine transcript for the tokens every call draws, replayed with two
    # neighbouring responses' timestamps in each other's place; each echo
    # still matches
    beacon = in_dc_beacon()
    genuine = []
    relayed(recording(genuine), beacon)
    i = min(tampered, DEFAULT_SAMPLES - 1)
    a, b = genuine[i], genuine[i + 1]
    served = list(genuine)
    served[i] = replace(a, timestamp_ms=b.timestamp_ms)
    served[i + 1] = replace(b, timestamp_ms=a.timestamp_ms)
    with pytest.raises(BeaconSignatureInvalid):
        relayed(lambda beacon, k, *request: served[k], beacon)


def test_records_passed_off_as_one_long_echo_abort():
    """Records of one width are what make a running digest bind: the relay
    answers every request itself with made-up timestamps, then has the
    beacon sign one response whose echo is the rest of the agent's
    transcript.  Taken, it would be signed over the agent's very digest."""
    records = []

    def forward(beacon, k, token, first, last):
        ts = 0.1 * k  # the first is 0, the beacon's own clock when it signs
        records.append(struct.pack(">d", ts) + token)
        if last:
            signed = beacon.respond(b"".join(records)[8:], first=True, last=True)
            return replace(signed, timestamp_ms=ts, echo=token)
        return BeaconResponse(ts, token)

    relay = Relay(in_dc_beacon(), forward)
    relay.clock = VirtualClock()  # the agent's legs advance a clock of the relay's
    with pytest.raises(BeaconError, match="refuses a 496-byte echo"):
        measure_proximity(two_dc_net(), Rng(40), "agent", relay)


def test_forged_timestamps_around_a_genuine_signed_last_response_abort():
    # the relay timestamps every request itself and sends only the last one
    # on, which the beacon answers and signs as a transcript of its own
    def forward(beacon, k, token, first, last):
        if last:
            return beacon.respond(token, first=True, last=True)
        return BeaconResponse(beacon.clock.now_ms, token)

    with pytest.raises(BeaconSignatureInvalid):
        relayed(forward)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32),
    jitter=st.floats(0.0, 5.0),
)
def test_estimate_is_the_trimmed_mean_of_timestamp_deltas(seed, jitter):
    rng = Rng(seed)
    beacon, _ = make_beacon(rng, VirtualClock())
    net = NetworkModel({("dc-east", "dc-east"): LatencyModel(0.3, jitter)},
                       {"agent": "dc-east", "beacon-1": "dc-east"})
    answers = []
    est = measure_proximity(net, rng, "agent", Relay(beacon, recording(answers)))
    ts = [r.timestamp_ms for r in answers]
    assert len(est.samples_ms) == DEFAULT_SAMPLES == 20 == len(ts) - 1
    assert est.samples_ms == tuple(b - a for a, b in zip(ts, ts[1:]))
    assert est.trimmed_mean_ms == trimmed_mean(list(est.samples_ms), DEFAULT_TRIM)


# --------------------------------------------------------------------------
# pinned measurements: draws, their order and every estimate, bit for bit
# --------------------------------------------------------------------------


def _pinned_run(adversary, cross_jitter, endpoints, seed):
    """Measure each of ``endpoints`` in turn, drawing from one agent rng;
    each measurement gives a digest of its samples, its trimmed mean and
    the beacon's clock, or the error it raised and the clock.  The agent
    rng's next 8 bytes close the record, so every draw a measurement made,
    on its failing paths too, shows in it."""
    keys = Rng(seed + 1000)
    beacons = {e: make_beacon(keys, VirtualClock(), endpoint=e)[0]
               for e in ("beacon-1", "beacon-2")}
    net = two_dc_net(adversary, cross_jitter=cross_jitter)
    rng = Rng(seed)
    record = []
    for endpoint in endpoints:
        beacon = beacons[endpoint]
        try:
            est = measure_proximity(net, rng, "agent", beacon)
        except BeaconError as exc:
            record.append((type(exc).__name__, repr(beacon.clock.now_ms)))
            continue
        digest = hashlib.sha256(repr(est.samples_ms).encode()).hexdigest()[:16]
        record.append((digest, repr(est.trimmed_mean_ms), repr(beacon.clock.now_ms)))
    record.append(rng.bytes(8).hex())
    return record


PINNED_RUNS = {
    "honest": (None, 1.0, ("beacon-1", "beacon-2"), 1),
    "honest-without-jitter": (None, 0.0, ("beacon-2", "beacon-2"), 2),
    "delaying": (AdversaryModel(added_delay_ms=4.0), 1.0, ("beacon-1", "beacon-2"), 3),
    "negative-delay": (AdversaryModel(added_delay_ms=-50.0), 1.0, ("beacon-1",), 4),
    "targeted": (AdversaryModel(added_delay_ms=9.0, relay_targets=("beacon-2",)), 1.0,
                 ("beacon-1", "beacon-2"), 5),
    "dropping": (AdversaryModel(can_drop=True, relay_targets=("beacon-2",)), 1.0,
                 ("beacon-1", "beacon-2", "beacon-1"), 6),
    "modifying": (AdversaryModel(can_modify=True, relay_targets=("beacon-2",)), 1.0,
                  ("beacon-1", "beacon-2", "beacon-1"), 7),
}

PINNED_RECORDS = {
    "delaying": [("5fc6b7332770e9cd", "8.833338960734066", "185.4927393259335"),
                 ("14573e59aee7e958", "18.888760137122734", "397.7412277416647"),
                 "2f83ff2e96401ddd"],
    "dropping": [("6e1f78fd9f9c81ad", "0.8330095632891673", "17.359628854398007"),
                 ("BeaconUnreachable", "0.0"),
                 ("8a30b85f70090c08", "0.812854995896973", "34.42101600602228"),
                 "65f2dd701279aa7a"],
    "honest": [("2edd980797a0f0b8", "0.8030400561646797", "16.869409701509934"),
               ("dc212487a776f28e", "10.849681604427923", "228.19643146559739"),
               "898a0c0fe89ac9bc"],
    "honest-without-jitter": [("e862afc3330275bc", "10.0", "210.0"),
                              ("e862afc3330275bc", "10.0", "420.0"),
                              "ddfc5be804bda7d0"],
    "modifying": [("af8c89f60d28efcc", "0.7805827582359459", "16.488879710262808"),
                  ("BeaconSignatureInvalid", "11.262371677259527"),
                  ("e1cf86a07d32fb6b", "0.7945172922260092", "33.11294993639006"),
                  "8ae145da0717f531"],
    "negative-delay": [("ada5e87b0384a40b", "0.8078056762516533", "16.988151306435313"),
                       "ddc9116952f282dc"],
    "targeted": [("1eebf86185c5e8a8", "0.7876772218088476", "16.664892940436957"),
                 ("19eb9aecc996c218", "29.03361085303796", "609.489189838258"),
                 "94f50e59e0b61c46"],
}


@pytest.mark.parametrize("name", sorted(PINNED_RUNS))
def test_proximity_measurements_are_pinned(name):
    """No shipped scenario has a beacon, so the report pins never run a
    measurement; this pins its draws and estimates directly."""
    assert _pinned_run(*PINNED_RUNS[name]) == PINNED_RECORDS[name]
