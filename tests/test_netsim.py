"""Network, beacon and proximity-estimation tests."""

import pytest
from hypothesis import given, strategies as st

from attestsim.crypto import Rng, generate_keypair, issue_certificate
from attestsim.netsim import (
    AdversaryModel,
    BeaconCertInvalid,
    BeaconService,
    BeaconSignatureInvalid,
    BeaconUnreachable,
    LatencyModel,
    NetworkModel,
    VirtualClock,
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
    model = LatencyModel(2.0, 0.5)
    for _ in range(200):
        s = model.sample(rng)
        assert 2.0 <= s <= 2.5


def test_link_lookup_is_order_insensitive():
    net = two_dc_net()
    rng = Rng(1)
    net.place("roamer", "dc-west")
    assert net.link("agent", "roamer").base_ms == 5.0
    assert net.link("roamer", "agent").base_ms == 5.0
    with pytest.raises(BeaconUnreachable):
        net.one_way_ms("agent", "ghost", rng)


# --------------------------------------------------------------------------
# proximity measurement
# --------------------------------------------------------------------------


def test_in_dc_estimate_passes_threshold():
    rng = Rng(11)
    clock = VirtualClock()
    beacon, authority = make_beacon(rng, clock)
    net = two_dc_net()
    est = measure_proximity(net, rng, "agent", beacon,
                            beacon_chain=(authority.public,))
    # per-leg latency in [0.3, 0.5] so a round trip sits in [0.6, 1.0]
    assert len(est.samples_ms) == 20
    assert 0.6 <= est.trimmed_mean_ms <= 1.0
    assert est.trimmed_mean_ms <= 2.0


def test_cross_dc_estimate_always_fails_threshold():
    rng = Rng(12)
    clock = VirtualClock()
    beacon, authority = make_beacon(rng, clock, endpoint="beacon-2")
    net = two_dc_net()
    est = measure_proximity(net, rng, "agent", beacon,
                            beacon_chain=(authority.public,))
    assert est.trimmed_mean_ms >= 10.0
    assert all(s >= 10.0 for s in est.samples_ms)


def test_samples_are_consecutive_timestamp_differences():
    rng = Rng(13)
    clock = VirtualClock()
    beacon, authority = make_beacon(rng, clock)
    net = two_dc_net()
    est = measure_proximity(net, rng, "agent", beacon, n_samples=6,
                            beacon_chain=(authority.public,))
    assert len(est.samples_ms) == 6
    # each sample is one round trip across the in-DC link
    assert all(0.6 <= s <= 1.0 for s in est.samples_ms)


def test_minimum_sample_count_enforced():
    rng = Rng(14)
    clock = VirtualClock()
    beacon, authority = make_beacon(rng, clock)
    with pytest.raises(ValueError):
        measure_proximity(two_dc_net(), rng, "agent", beacon, n_samples=3,
                          beacon_chain=(authority.public,))


def test_untrusted_beacon_certificate_aborts():
    rng = Rng(15)
    clock = VirtualClock()
    beacon, _ = make_beacon(rng, clock)
    rogue = generate_keypair(rng)
    with pytest.raises(BeaconCertInvalid):
        measure_proximity(two_dc_net(), rng, "agent", beacon,
                          beacon_chain=(rogue.public,))


def test_beacon_certificate_for_another_role_aborts():
    # issued by the beacon authority, but for the ek role
    rng = Rng(15)
    clock = VirtualClock()
    kp, authority = generate_keypair(rng), generate_keypair(rng)
    miscast = BeaconService("beacon-1", kp, issue_certificate(authority, kp.public, "ek"),
                            clock)
    with pytest.raises(BeaconCertInvalid):
        measure_proximity(two_dc_net(), rng, "agent", miscast,
                          beacon_chain=(authority.public,))


def test_rogue_beacon_with_a_borrowed_certificate_aborts():
    # the rogue signs with its own key but presents another beacon's valid
    # certificate; responses must verify under the certified subject
    rng = Rng(15)
    clock = VirtualClock()
    honest, authority = make_beacon(rng, clock)
    rogue = BeaconService("beacon-1", generate_keypair(rng), honest.certificate, clock)
    with pytest.raises(BeaconSignatureInvalid):
        measure_proximity(two_dc_net(), rng, "agent", rogue,
                          beacon_chain=(authority.public,))


# --------------------------------------------------------------------------
# adversary behaviour
# --------------------------------------------------------------------------


def test_adversarial_delay_inflates_estimate():
    rng = Rng(16)
    clock = VirtualClock()
    beacon, authority = make_beacon(rng, clock)
    adv = AdversaryModel(added_delay_ms=4.0)
    net = two_dc_net(adversary=adv)
    est = measure_proximity(net, rng, "agent", beacon,
                            beacon_chain=(authority.public,))
    # 4 ms added to each leg: round trips land in [8.6, 9.0]
    assert est.trimmed_mean_ms >= 8.6
    assert est.trimmed_mean_ms > 2.0


def test_adversary_cannot_beat_honest_floor():
    """Added delay is clamped at zero: relays only ever slow traffic down."""
    rng = Rng(17)
    clock = VirtualClock()
    beacon, authority = make_beacon(rng, clock)
    adv = AdversaryModel(added_delay_ms=-50.0)
    net = two_dc_net(adversary=adv)
    est = measure_proximity(net, rng, "agent", beacon,
                            beacon_chain=(authority.public,))
    assert est.trimmed_mean_ms >= 0.6


def test_dropping_adversary_makes_beacon_unreachable():
    rng = Rng(18)
    clock = VirtualClock()
    beacon, authority = make_beacon(rng, clock)
    net = two_dc_net(adversary=AdversaryModel(can_drop=True))
    with pytest.raises(BeaconUnreachable):
        measure_proximity(net, rng, "agent", beacon,
                          beacon_chain=(authority.public,))


def test_modifying_adversary_breaks_signature():
    rng = Rng(19)
    clock = VirtualClock()
    beacon, authority = make_beacon(rng, clock)
    net = two_dc_net(adversary=AdversaryModel(can_modify=True))
    with pytest.raises(BeaconSignatureInvalid):
        measure_proximity(net, rng, "agent", beacon,
                          beacon_chain=(authority.public,))


def test_targeted_adversary_leaves_other_paths_alone():
    rng = Rng(20)
    clock = VirtualClock()
    beacon, authority = make_beacon(rng, clock)
    adv = AdversaryModel(added_delay_ms=9.0, relay_targets=("beacon-2",))
    net = two_dc_net(adversary=adv)
    est = measure_proximity(net, rng, "agent", beacon,
                            beacon_chain=(authority.public,))
    assert est.trimmed_mean_ms <= 1.0


def test_delay_grid_never_lowers_estimate():
    """Across a grid of adversarial delays the estimate is monotone-ish:
    it never drops below the honest in-DC round-trip floor."""
    for delay in (0.0, 0.5, 1.0, 2.0, 5.0, 10.0):
        rng = Rng(21)
        clock = VirtualClock()
        beacon, authority = make_beacon(rng, clock)
        net = two_dc_net(adversary=AdversaryModel(added_delay_ms=delay))
        est = measure_proximity(net, rng, "agent", beacon,
                                beacon_chain=(authority.public,))
        assert est.trimmed_mean_ms >= 0.6 + 2 * delay - 1e-9
