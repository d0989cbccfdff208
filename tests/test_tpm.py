"""TPM model: extend semantics, locality gates, AIK lifecycle, quotes, reboot."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attestsim.crypto import ONES_DIGEST, ZERO_DIGEST, Rng, generate_keypair, sha256
from attestsim.tpm import (
    DYNAMIC_PCRS,
    ActivationError,
    InvalidPcrIndex,
    LocalityViolation,
    Quote,
    TpmState,
    UnknownAik,
    composite_digest,
    make_credential,
)


def fresh_tpm(seed=100):
    rng = Rng(seed)
    ca = generate_keypair(rng)
    return TpmState(ca, rng), ca, rng


def chain(start, values):
    # independent oracle for the extend fold
    acc = start
    for v in values:
        acc = sha256(acc + v)
    return acc


# --------------------------------------------------------------------------
# pcr semantics
# --------------------------------------------------------------------------

def test_extend_matches_hash_chain_oracle():
    tpm, _, rng = fresh_tpm()
    values = [rng.bytes(32) for _ in range(5)]
    for v in values:
        tpm.pcr_extend(0, v)
    assert tpm.read_pcr(0) == chain(ZERO_DIGEST, values)


def test_extend_order_matters():
    a, b = sha256(b"a"), sha256(b"b")
    t1, _, _ = fresh_tpm(1)
    t2, _, _ = fresh_tpm(2)
    t1.pcr_extend(0, a)
    t1.pcr_extend(0, b)
    t2.pcr_extend(0, b)
    t2.pcr_extend(0, a)
    assert t1.read_pcr(0) != t2.read_pcr(0)


def test_static_extends_allowed_from_any_locality():
    tpm, _, _ = fresh_tpm()
    for loc in (0, 1, 2, 3, 4):
        tpm.locality = loc
        tpm.pcr_extend(3, sha256(b"x"))


def test_dynamic_extend_requires_locality_two():
    tpm, _, _ = fresh_tpm()
    tpm.locality = 4
    tpm.drtm_launch_reset()
    tpm.locality = 0
    with pytest.raises(LocalityViolation):
        tpm.pcr_extend(17, sha256(b"v"))
    tpm.locality = 1
    with pytest.raises(LocalityViolation):
        tpm.pcr_extend(18, sha256(b"v"))
    tpm.locality = 2
    tpm.pcr_extend(17, sha256(b"v"))
    tpm.locality = 4
    tpm.pcr_extend(18, sha256(b"v"))


def test_dynamic_reset_requires_locality_four():
    tpm, _, _ = fresh_tpm()
    for loc in (0, 1, 2, 3):
        tpm.locality = loc
        with pytest.raises(LocalityViolation):
            tpm.drtm_launch_reset()
    tpm.locality = 4
    tpm.drtm_launch_reset()
    assert tpm.read_pcr(17) == ZERO_DIGEST


def test_invalid_indices_rejected():
    tpm, _, _ = fresh_tpm()
    tpm.locality = 4
    for idx in (16, 20, 23, -1):
        with pytest.raises(InvalidPcrIndex):
            tpm.read_pcr(idx)
        with pytest.raises(InvalidPcrIndex):
            tpm.pcr_extend(idx, sha256(b"v"))


def test_dynamic_pcrs_hold_sentinel_before_first_drtm():
    tpm, _, _ = fresh_tpm()
    for i in DYNAMIC_PCRS:
        assert tpm.read_pcr(i) == ONES_DIGEST


@settings(max_examples=40)
@given(st.lists(st.tuples(st.sampled_from([0, 5, 10, 17]), st.binary(min_size=32, max_size=32)),
                max_size=12))
def test_extend_only_replay_property(ops):
    """Replaying any op sequence step-by-step equals the independent fold."""
    tpm, _, _ = fresh_tpm(3)
    tpm.locality = 4
    tpm.drtm_launch_reset()
    per_index = {}
    for idx, val in ops:
        tpm.pcr_extend(idx, val)
        per_index.setdefault(idx, []).append(val)
    for idx, vals in per_index.items():
        start = ZERO_DIGEST
        assert tpm.read_pcr(idx) == chain(start, vals)


# --------------------------------------------------------------------------
# aik + credential activation
# --------------------------------------------------------------------------

def test_create_aik_is_fresh_per_call_and_per_tpm():
    t1, _, rng1 = fresh_tpm(10)
    t2, _, rng2 = fresh_tpm(11)
    a = t1.create_aik(rng1)
    b = t1.create_aik(rng1)
    c = t2.create_aik(rng2)
    assert len({a, b, c}) == 3


def test_activate_credential_binding():
    rng = Rng(20)
    ca = generate_keypair(rng)
    tpm_a = TpmState(ca, rng)
    tpm_b = TpmState(ca, rng)
    aik_a = tpm_a.create_aik(rng)
    secret = rng.bytes(32)

    challenge = make_credential(tpm_a.ek_cert, aik_a, secret)
    assert tpm_a.activate_credential(aik_a, challenge) == secret

    # same challenge at a TPM with a different EK: wrong-ek
    tpm_b.aiks[aik_a] = tpm_a.aiks[aik_a]  # even if the AIK were present
    with pytest.raises(ActivationError) as err:
        tpm_b.activate_credential(aik_a, challenge)
    assert err.value.reason == "wrong-ek"

    # AIK never created on this TPM: unknown-aik
    with pytest.raises(ActivationError) as err:
        tpm_a.activate_credential(rng.bytes(32), challenge)
    assert err.value.reason == "unknown-aik"


# --------------------------------------------------------------------------
# quotes
# --------------------------------------------------------------------------

def test_quote_signature_and_composite_digest():
    tpm, _, rng = fresh_tpm(30)
    aik = tpm.create_aik(rng)
    tpm.pcr_extend(0, sha256(b"fw"))
    nonce = rng.bytes(32)
    q = tpm.quote(aik, nonce, [0, 3, 10])
    assert q.verify_signature()
    assert q.pcr_digest == composite_digest([tpm.read_pcr(0), tpm.read_pcr(3), tpm.read_pcr(10)])
    assert q.nonce == nonce
    assert q.aik_pub == aik


def test_quote_clock_increments_per_quote():
    tpm, _, rng = fresh_tpm(31)
    aik = tpm.create_aik(rng)
    q1 = tpm.quote(aik, rng.bytes(32), [0])
    q2 = tpm.quote(aik, rng.bytes(32), [0])
    assert q2.clock == q1.clock + 1


def test_quote_requires_resident_aik():
    tpm, _, rng = fresh_tpm(32)
    with pytest.raises(UnknownAik):
        tpm.quote(rng.bytes(32), rng.bytes(32), [0])


def test_cross_tpm_quotes_never_verify_under_other_aik():
    rng = Rng(33)
    ca = generate_keypair(rng)
    tpms = [TpmState(ca, rng) for _ in range(2)]
    aiks = [t.create_aik(rng) for t in tpms]
    nonce = rng.bytes(32)
    quotes = [t.quote(a, nonce, [0]) for t, a in zip(tpms, aiks)]
    for i, q in enumerate(quotes):
        for j, aik in enumerate(aiks):
            expected = i == j
            got = q.aik_pub == aik and q.verify_signature()
            assert got == expected


def test_tampered_quote_fails_verification():
    tpm, _, rng = fresh_tpm(35)
    aik = tpm.create_aik(rng)
    q = tpm.quote(aik, rng.bytes(32), [0])
    bad = Quote(q.selection, q.pcr_digest, q.nonce, q.reboot_counter + 1,
                q.clock, q.signature, q.aik_pub)
    assert not bad.verify_signature()


# --------------------------------------------------------------------------
# reboot
# --------------------------------------------------------------------------

def test_reboot_resets_banks_and_bumps_counter():
    tpm, _, rng = fresh_tpm(40)
    tpm.locality = 4
    tpm.drtm_launch_reset()
    tpm.pcr_extend(17, sha256(b"mle"))
    tpm.pcr_extend(0, sha256(b"fw"))
    before = tpm.reboot_counter
    tpm.reboot()
    assert tpm.reboot_counter == before + 1
    assert tpm.read_pcr(0) == ZERO_DIGEST
    assert tpm.read_pcr(17) == ONES_DIGEST  # sentinel until next DRTM
    assert tpm.locality == 0


def test_reboot_counter_is_monotonic():
    tpm, _, _ = fresh_tpm(41)
    seen = []
    for _ in range(5):
        seen.append(tpm.reboot_counter)
        tpm.reboot()
    assert seen == sorted(seen)
    assert len(set(seen)) == len(seen)


def test_aiks_survive_reboot():
    tpm, _, rng = fresh_tpm(42)
    aik = tpm.create_aik(rng)
    tpm.reboot()
    q = tpm.quote(aik, rng.bytes(32), [0])
    assert q.verify_signature() and q.reboot_counter == 1


def test_extend_value_must_be_digest_sized():
    tpm, _, _ = fresh_tpm(43)
    with pytest.raises(Exception):
        tpm.pcr_extend(0, b"short")
