"""Measurement log: format, aggregate fold, differential verification, tamper."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attestsim.crypto import ZERO_DIGEST, Rng, generate_keypair, sha256, sign
from attestsim.ima import (
    ImaCacheState,
    ImaFormatError,
    TamperDetected,
    aggregate,
    generate_boot_manifest,
    measure_file,
    parse_line,
    read_new_events,
    render_fixture_log,
    template_hash,
)
from attestsim.tpm import IMA_PCR, TpmState


def scratch_tpm(seed=1):
    rng = Rng(seed)
    return TpmState(generate_keypair(rng), rng), rng


# --------------------------------------------------------------------------
# format
# --------------------------------------------------------------------------

def test_event_line_roundtrip_ng_and_sig():
    tpm, rng = scratch_tpm()
    signer = generate_keypair(rng)
    e1 = measure_file(tpm, "/usr/bin/tool", b"binary-bytes")
    e2 = measure_file(tpm, "/usr/bin/signed", b"other", sign(sha256(b"other"), signer))
    for e in (e1, e2):
        assert parse_line(e.encode_line()) == e
    assert e1.template_name == "ima-ng" and e2.template_name == "ima-sig"


# a valid ima-ng event line without its leading "10"
AFTER_PCR = b" " + b" ".join([
    template_hash("ima-ng", sha256(b"x"), "/x", None).hex().encode(),
    b"ima-ng", sha256(b"x").hex().encode(), b"/x"])


def test_pcr_rejection_cases_differ_from_a_valid_line_only_in_the_pcr():
    assert parse_line(b"10" + AFTER_PCR).pcr_index == IMA_PCR


HEX32 = b"00" * 32
SIG_PREFIX = b"10 " + HEX32 + b" ima-sig " + HEX32 + b" /x "
LOWERCASE = "hash fields must be lowercase hex"
BAD_FIELD = "bad numeric or hex field"


# each rejected line -> the message it is rejected with (keyed by line, so
# the test ids name the line alone)
REJECTIONS = {
    b"010" + AFTER_PCR: "pcr field must be canonical decimal",    # leading zero
    b"+10" + AFTER_PCR: "pcr field must be canonical decimal",    # sign
    b"1_0" + AFTER_PCR: "pcr field must be canonical decimal",    # underscore
    b"ten" + AFTER_PCR: BAD_FIELD,                                # pcr, not a number
    b"10 zzzz ima-ng " + HEX32 + b" /x": LOWERCASE,               # bad hex
    b"10 " + b"AB" * 32 + b" ima-ng " + HEX32 + b" /x": LOWERCASE,  # uppercase hash
    b"10  ima-ng " + HEX32 + b" /x": LOWERCASE,                   # empty hash field
    b"10 abc ima-ng " + HEX32 + b" /x": BAD_FIELD,                # odd-length hash
    b"10 " + HEX32 + b" ima-odd " + HEX32 + b" /x": "unknown template 'ima-odd'",
    b"10 " + HEX32 + b" ima-ng " + HEX32: "expected 5 or 6 fields, got 4",
    SIG_PREFIX + b"00 00": "expected 5 or 6 fields, got 7",
    b"10 " + HEX32 + b" ima-sig " + HEX32 + b" /x": "ima-sig event without signature field",
    b"10 " + HEX32 + b" ima-ng " + HEX32 + b" /x 00": "ima-ng event with trailing field",
    SIG_PREFIX + b"ABCD": LOWERCASE,                              # uppercase signature
    SIG_PREFIX + b"wxyz": LOWERCASE,                              # non-hex signature
    SIG_PREFIX + b"abc": BAD_FIELD,                               # odd-length signature
    b"10 " + HEX32 + b" ima-ng " + b"00" * 31 + b" /x": "hash fields must be 32 bytes",
    b"10 " + HEX32 + b" ima-ng " + HEX32 + b" /x": "template hash does not match event fields",
    b"\xff\xfe garbage": "non-ascii bytes in event line",
}


@pytest.mark.parametrize("line", list(REJECTIONS))
def test_malformed_lines_rejected(line):
    with pytest.raises(ImaFormatError, match=f"^{re.escape(REJECTIONS[line])}$"):
        parse_line(line)


def test_uppercase_hex_is_not_canonical():
    # bytes.fromhex would accept "AB" == "ab"; the parser must not, or two
    # distinct byte streams could decode to the same verified digest
    tpm, _ = scratch_tpm()
    event = measure_file(tpm, "/usr/bin/tool", b"binary-bytes")
    line = event.encode_line()
    shouted = line.replace(event.file_hash.hex().encode(),
                           event.file_hash.hex().upper().encode())
    assert shouted != line
    with pytest.raises(ImaFormatError, match="lowercase"):
        parse_line(shouted)


def test_template_hash_binds_every_field():
    base = template_hash("ima-ng", sha256(b"c"), "/p", None)
    assert template_hash("ima-ng", sha256(b"c2"), "/p", None) != base
    assert template_hash("ima-ng", sha256(b"c"), "/p2", None) != base
    assert template_hash("ima-sig", sha256(b"c"), "/p", b"sig") != base


def test_whitespace_paths_are_rejected():
    tpm, _ = scratch_tpm()
    with pytest.raises(ImaFormatError):
        measure_file(tpm, "/has space", b"x")


def test_empty_signature_is_rejected_before_the_extend():
    # an ima-sig line with an empty signature field would not parse back
    tpm, _ = scratch_tpm()
    before = tpm.read_pcr(IMA_PCR)
    with pytest.raises(ImaFormatError):
        measure_file(tpm, "/x", b"c", b"")
    assert tpm.read_pcr(IMA_PCR) == before


# --------------------------------------------------------------------------
# aggregate / prefix faithfulness
# --------------------------------------------------------------------------

def test_every_prefix_matches_register_at_that_point():
    tpm, rng = scratch_tpm(2)
    log = []
    for i in range(25):
        log.append(measure_file(tpm, f"/bin/f{i}", rng.bytes(16)))
        prefix = [e.template_hash for e in log]
        assert aggregate(prefix) == tpm.read_pcr(IMA_PCR)


# --------------------------------------------------------------------------
# differential verification
# --------------------------------------------------------------------------

def log_bytes(log):
    return b"".join(e.encode_line() + b"\n" for e in log)


def grow_log(n, seed=4):
    tpm, rng = scratch_tpm(seed)
    log = [measure_file(tpm, f"/lib/e{i}", rng.bytes(20)) for i in range(n)]
    return log, tpm


def test_one_pass_verification():
    log, tpm = grow_log(30)
    events, cache = read_new_events(log_bytes(log), ImaCacheState(), tpm.read_pcr(IMA_PCR))
    assert len(events) == 30
    assert cache.bytes_read == len(log_bytes(log))
    assert cache.running_digest == tpm.read_pcr(IMA_PCR)


def test_incremental_equals_batch():
    tpm, rng = scratch_tpm(5)
    log = []
    cache = ImaCacheState()
    all_events = []
    for batch in range(5):
        for i in range(7):
            log.append(measure_file(tpm, f"/opt/b{batch}-{i}", rng.bytes(12)))
        events, cache = read_new_events(log_bytes(log), cache, tpm.read_pcr(IMA_PCR))
        all_events.extend(events)

    batch_events, batch_cache = read_new_events(
        log_bytes(log), ImaCacheState(), tpm.read_pcr(IMA_PCR)
    )
    assert [e.template_hash for e in all_events] == [e.template_hash for e in batch_events]
    assert (cache.bytes_read, cache.running_digest) == (
        batch_cache.bytes_read, batch_cache.running_digest
    )


def test_no_new_events_is_idempotent():
    log, tpm = grow_log(5)
    _, cache = read_new_events(log_bytes(log), ImaCacheState(), tpm.read_pcr(IMA_PCR))
    again, cache2 = read_new_events(log_bytes(log), cache, tpm.read_pcr(IMA_PCR))
    assert again == [] and cache2 == cache


def test_empty_log_with_zero_register():
    events, cache = read_new_events(b"", ImaCacheState(), ZERO_DIGEST)
    assert events == [] and cache == ImaCacheState()


def test_partial_trailing_line_is_not_tampering():
    log, tpm = grow_log(4)
    partially_written = log_bytes(log) + b"10 deadbeef ima-ng"   # no newline yet
    events, cache = read_new_events(partially_written, ImaCacheState(), tpm.read_pcr(IMA_PCR))
    assert len(events) == 4
    assert cache.bytes_read == len(log_bytes(log))


def test_log_ending_before_match_is_tampering():
    log, tpm = grow_log(6)
    truncated = b"".join(e.encode_line() + b"\n" for e in log[:5])
    with pytest.raises(TamperDetected):
        read_new_events(truncated, ImaCacheState(), tpm.read_pcr(IMA_PCR))


def test_flipped_byte_is_tampering():
    log, tpm = grow_log(8)
    raw = bytearray(log_bytes(log))
    raw[len(raw) // 2] ^= 0x01
    with pytest.raises(TamperDetected):
        read_new_events(bytes(raw), ImaCacheState(), tpm.read_pcr(IMA_PCR))


def test_reordered_events_are_tampering():
    log, tpm = grow_log(5)
    lines = [e.encode_line() + b"\n" for e in log]
    swapped = b"".join([lines[0], lines[2], lines[1], lines[3], lines[4]])
    with pytest.raises(TamperDetected):
        read_new_events(swapped, ImaCacheState(), tpm.read_pcr(IMA_PCR))


def test_a_canonical_line_for_another_register_parses_and_is_skipped():
    other = b"11" + AFTER_PCR
    assert parse_line(other).pcr_index == 11
    log, tpm = grow_log(3)
    data = log_bytes(log[:1]) + other + b"\n" + log_bytes(log[1:])
    events, cache = read_new_events(data, ImaCacheState(), tpm.read_pcr(IMA_PCR))
    assert events == log
    assert cache.bytes_read == len(data)


@settings(max_examples=25)
@given(boundaries=st.lists(st.integers(1, 29), min_size=1, max_size=4, unique=True))
def test_any_chunking_matches_one_pass(boundaries):
    tpm, rng = scratch_tpm(6)
    log = []
    cuts = sorted(boundaries) + [30]
    cache = ImaCacheState()
    read = 0
    done = 0
    for cut in cuts:
        for i in range(done, cut):
            log.append(measure_file(tpm, f"/srv/h{i}", rng.bytes(10)))
        done = cut
        events, cache = read_new_events(log_bytes(log), cache, tpm.read_pcr(IMA_PCR))
        read += len(events)
    assert read == 30
    assert cache.running_digest == tpm.read_pcr(IMA_PCR)


# --------------------------------------------------------------------------
# fixtures
# --------------------------------------------------------------------------

def test_manifest_is_deterministic_and_fractionally_signed():
    m1 = generate_boot_manifest(seed=11, count=400)
    m2 = generate_boot_manifest(seed=11, count=400)
    assert m1 == m2
    signed = sum(1 for e in m1 if e.signature is not None)
    assert 20 <= signed <= 60   # ~10% of 400


def test_rendered_fixture_matches_real_measurement_path():
    # dual route: render_fixture_log vs driving a real TPM through measure_file
    manifest = generate_boot_manifest(seed=12, count=50)
    rendered, final_digest = render_fixture_log(manifest)

    tpm, _ = scratch_tpm(13)
    log = [measure_file(tpm, entry.path, entry.content, entry.signature)
           for entry in manifest]
    assert log_bytes(log) == rendered
    assert tpm.read_pcr(IMA_PCR) == final_digest

    events, cache = read_new_events(rendered, ImaCacheState(), final_digest)
    assert len(events) == 50
