"""Policy schema and evaluation."""

import codecs
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from attestsim.crypto import Rng, generate_keypair, issue_certificate, sha256, sign
from attestsim.ima import file_event
from attestsim.policy import (
    PlatformView,
    Policy,
    PolicyParseError,
    SoftwareList,
    evaluate,
    parse_policy,
    pem_encode,
    render_policy,
)
from attestsim import schema
from attestsim.schema import MAX_DEPTH, MAX_DOCUMENT_CHARS, read_yaml
from attestsim.tpm import TpmState


SRC = Path(__file__).resolve().parent.parent / "src"
RNG = Rng(2024)
TPM_CA = generate_keypair(RNG.child("tpm-ca"))
BEACON_CA = generate_keypair(RNG.child("beacon-ca"))
IMA_SIGNER = generate_keypair(RNG.child("ima"))

GOLDEN = {
    0: sha256(b"golden-pcr0"),
    18: sha256(b"golden-pcr18"),
    19: sha256(b"golden-pcr19"),
}


def fixture_policy_text(max_latency=2, location=True):
    """A policy shaped like the deployment example: three PCR entries
    (the masked static, two dynamic), a runtime section, one location rule."""
    lines = ["chain: |", *_indent(pem_encode(TPM_CA.public)), "whitelist:", "  pcrs:"]
    for idx in (0, 18, 19):
        lines += [f"    - id: {idx}", f"      sha256: {GOLDEN[idx].hex()}"]
    lines += [
        "runtime:",
        "  certificate: |",
        *_indent(pem_encode(IMA_SIGNER.public), 4),
        "  software:",
        "    - name: base-os",
        "      whitelist:",
        f"        {sha256(b'approved-tool').hex()}: /usr/bin/approved",
    ]
    if location:
        lines += [
            "location:",
            "  - host: beacon-1",
            f"    max_latency: {max_latency}",
            "    chain: |",
            *_indent(pem_encode(BEACON_CA.public), 6),
        ]
    return "\n".join(lines) + "\n"


def _indent(pem, n=2):
    pad = " " * n
    return [pad + l for l in pem.strip().splitlines()]


# --------------------------------------------------------------------------
# parsing
# --------------------------------------------------------------------------

def test_fixture_parses_with_expected_shape():
    p = parse_policy(fixture_policy_text())
    assert p.static == GOLDEN[0]
    assert p.dynamics == {18: GOLDEN[18], 19: GOLDEN[19]}
    assert p.tpm_ca_chain == (TPM_CA.public,)
    assert p.runtime_cert == IMA_SIGNER.public
    assert p.location[0].host == "beacon-1"
    assert p.location[0].max_latency_ms == 2.0


def test_unknown_fields_rejected():
    bad = fixture_policy_text() + "surprise: 1\n"
    with pytest.raises(PolicyParseError, match="surprise"):
        parse_policy(bad)


@pytest.mark.parametrize("mutator,needle", [
    (lambda d: d["whitelist"]["pcrs"].clear(), "at least one"),
    pytest.param(lambda d: d["whitelist"]["pcrs"].append({"id": 3, "sha256": "00" * 32}),
                 r"whitelist\.pcrs\[3\]\.id: pcr 3 is neither the masked static pcr 0",
                 id="static-pcr-3"),
    pytest.param(lambda d: d["whitelist"]["pcrs"].append({"id": 10, "sha256": "00" * 32}),
                 r"whitelist\.pcrs\[3\]\.id: pcr 10 is neither", id="ima-pcr-10"),
    pytest.param(lambda d: d["whitelist"]["pcrs"].append({"id": 16, "sha256": "00" * 32}),
                 r"whitelist\.pcrs\[3\]\.id: pcr 16 is neither", id="pcr-16"),
    pytest.param(lambda d: d["whitelist"]["pcrs"].append({"id": 22, "sha256": "00" * 32}),
                 r"whitelist\.pcrs\[3\]\.id: pcr 22 is neither", id="pcr-22"),
    (lambda d: d["location"].__setitem__(0, {**d["location"][0], "max_latency": 0}), "positive"),
    (lambda d: d["location"].__setitem__(0, {**d["location"][0], "max_latency": -3}), "positive"),
    (lambda d: d["whitelist"]["pcrs"].__setitem__(0, {"id": 0, "sha256": "xyz"}), "hex"),
    (lambda d: d["whitelist"]["pcrs"].__setitem__(0, {"id": 0, "sha256": "00" * 33}),
     "64 hex digits"),
    (lambda d: d.pop("chain"), "chain"),
])
def test_invariant_violations_are_named(mutator, needle):
    import yaml

    doc = yaml.safe_load(fixture_policy_text())
    mutator(doc)
    with pytest.raises(PolicyParseError, match=needle):
        parse_policy(yaml.safe_dump(doc))


@pytest.mark.parametrize("mutator,needle", [
    pytest.param(lambda d: d["whitelist"]["pcrs"][0].update(id=True),
                 r"pcrs\[0\]\.id: expected integer, not boolean", id="pcr-id-true"),
    pytest.param(lambda d: d["whitelist"]["pcrs"][0].update(id=0.9),
                 r"pcrs\[0\]\.id: expected integer, not number", id="pcr-id-a-float"),
    pytest.param(lambda d: d["location"][0].update(host=[1]),
                 r"location\[0\]\.host: expected string, not list", id="host-a-list"),
])
def test_wrong_types_are_rejected_not_coerced(mutator, needle):
    import yaml

    doc = yaml.safe_load(fixture_policy_text())
    mutator(doc)
    with pytest.raises(PolicyParseError, match=needle):
        parse_policy(yaml.safe_dump(doc))


@pytest.mark.parametrize("value", [".nan", ".inf"])
def test_non_finite_max_latency_is_rejected(value):
    with pytest.raises(PolicyParseError,
                       match=r"location\[0\]\.max_latency: expected a finite number"):
        parse_policy(fixture_policy_text(max_latency=value))


def test_bad_pem_is_rejected():
    with pytest.raises(PolicyParseError, match="PEM"):
        parse_policy("chain: not-a-pem\nwhitelist:\n  pcrs:\n    - id: 0\n"
                     f"      sha256: {'00' * 32}\n")


def test_duplicate_pcr_ids_rejected():
    text = fixture_policy_text()
    import yaml

    doc = yaml.safe_load(text)
    doc["whitelist"]["pcrs"].append({"id": 0, "sha256": "11" * 32})
    with pytest.raises(PolicyParseError, match="duplicate"):
        parse_policy(yaml.safe_dump(doc))


def _depth(node) -> int:
    depth = 0
    while isinstance(node, (list, dict)) and node:
        node = node[0] if isinstance(node, list) else next(iter(node.values()))
        depth += 1
    return depth


def test_yaml_reader_refuses_deep_nesting_before_composing():
    assert _depth(read_yaml("[" * MAX_DEPTH + "0" + "]" * MAX_DEPTH)) == MAX_DEPTH
    for text in ("[" * 65 + "]" * 65, "- " * 65 + "x", "{b: " * 65 + "c" + "}" * 65,
                 ("[" * 65 + "]" * 65).encode()):
        with pytest.raises(yaml.YAMLError, match="nests deeper than 64 levels"):
            read_yaml(text)
    with pytest.raises(PolicyParseError, match="nests deeper than 64 levels"):
        parse_policy("[" * 65 + "]" * 65)
    # UTF-16 hides every dash from a byte count; run apart, since composing
    # 50,000 levels would kill this interpreter rather than fail the test
    for bom, encoding in ((codecs.BOM_UTF16_LE, "utf-16-le"),
                          (codecs.BOM_UTF16_BE, "utf-16-be")):
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, yaml\n"
             "from attestsim.schema import read_yaml\n"
             "try:\n    read_yaml(sys.stdin.buffer.read())\n"
             "except yaml.YAMLError as exc:\n    print(exc)\n"],
            input=bom + ("- " * 50_000 + "x").encode(encoding), capture_output=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(
                filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))})
        assert proc.returncode == 0, (encoding, proc.returncode, proc.stderr)
        assert b"nests deeper than 64 levels" in proc.stdout, encoding


def test_yaml_reader_refuses_a_document_past_the_size_limit():
    assert read_yaml("#" * MAX_DOCUMENT_CHARS) is None
    with pytest.raises(PolicyParseError, match="longer than"):
        parse_policy("#" * (MAX_DOCUMENT_CHARS + 1))


def test_deepest_unscanned_document_composes():
    """Below the opener limit only indentation nests: level k costs k
    leading characters, so the deepest such document under the size limit
    has about sqrt(2 * MAX_DOCUMENT_CHARS) levels, and it composes."""
    def document(levels):  # the innermost mapping holds the most flow nesting allowed
        return "".join(" " * k + "a:\n" for k in range(levels - 1)) + " " * (levels - 1) \
            + "a: " + "[" * MAX_DEPTH + "0" + "]" * MAX_DEPTH + "\n"

    levels = 1400
    while len(document(levels + 1)) <= MAX_DOCUMENT_CHARS:
        levels += 1
    assert _depth(read_yaml(document(levels))) == levels + MAX_DEPTH


def test_pure_python_composer_refuses_deep_indentation(monkeypatch):
    """Where PyYAML lacks libyaml, the pure-Python composer recurses once per
    indentation level; running out of stack is a YAMLError, not a crash."""
    monkeypatch.setattr(schema, "YAML_LOADER", yaml.SafeLoader)
    document = "".join(" " * k + "a:\n" for k in range(1400))
    assert len(document) <= MAX_DOCUMENT_CHARS
    with pytest.raises(yaml.YAMLError, match="nests too deeply"):
        read_yaml(document)
    with pytest.raises(PolicyParseError, match="nests too deeply"):
        parse_policy(document)


def _two_spellings_text():
    """The fixture with one extra whitelist entry: the approved tool's
    digest again, spelled in uppercase."""
    digest = sha256(b"approved-tool").hex()
    entry = f"        {digest}: /usr/bin/approved\n"
    again = f"        {digest.upper()}: /usr/bin/again\n"
    return fixture_policy_text().replace(entry, entry + again)


def test_render_parse_roundtrip():
    """Whatever parses renders back to the same policy.  A digest spelled
    two ways would parse into two whitelist entries that render as one, so
    such a document must not parse at all."""
    p = parse_policy(fixture_policy_text())
    assert parse_policy(render_policy(p)) == p
    try:
        p = parse_policy(_two_spellings_text())
    except PolicyParseError:
        return
    assert parse_policy(render_policy(p)) == p


@pytest.mark.parametrize("spell", [str.upper, lambda h: h[:32] + " " + h[32:]],
                         ids=["uppercase", "whitespace"])
@pytest.mark.parametrize("where", ["pcr", "whitelist-key"])
def test_digests_are_exactly_64_lowercase_hex_digits(spell, where):
    digest = sha256(b"approved-tool").hex()
    if where == "pcr":
        text = fixture_policy_text().replace(GOLDEN[0].hex(), spell(GOLDEN[0].hex()))
        needle = r"whitelist\.pcrs\[0\]\.sha256: .* is not lowercase hex"
    else:
        text = fixture_policy_text().replace(digest, spell(digest))
        needle = r"runtime\.software\[0\]\.whitelist: .* is not lowercase hex"
    assert text != fixture_policy_text()
    with pytest.raises(PolicyParseError, match=needle):
        parse_policy(text)


# --------------------------------------------------------------------------
# evaluation
# --------------------------------------------------------------------------

VIEW_TPM = TpmState(TPM_CA, RNG.child("view-tpm"))


def make_view(**overrides):
    """A fully compliant view for the fixture policy."""
    obfuscated = sha256(GOLDEN[0] + sha256(b"round-rnd"))
    values = {0: obfuscated, 18: GOLDEN[18], 19: GOLDEN[19]}
    defaults = dict(
        pcr_values=values,
        ek_certified=POLICY.certifies_ek(VIEW_TPM.ek_cert),
        ima_events=(file_event("/usr/bin/approved", b"approved-tool", None),),
        static_original=GOLDEN[0],
        static_obfuscated=obfuscated,
        log_tampered=False,
        location_estimates=(0.8,),
    )
    defaults.update(overrides)
    return PlatformView(**defaults)


POLICY = parse_policy(fixture_policy_text())


def test_compliant_view_passes():
    verdict = evaluate(POLICY, make_view())
    assert verdict.compliant and verdict.violations == ()


def test_each_violation_kind_fires():
    rogue_ca = generate_keypair(Rng(555))
    rogue_tpm = TpmState(rogue_ca, Rng(556))

    v = evaluate(POLICY, make_view(ek_certified=POLICY.certifies_ek(rogue_tpm.ek_cert)))
    assert [x.kind for x in v.violations] == ["tpm-cert"]

    view = make_view()
    bad_values = {**view.pcr_values, 18: sha256(b"evil")}
    v = evaluate(POLICY, make_view(pcr_values=bad_values))
    assert "pcr-mismatch" in [x.kind for x in v.violations]

    v = evaluate(POLICY, make_view(
        ima_events=(file_event("/tmp/dropper", b"malware", None),)))
    assert [x.kind for x in v.violations] == ["untrusted-file"]

    v = evaluate(POLICY, make_view(log_tampered=True))
    assert [x.kind for x in v.violations] == ["log-tampered"]

    v = evaluate(POLICY, make_view(location_estimates=(5.0,)))
    assert [x.kind for x in v.violations] == ["location"]

    v = evaluate(POLICY, make_view(stale=True))
    assert [x.kind for x in v.violations] == ["stale-quote"]


def test_ek_certificate_for_another_role_is_rejected():
    # signed by the trusted tpm ca, but for the beacon role
    miscast = issue_certificate(TPM_CA, VIEW_TPM.ek_cert.subject, "beacon")
    v = evaluate(POLICY, make_view(ek_certified=POLICY.certifies_ek(miscast)))
    assert [x.kind for x in v.violations] == ["tpm-cert"]


def test_latency_exactly_at_bound_passes():
    assert evaluate(POLICY, make_view(location_estimates=(2.0,))).compliant
    assert not evaluate(POLICY, make_view(location_estimates=(2.001,))).compliant


def test_unreachable_beacon_is_location_violation():
    v = evaluate(POLICY, make_view(location_estimates=()))
    assert [x.kind for x in v.violations] == ["location"]
    assert "unreachable" in v.violations[0].detail


def test_signed_file_passes_without_whitelist():
    sig = sign(sha256(b"vendor-tool"), IMA_SIGNER)
    event = file_event("/usr/bin/vendor", b"vendor-tool", sig)
    v = evaluate(POLICY, make_view(ima_events=(event,)))
    assert v.compliant


def test_unsigned_static_pcr_drift_detected():
    # static PCR extended mid-run: quote no longer matches sealed obfuscated
    view = make_view()
    drifted = {**view.pcr_values, 0: sha256(view.pcr_values[0] + sha256(b"junk"))}
    v = evaluate(POLICY, make_view(pcr_values=drifted))
    assert "pcr-mismatch" in [x.kind for x in v.violations]


def test_static_baseline_other_than_golden_detected():
    # the quote still shows the sealed obfuscated value
    v = evaluate(POLICY, make_view(static_original=sha256(b"other firmware")))
    assert [(x.kind, x.detail) for x in v.violations] == [
        ("pcr-mismatch", "static pcr 0 baseline differs from whitelist")]


def test_evaluation_is_pure():
    view = make_view()
    assert evaluate(POLICY, view) == evaluate(POLICY, view)


@settings(max_examples=30)
@given(extra=st.lists(st.binary(min_size=32, max_size=32), max_size=5))
def test_whitelist_growth_is_monotone(extra):
    # adding software whitelist entries never breaks a compliant view
    view = make_view()
    assert evaluate(POLICY, view).compliant
    bigger = Policy(
        tpm_ca_chain=POLICY.tpm_ca_chain,
        static=POLICY.static,
        dynamics=POLICY.dynamics,
        runtime_cert=POLICY.runtime_cert,
        software=POLICY.software + (
            SoftwareList("extra", tuple((h, f"/x/{i}") for i, h in enumerate(extra))),
        ),
        location=POLICY.location,
    )
    assert evaluate(bigger, view).compliant
