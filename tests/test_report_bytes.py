"""Report bytes pinned across commits.

Each record is one CLI invocation with its exit code and the sha256 of
everything it prints.  A refactor that holds the determinism contract keeps
every pin; a change that moves one on purpose re-pins it here and says why
in CHANGES.md.  CI's cross-process step compares two hash seeds of one
commit; these pins compare one commit against the last.
"""

import hashlib
from pathlib import Path

import pytest

from attestsim.cli import main

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
DATA = Path(__file__).resolve().parent / "data"


def _scenario(name):
    return str(SCENARIOS / f"{name}.yaml")


_MODELCHECK = ["modelcheck", "--format", "json", "--variant"]

# name -> (argv, exit code, sha256 of stdout)
RECORDS = {
    "run-honest": (
        ["run", _scenario("honest"), "--seed", "1", "--format", "json"], 0,
        "278bf65963dae0b217765b5d0e4ca3831b3a23f067b8b6a225a9b642c7d89de4"),
    "run-reboot-attack": (
        ["run", _scenario("reboot-attack"), "--seed", "1", "--format", "json"], 2,
        "a8d44846f0e4ead146596121f54266954863613df300724bc55db85be9b8964a"),
    "run-runtime-relay": (
        ["run", _scenario("runtime-relay"), "--seed", "1", "--format", "json"], 2,
        "bce638bceea75b12016fd60424357429ebaca1a855dc27489501d56715b5f5cf"),
    "run-tampered-kernel": (
        ["run", _scenario("tampered-kernel"), "--seed", "1", "--format", "json"], 2,
        "f8769b29454a9bafa590efe29643bc307f2054ab457480ce286d974581013cb6"),
    "run-wrong-machine-unseal": (
        ["run", _scenario("wrong-machine-unseal"), "--seed", "1", "--format", "json"], 2,
        "614831474befc8f30d13520587e925ee0c2cf4774aedbea83eba6279632f29cd"),
    # the one record that deploys a policy document to more than one machine
    "run-shared-policy": (
        ["run", str(DATA / "shared-policy.yaml"), "--seed", "1", "--format", "json"], 2,
        "ec444366512a09ca079713c25c335667f021c950b4af7a770f83ceced0ad1b71"),
    "poll-honest": (
        ["poll", _scenario("honest"), "--rounds", "3"], 0,
        "586dfbfaba4752e234991a9bcfdf65a8a7907408c9aad2a58f791fcce208546f"),
    "poll-reboot-attack": (
        ["poll", _scenario("reboot-attack"), "--rounds", "3", "--format", "json"], 2,
        "4c3b9ac3b7b13cc08dd37724279e3fbdccaa90887b493d1797ec4c89dbf2bbb3"),
    "deploy-policy-honest": (
        ["deploy-policy", _scenario("honest"), "--machine", "m0", "--policy", "golden",
         "--format", "json"], 0,
        "b135ee7424ea4d6408618af52b5f250e3d18634ce7929ba77c03000b85bf6697"),
    "vwindow": (
        ["vwindow", "--trq", "155ms", "--tre", "58us", "--tvp", "100ms", "--floor", "40us",
         "--format", "json"], 0,
        "a74b981f55f985d13b6cf2697fb9adb50d0ba6b35549d127be3057db7a4f8f46"),
    "gen-ima-log": (
        ["gen-ima-log", "--seed", "3", "--events", "200"], 0,
        "32c3840e45b41ae21bfcd954ca9d7d1b543023f155642a892e59718a2d7c1339"),
    # the explore benchmark's warm-up check and its obfuscated episode
    "modelcheck-plain-2x2": (
        _MODELCHECK + ["plain", "--machines", "2", "--tpms", "2"], 2,
        "27d17c662fae43ba32d96989887dda34c990ed6191e8ecb816e1ba9b99fd268e"),
    "modelcheck-obfuscated-2x2": (
        _MODELCHECK + ["obfuscated", "--machines", "2", "--tpms", "2"], 0,
        "5d7fa38589854b447b673d1f0001ed47b63f6af7911c9f805e8283d3dda66e3e"),
    "modelcheck-plain-3x3": (
        _MODELCHECK + ["plain", "--machines", "3", "--tpms", "3"], 2,
        "546dea66b8fbdc7976ef1c08f57a45413652c8aa4b82dbe45fa573f6dcd1556a"),
    "modelcheck-plain-4x4": (
        _MODELCHECK + ["plain", "--machines", "4", "--tpms", "4"], 2,
        "9e8641e6a0b7ea993ef07c77de90f0470193a8e3524dd0e5e9cc8f6c0cb9d790"),
    "modelcheck-obfuscated-2x3": (
        _MODELCHECK + ["obfuscated", "--machines", "2", "--tpms", "3"], 0,
        "86a5d725ad259372989ad13d8a59776dcb78a5baef7ffd6bb3428873a9633ded"),
    "modelcheck-obfuscated-2x3-d2": (
        _MODELCHECK + ["obfuscated", "--machines", "2", "--tpms", "3", "--depth", "2"], 0,
        "35837f32e051f148319c390ddb58f9f1cc67c924414fd342b7fc789fd894aeb3"),
    "modelcheck-obfuscated-1x8": (
        _MODELCHECK + ["obfuscated", "--machines", "1", "--tpms", "8"], 0,
        "e6881f38569d04a08014c1b1738c7748741b466bfa5e2f339b1260fb9ae667b8"),
    "modelcheck-obfuscated-3x3": (
        _MODELCHECK + ["obfuscated", "--machines", "3", "--tpms", "3",
                       "--max-states", "500000"], 0,
        "4ea137fa865bffa1b6984b81b2b74d99222964639af354c21e9b8b218cb94638"),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_report_bytes_are_pinned(name, capsys):
    argv, code, digest = RECORDS[name]
    assert main(argv) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
