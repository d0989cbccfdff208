"""Command-line surface: subcommands, exit codes, artifact files."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from attestsim.cli import main

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
SRC = Path(__file__).resolve().parent.parent / "src"


def honest():
    return str(SCENARIOS / "honest.yaml")


# --------------------------------------------------------------------------
# vwindow
# --------------------------------------------------------------------------


def test_vwindow_reference_output(capsys):
    code = main(["vwindow", "--trq", "155ms", "--tre", "58us",
                 "--tvp", "100ms", "--floor", "40us"])
    out = capsys.readouterr().out
    assert code == 0
    assert "n = 3875" in out
    assert "n*t_re = 224.75 ms" in out
    assert "t_vw = 804.5 ms" in out


def test_vwindow_json_format(capsys):
    code = main(["vwindow", "--trq", "155ms", "--tre", "58us",
                 "--tvp", "100ms", "--floor", "40us", "--format", "json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["n"] == 3875
    assert report["t_vw_us"] == 804_500


def test_vwindow_bad_duration_is_an_error(capsys):
    code = main(["vwindow", "--trq", "155", "--tre", "58us",
                 "--tvp", "100ms", "--floor", "40us"])
    assert code == 3
    assert "error" in capsys.readouterr().err


def test_vwindow_missing_flag_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["vwindow", "--trq", "155ms"])
    assert exc.value.code == 3


# --------------------------------------------------------------------------
# run
# --------------------------------------------------------------------------


def test_run_honest_exits_zero(capsys):
    code = main(["run", honest()])
    out = capsys.readouterr().out
    assert code == 0
    assert "all compliant" in out


def test_run_attack_scenario_exits_two(capsys):
    code = main(["run", str(SCENARIOS / "tampered-kernel.yaml")])
    out = capsys.readouterr().out
    assert code == 2
    assert "c2-dynamic-pcr" in out


def test_run_missing_file_exits_three(capsys):
    assert main(["run", "no-such-scenario.yaml"]) == 3


@pytest.mark.parametrize("document", [
    "machines: [{id: m0}]\nscript: [{at: 0, action: boot}]\n",
    "machines: [{id: m0}]\nscript: [{at: 0, action: boot, machine: m0, kernel: nope}]\n",
    "machines: [{dc: dc1}]\n",
    "machines: [{id: m0}]\nbeacons: [{dc: dc1}]\n",
    "machines: [{id: m0}]\nnetwork: {links: 5}\n",
    "machines: 5\n",
    "machines: [{id: m0, agent: {static_whitelist: 5}}]\n",
    "machines: [{id: m0}]\nscript: 5\n",
    "machines: [{id: m0}]\nimages: [a]\n",
    "machines: [{id: m0}]\npolicies: [a]\n",
    "machines: [{id: m0}]\npoll: 5\n",
    "machines: [{id: m0}]\nmodelcheck: {machines: [2]}\n",
    "machines: [{id: m0}]\nmodelcheck: {variant: obfuscate}\n",
    "machines: [{id: m0}]\npoll: {rounds: [1]}\n",
    "machines: [{id: m0}]\npoll: {period_ms: [1]}\n",
    "machines: [{id: m0}]\nnetwork: {links: [{between: [dc1, dc1], base_ms: [1]}]}\n",
    "machines: [{id: m0}]\nscript: [{at: 0, action: extend-pcr, machine: m0, pcr: [1]}]\n",
], ids=["step-without-machine", "unknown-image", "machine-without-id",
        "beacon-without-endpoint", "links-not-a-list", "machines-not-a-list",
        "static-whitelist-not-a-list", "script-not-a-list", "images-not-a-mapping",
        "policies-not-a-mapping", "poll-not-a-mapping",
        "modelcheck-machines-not-an-integer", "modelcheck-unknown-variant",
        "poll-rounds-not-an-integer", "poll-period-not-a-number",
        "link-base-ms-not-a-number", "extend-pcr-register-not-an-integer"])
def test_run_schema_errors_exit_three_without_traceback(tmp_path, document):
    scenario = tmp_path / "bad.yaml"
    scenario.write_text(document)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "attestsim", "run", str(scenario)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("attestsim: error:")


def test_run_json_matches_library_report(capsys):
    from attestsim.scenario import run_scenario

    code = main(["run", honest(), "--seed", "9", "--format", "json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report == run_scenario(honest(), 9).to_dict()


def test_run_out_files_are_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["run", honest(), "--seed", "4", "--out", str(a)])
    main(["run", honest(), "--seed", "4", "--out", str(b)])
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


# --------------------------------------------------------------------------
# modelcheck
# --------------------------------------------------------------------------


def test_modelcheck_plain_finds_violation(capsys, tmp_path):
    trace = tmp_path / "trace.json"
    code = main(["modelcheck", "--variant", "plain", "--machines", "2",
                 "--tpms", "2", "--depth", "5", "--emit-trace", str(trace)])
    out = capsys.readouterr().out
    assert code == 2
    assert "VIOLATED" in out
    emitted = json.loads(trace.read_text())
    assert emitted["property_holds"] is False
    assert emitted["counterexample"]["steps"][0] == "boot(m0, golden)"


def test_modelcheck_obfuscated_holds(capsys):
    code = main(["modelcheck", "--variant", "obfuscated", "--machines", "2",
                 "--tpms", "2", "--depth", "5"])
    out = capsys.readouterr().out
    assert code == 0
    assert "holds" in out


def test_modelcheck_bad_bounds_exit_three(capsys):
    assert main(["modelcheck", "--machines", "0"]) == 3
    assert main(["modelcheck", "--machines", "2", "--tpms", "1"]) == 3


def test_modelcheck_budget_overflow_exits_three(capsys):
    assert main(["modelcheck", "--machines", "2", "--tpms", "2",
                 "--max-states", "10"]) == 3


# --------------------------------------------------------------------------
# gen-ima-log
# --------------------------------------------------------------------------


def test_gen_ima_log_writes_the_log(tmp_path, capsys):
    out = tmp_path / "ascii.log"
    code = main(["gen-ima-log", "--events", "25", "--seed", "6",
                 "--out", str(out)])
    assert code == 0
    lines = [l for l in out.read_bytes().split(b"\n") if l]
    assert len(lines) == 25
    assert lines[0].startswith(b"10 ")

    code = main(["gen-ima-log", "--events", "25", "--seed", "6",
                 "--out", str(tmp_path / "again.log")])
    assert code == 0
    assert (tmp_path / "again.log").read_bytes() == out.read_bytes()
    capsys.readouterr()


def test_gen_ima_log_stdout_and_validation(capsys):
    assert main(["gen-ima-log", "--events", "3", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert len([l for l in out.splitlines() if l.startswith("10 ")]) == 3
    assert main(["gen-ima-log", "--events", "0"]) == 3


# --------------------------------------------------------------------------
# deploy-policy / poll
# --------------------------------------------------------------------------


def test_deploy_policy_golden_is_compliant(capsys):
    code = main(["deploy-policy", honest(), "--machine", "m0",
                 "--policy", "golden", "--format", "json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["deployed"] is True
    assert len(bytes.fromhex(report["policy_id"])) == 16
    assert report["verdict"]["compliant"] is True


def test_deploy_policy_unknown_name_exits_three(capsys):
    assert main(["deploy-policy", honest(), "--machine", "m0",
                 "--policy", "ghost"]) == 3


def test_deploy_policy_needs_exactly_one_source():
    with pytest.raises(SystemExit) as exc:
        main(["deploy-policy", honest(), "--machine", "m0"])
    assert exc.value.code == 3


def test_poll_honest_quiet(capsys):
    code = main(["poll", honest(), "--rounds", "2", "--period", "500ms"])
    out = capsys.readouterr().out
    assert code == 0
    assert "alerts: none" in out


def test_poll_reboot_attack_alerts(capsys):
    code = main(["poll", str(SCENARIOS / "reboot-attack.yaml"),
                 "--rounds", "1"])
    out = capsys.readouterr().out
    assert code == 2
    assert "violation" in out


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 3
