"""Command-line surface: subcommands, exit codes, artifact files."""

import contextlib
import copy
import io
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from attestsim import schema
from attestsim.cli import main
from attestsim.policy import parse_policy

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


@pytest.mark.parametrize("duration", ["1e999ms", "-1e999ms", "infms"])
def test_vwindow_huge_duration_is_an_error(capsys, duration):
    code = main(["vwindow", f"--trq={duration}", "--tre", "58us",
                 "--tvp", "100ms", "--floor", "40us"])
    assert code == 3
    assert capsys.readouterr().err.startswith("attestsim: error:")


@pytest.mark.parametrize("argv", [
    ["vwindow", "--trq=nanms", "--tre", "58us", "--tvp", "100ms", "--floor", "40us"],
    ["poll", honest(), "--rounds", "1", "--period", "nanms"],
], ids=["vwindow", "poll-period"])
def test_nan_duration_is_not_a_number(capsys, argv):
    assert main(argv) == 3
    assert capsys.readouterr().err == "attestsim: error: duration 'nanms' is not a number\n"


def test_vwindow_missing_flag_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["vwindow", "--trq", "155ms"])
    assert exc.value.code == 3


@pytest.mark.parametrize("argv", [
    ["modelcheck", "--seed", "1"],
    ["vwindow", "--trq", "155ms", "--tre", "58us", "--tvp", "100ms", "--floor", "40us",
     "--seed", "3"],
], ids=["modelcheck", "vwindow"])
def test_seed_is_a_usage_error_where_nothing_is_drawn(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 3
    assert "unrecognized arguments: --seed" in capsys.readouterr().err


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
    "machines: [{id: m0, agent: {obfuscate: 5}}]\n",
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
    "machines: [{id: m0, agent: {obfuscate: \"false\"}}]\n",
    "machines: [{id: m0, dc: [1], agent: {}}]\nnetwork: {links: []}\npoll: {rounds: 1}\n",
    "machines: [{id: [m0]}]\n",
    "machines: [{id: m0}]\nnetwork: {links: [{between: [1, [2]]}]}\n",
    "machines: [{id: m0, agent: {}}, {id: m1}]\n"
    "script: [{at: 0, action: relay, machine: m0, target: [m1]}]\n",
    "machines: [{id: m0, agent: {}}]\npoll: {targets: [[m0]]}\n",
    "machines: [{id: m0}]\nscript: [{at: 0, action: boot, machine: m0},\n"
    "  {at: 1, action: load-file, machine: m0, path: 5}]\n",
    "machines: [{id: m0, agent: {}}]\npoll: {period_ms: .nan, rounds: 2}\n",
    "machines: [{id: m0}]\nscript: [{at: .inf, action: boot, machine: m0}]\n",
], ids=["step-without-machine", "unknown-image", "machine-without-id",
        "beacon-without-endpoint", "links-not-a-list", "machines-not-a-list",
        "obfuscate-an-integer", "script-not-a-list", "images-not-a-mapping",
        "policies-not-a-mapping", "poll-not-a-mapping",
        "modelcheck-machines-not-an-integer", "modelcheck-unknown-variant",
        "poll-rounds-not-an-integer", "poll-period-not-a-number",
        "link-base-ms-not-a-number", "extend-pcr-register-not-an-integer",
        "obfuscate-not-a-boolean", "machine-dc-not-a-string", "machine-id-not-a-string",
        "link-dcs-not-strings", "relay-target-not-a-string", "poll-target-not-a-string",
        "load-file-path-not-a-string", "poll-period-nan", "step-at-inf"])
def test_run_schema_errors_exit_three_without_traceback(tmp_path, document):
    scenario = tmp_path / "bad.yaml"
    scenario.write_text(document)
    _assert_clean_error("run", str(scenario))


def test_deploy_policy_wrong_type_exits_three_without_traceback(tmp_path):
    from attestsim.scenario import Fleet, load_scenario

    golden = Fleet(load_scenario(honest()), 0).policies["golden"]
    policy = tmp_path / "policy.yaml"
    policy.write_text(golden + "runtime: {software: 5}\n")
    _assert_clean_error("deploy-policy", honest(), "--machine", "m0",
                        "--policy-file", str(policy))


@pytest.mark.parametrize("extra", [1, schema.MAX_DOCUMENT_CHARS])
def test_deploy_policy_file_over_the_limit_exits_three(tmp_path, capsys, monkeypatch, extra):
    """A policy file past the document limit is refused, and no more of it
    is read than the refusal needs."""
    handed = []

    def recording(document):
        handed.append(len(document))
        return parse_policy(document)

    monkeypatch.setattr("attestsim.agent.parse_policy", recording)
    policy = tmp_path / "policy.yaml"
    policy.write_text("#" * (schema.MAX_DOCUMENT_CHARS + extra))
    assert main(["deploy-policy", honest(), "--machine", "m0",
                 "--policy-file", str(policy)]) == 3
    assert "document is longer than" in capsys.readouterr().err
    assert handed[-1] == schema.MAX_DOCUMENT_CHARS + 1


def _python(*argv):
    """Run this checkout's package in a fresh interpreter, so a crash is an
    exit code rather than the end of the test session."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env)


def _assert_clean_error(*argv):
    proc = _python("-m", "attestsim", *argv)
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("attestsim: error:")


# composing any of these overflowed the C stack of libyaml's composer (exit 139)
DEEP_DOCUMENTS = {
    "flow-sequences": "[" * 50_000 + "]" * 50_000,
    "block-sequences": "- " * 50_000 + "x",
    "flow-mappings": "{b: " * 50_000,
}


@pytest.mark.parametrize("name", sorted(DEEP_DOCUMENTS))
def test_deep_nesting_exits_three(tmp_path, name):
    document = tmp_path / "deep.yaml"
    document.write_text(DEEP_DOCUMENTS[name])
    _assert_clean_error("run", str(document))
    _assert_clean_error("deploy-policy", honest(), "--machine", "m0",
                        "--policy-file", str(document))


@pytest.mark.parametrize("field", ["base_ms", "jitter_ms"])
def test_negative_link_latency_exits_three(tmp_path, capsys, field):
    """A negative delay would run the virtual clock backwards mid-poll."""
    doc = yaml.safe_load(Path(honest()).read_text())
    doc["network"] = {"links": [{"between": ["dc1", "dc1"], field: -5}]}
    document = tmp_path / "negative.yaml"
    document.write_text(yaml.safe_dump(doc))
    assert main(["run", str(document)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("attestsim: error: network link dc1-dc1:")
    assert f"{field} must not be negative" in err


def test_a_bad_link_is_named_by_its_index_not_echoed(tmp_path, capsys):
    doc = yaml.safe_load(Path(honest()).read_text())
    links = [{"between": pair} for pair in (["dc1", "dc1"], ["dc1", "dc2"], ["dc2", "dc2"])]
    links.append({"between": [f"dc{i}" for i in range(30_000)]})
    doc["network"] = {"links": links}
    document = tmp_path / "wide.yaml"
    document.write_text(yaml.safe_dump(doc))
    assert main(["run", str(document)]) == 3
    assert capsys.readouterr().err == ("attestsim: error: scenario.network.links[3].between: "
                                       "needs exactly two data centres, not 30000\n")


def test_deep_indentation_exits_three_on_the_pure_python_loader(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(schema, "YAML_LOADER", yaml.SafeLoader)
    document = tmp_path / "indented.yaml"
    document.write_text("".join(" " * k + "a:\n" for k in range(1400)))
    assert main(["run", str(document)]) == 3
    assert "nests too deeply" in capsys.readouterr().err


@pytest.mark.parametrize("name", sorted(DEEP_DOCUMENTS))
def test_deep_nesting_is_a_bad_request(tmp_path, name):
    document = tmp_path / "deep.yaml"
    document.write_text(DEEP_DOCUMENTS[name])
    proc = _python("-c", (
        "import sys\n"
        "from attestsim.scenario import execute_scenario, load_scenario\n"
        "_, fleet, _ = execute_scenario(load_scenario(sys.argv[1]), 0)\n"
        "response = fleet.apis['m0'].handle('POST', '/policy', open(sys.argv[2]).read())\n"
        "print(response.status, response.body['error'])\n"), honest(), str(document))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "400 document nests deeper than 64 levels\n"


@pytest.mark.parametrize("argv", [
    ["run", honest(), "--out"],
    ["modelcheck", "--out"],
    ["vwindow", "--trq", "155ms", "--tre", "58us", "--tvp", "100ms",
     "--floor", "40us", "--out"],
    ["gen-ima-log", "--events", "3", "--out"],
    ["deploy-policy", honest(), "--machine", "m0", "--policy", "golden", "--out"],
    ["poll", honest(), "--rounds", "1", "--out"],
], ids=lambda argv: "-".join(a.lstrip("-") for a in (argv[0], argv[-1])))
def test_artifact_in_a_missing_directory_exits_three(tmp_path, capsys, argv):
    code = main([*argv, str(tmp_path / "missing" / "artifact")])
    assert code == 3
    assert capsys.readouterr().err.startswith("attestsim: error:")


def test_run_json_matches_library_report(capsys):
    from attestsim.scenario import run_scenario

    code = main(["run", honest(), "--seed", "9", "--format", "json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report == asdict(run_scenario(honest(), 9))


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
    report = tmp_path / "report.json"
    code = main(["modelcheck", "--variant", "plain", "--machines", "2",
                 "--tpms", "2", "--depth", "5", "--out", str(report)])
    out = capsys.readouterr().out
    assert code == 2
    assert "VIOLATED" in out
    emitted = json.loads(report.read_text())
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


@pytest.mark.parametrize("machine,message", [
    ("mX", "unknown machine 'mX'"),
    ("m1", "machine 'm1' has no agent"),
])
def test_deploy_policy_names_a_machine_it_cannot_reach(tmp_path, capsys, machine, message):
    doc = yaml.safe_load(Path(honest()).read_text())
    doc["machines"].append({"id": "m1"})
    document = tmp_path / "fleet.yaml"
    document.write_text(yaml.safe_dump(doc))
    assert main(["deploy-policy", str(document), "--machine", machine,
                 "--policy", "golden"]) == 3
    assert capsys.readouterr().err == f"attestsim: error: {message}\n"


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


# --------------------------------------------------------------------------
# exit-code contract under one random change to a valid input
# --------------------------------------------------------------------------


def _fuzz_bases():
    """(command, document) pairs that exit cleanly: every shipped scenario
    under ``run`` and ``poll``, and a policy with every section under
    ``deploy-policy``."""
    from attestsim.policy import pem_encode
    from attestsim.scenario import Fleet, load_scenario

    bases = []
    for path in sorted(SCENARIOS.glob("*.yaml")):
        doc = load_scenario(str(path))
        bases += [("run", doc), ("poll", doc)]
    fleet = Fleet(load_scenario(honest()), 0)
    policy = yaml.safe_load(fleet.policies["golden"])
    policy["runtime"] = {
        "certificate": pem_encode(fleet.platform_ca.public),
        "software": [{"name": "base", "whitelist": {"ab" * 32: "/usr/bin/tool"}}],
    }
    policy["location"] = [{"host": "beacon-dc1", "max_latency": 2.0,
                           "chain": pem_encode(fleet.platform_ca.public)}]
    return bases + [("deploy-policy", policy)]


FUZZ_BASES = _fuzz_bases()
# integers stay within -2..4 so no change asks for unbounded explorer or poll work
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-2, 4),
                    st.sampled_from([-1.5, 0.5, 2.5]), st.text("ab0/- ", max_size=4))
VALUES = st.recursive(SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=2), st.dictionaries(st.text("ab", max_size=2), inner, max_size=2)),
    max_leaves=4)


def _containers(value):
    """Every mapping, and every non-empty list, inside ``value``."""
    if isinstance(value, dict) or value:
        yield value
    for child in (value.values() if isinstance(value, dict) else value):
        if isinstance(child, (dict, list)):
            yield from _containers(child)


@st.composite
def one_change(draw):
    """A base document with one value replaced, one key deleted or one
    unknown key added, anywhere in it."""
    command, base = draw(st.sampled_from(FUZZ_BASES))
    doc = copy.deepcopy(base)
    node = draw(st.sampled_from(list(_containers(doc))))
    if isinstance(node, list):
        node[draw(st.integers(0, len(node) - 1))] = draw(VALUES)
        return command, doc
    change = draw(st.sampled_from(("replace", "delete", "add") if node else ("add",)))
    if change == "add":
        node["zz-unknown"] = draw(VALUES)
    elif change == "delete":
        del node[draw(st.sampled_from(list(node)))]
    else:
        node[draw(st.sampled_from(list(node)))] = draw(VALUES)
    return command, doc


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(one_change())
@example(("run", yaml.safe_load("machines: [{id: m0, dc: [1], agent: {}}]\n"
                               "network: {links: []}\npoll: {rounds: 1}\n")))
@example(("run", yaml.safe_load("machines: [{id: [m0]}]\n")))
@example(("run", yaml.safe_load("machines: [{id: m0}]\n"
                               "network: {links: [{between: [1, [2]]}]}\n")))
@example(("run", yaml.safe_load("machines: [{id: m0, agent: {}}, {id: m1}]\n"
                               "script: [{at: 0, action: relay, machine: m0, target: [m1]}]\n")))
@example(("poll", yaml.safe_load("machines: [{id: m0, agent: {}}]\npoll: {targets: [[m0]]}\n")))
@example(("run", yaml.safe_load("machines: [{id: m0}]\n"
                               "script: [{at: 0, action: boot, machine: m0},"
                               " {at: 1, action: load-file, machine: m0, path: 5}]\n")))
@example(("run", yaml.safe_load("machines: [{id: m0}]\n"
                               "script: [{at: 0, action: boot, machine: m0},"
                               " {at: 1, action: boot, machine: m0}]\n")))
@example(("deploy-policy", {**FUZZ_BASES[-1][1], "runtime": {"software": 5}}))
def test_one_change_to_a_valid_input_exits_cleanly(case):
    command, doc = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.yaml"
        path.write_text(yaml.safe_dump(doc))
        argv = {
            "run": ["run", str(path)],
            "poll": ["poll", str(path), "--rounds", "1"],
            "deploy-policy": ["deploy-policy", honest(), "--machine", "m0",
                              "--policy-file", str(path)],
        }[command]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 2, 3)
    if code == 3:
        assert err.getvalue().startswith("attestsim: error:")


# --------------------------------------------------------------------------
# exit-code contract over argv for every subcommand
# --------------------------------------------------------------------------

# every bound that could ask for minutes of explorer, log or poll work is
# always given and kept small; "{tmp}" stands for a fresh temporary directory
SMALL = st.sampled_from(["-1", "0", "1", "2"])
SEEDS = st.sampled_from(["0", "1", "7", "-1", "x"])
SCENARIO_ARGS = st.sampled_from(sorted(str(p) for p in SCENARIOS.glob("*.yaml"))
                                + ["{tmp}/missing.yaml"])
DURATIONS = st.sampled_from(["155ms", "58us", "100ms", "40us", "1s", "0s", "-5ms", "12",
                             "ms", "1e400s"])
# per subcommand: (flag, values, always given)
SUBCOMMAND_OPTIONS = {
    "run": [("--seed", SEEDS, False)],
    "modelcheck": [("--variant", st.sampled_from(["plain", "obfuscated", "other"]), False),
                   ("--machines", SMALL, False),
                   ("--tpms", SMALL, False),
                   ("--depth", SMALL, False),
                   ("--max-states", st.sampled_from(["500", "200", "40", "0", "-1"]), True)],
    "vwindow": [(flag, DURATIONS, True) for flag in ("--trq", "--tre", "--tvp", "--floor")],
    "gen-ima-log": [("--seed", SEEDS, False),
                    ("--events", st.sampled_from(["20", "1", "0", "-1", "x"]), True)],
    "deploy-policy": [("--seed", SEEDS, False),
                      ("--machine", st.sampled_from(["m0", "m1", "zz"]), True)],
    "poll": [("--seed", SEEDS, False), ("--rounds", SMALL, True),
             ("--period", DURATIONS, False)],
}
POLICY_SOURCES = st.one_of(
    st.tuples(st.just("--policy"), st.sampled_from(["golden", "nope"])),
    st.tuples(st.just("--policy-file"), st.sampled_from([honest(), "{tmp}/missing.yaml"])),
)


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(SUBCOMMAND_OPTIONS)))
    argv = [command]
    if command in ("run", "deploy-policy", "poll"):
        argv.append(draw(SCENARIO_ARGS))
    if command == "deploy-policy":
        argv += draw(POLICY_SOURCES)
    for flag, values, given_always in SUBCOMMAND_OPTIONS[command]:
        if given_always or draw(st.booleans()):
            argv += [flag, draw(values)]
    if draw(st.booleans()):
        argv += ["--format", draw(st.sampled_from(["json", "text", "xml"]))]
    if draw(st.booleans()):
        argv += ["--out", draw(st.sampled_from(["{tmp}/out", "{tmp}/no-dir/out"]))]
    if draw(st.sampled_from([False] * 9 + [True])):  # now and then a stray token
        argv.insert(draw(st.integers(0, len(argv))), draw(st.text(max_size=6)))
    return argv


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(argvs())
def test_every_subcommand_exits_zero_two_or_three(argv):
    with tempfile.TemporaryDirectory() as tmp:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main([arg.replace("{tmp}", tmp) for arg in argv])
            except SystemExit as exc:  # argparse: usage errors and --help
                code = exc.code
    assert code in (0, 2, 3), err.getvalue()
