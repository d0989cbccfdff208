"""Command-line surface: scenario runs, the symbolic checker, window math.

Exit codes are uniform across subcommands: 0 when everything is compliant
(or the checked property holds), 2 when a violation was detected, 3 for
execution errors — unparsable input, missing files, exceeded budgets and
bad usage alike.
"""

import argparse
import json
import sys
from dataclasses import asdict
from typing import List, Optional, Tuple

from . import ima
from .controller import (
    ControllerError,
    format_duration_ms,
    parse_duration,
    vulnerability_window,
)
from .modelcheck import StateBudgetExceeded, check
from .scenario import (
    ScenarioError,
    ScenarioResult,
    check_config,
    execute_scenario,
    load_scenario,
    run_scenario,
)
from .schema import MAX_DOCUMENT_CHARS
from .tpm import NONCE_LEN

EXIT_OK = 0
EXIT_VIOLATION = 2
EXIT_ERROR = 3


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage failures exit with the error code."""

    def error(self, message):
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    seeded = argparse.ArgumentParser(add_help=False)  # for the randomised subcommands
    seeded.add_argument("--seed", type=int, default=0,
                        help="master seed for all randomness (default 0)")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", metavar="PATH",
                        help="write the run's artifact to this file")
    common.add_argument("--format", choices=("json", "text"), default="text",
                        help="stdout rendering (default text)")
    parser = _Parser(prog="attestsim",
                     description="TPM-anchored attestation simulator")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("run", parents=[seeded, common],
                       help="execute a scenario file")
    p.add_argument("scenario", help="path to a scenario yaml")

    p = sub.add_parser("modelcheck", parents=[common],
                       help="explore the protocol state space")
    # an omitted bound is absent from the namespace: CheckConfig's default holds
    p.add_argument("--variant", choices=("plain", "obfuscated"),
                   default=argparse.SUPPRESS)
    p.add_argument("--machines", type=int, default=argparse.SUPPRESS)
    p.add_argument("--tpms", type=int, default=argparse.SUPPRESS)
    p.add_argument("--depth", type=int, default=argparse.SUPPRESS,
                   help="adversary derivation depth bound")
    p.add_argument("--max-states", type=int, default=argparse.SUPPRESS)

    p = sub.add_parser("vwindow", parents=[common],
                       help="vulnerability-window calculator")
    p.add_argument("--trq", required=True, help="quote read time, e.g. 155ms")
    p.add_argument("--tre", required=True, help="per-event read time, e.g. 58us")
    p.add_argument("--tvp", required=True, help="verify round trip, e.g. 100ms")
    p.add_argument("--floor", required=True,
                   help="minimum file-open time, e.g. 40us")

    p = sub.add_parser("gen-ima-log", parents=[seeded, common],
                       help="emit a seeded synthetic measurement log")
    p.add_argument("--events", type=int, default=1800)

    p = sub.add_parser("deploy-policy", parents=[seeded, common],
                       help="deploy a policy into a scenario's fleet")
    p.add_argument("scenario", help="path to a scenario yaml")
    p.add_argument("--machine", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--policy-file", help="policy document to deploy")
    group.add_argument("--policy",
                       help="a name from the scenario's policies block")

    p = sub.add_parser("poll", parents=[seeded, common],
                       help="run a scenario, then keep polling its agents")
    p.add_argument("scenario", help="path to a scenario yaml")
    p.add_argument("--rounds", type=int, default=5)
    p.add_argument("--period", default="1s", help="poll period (default 1s)")

    return parser


# --------------------------------------------------------------------------
# subcommand handlers: each returns (exit code, report dict, text lines)
# --------------------------------------------------------------------------


def _write(path: str, data) -> None:
    """Write one artifact, text or bytes; ``main`` maps an OSError to exit 3."""
    with open(path, "wb" if isinstance(data, bytes) else "w") as fh:
        fh.write(data)


def _alert_lines(alerts) -> List[str]:
    lines = [f"  alert {a.kind} {a.machine} at {a.timestamp_ms:g} ms" for a in alerts]
    return lines or ["  alerts: none"]


def _scenario_text(result: ScenarioResult) -> List[str]:
    lines = [f"scenario {result.name} (seed {result.seed})"]
    for machine, verdict in sorted(result.verdicts.items()):
        if "trusted" in verdict:
            state = "trusted" if verdict["trusted"] else (
                f"UNTRUSTED [{verdict.get('failed_condition')}]")
        else:
            state = "no establishment attempted"
        if verdict.get("compromised"):
            state += f", compromised: {verdict['compromised']}"
        lines.append(f"  {machine}: {state}")
    lines.extend(_alert_lines(result.alerts))
    if result.explorer is not None:
        holds = result.explorer["property_holds"]
        lines.append(f"  explorer: property {'holds' if holds else 'VIOLATED'}")
    lines.append(f"verdict: {'all compliant' if result.all_compliant else 'violations detected'}")
    return lines


def cmd_run(args) -> Tuple[int, dict, List[str]]:
    result = run_scenario(args.scenario, args.seed)
    code = EXIT_OK if result.all_compliant else EXIT_VIOLATION
    return code, asdict(result), _scenario_text(result)


def cmd_modelcheck(args) -> Tuple[int, dict, List[str]]:
    config = check_config(vars(args))
    verdict = check(config)
    report = verdict.to_dict()
    lines = [
        f"variant {config.variant}: machines={config.machines} "
        f"tpms={config.tpms} depth={config.derivation_depth}",
        f"explored {verdict.states_explored} states in {verdict.layers} layers",
    ]
    if verdict.property_holds:
        lines.append("property trusted-implies-attached-tpm: holds")
        return EXIT_OK, report, lines
    lines.append("property trusted-implies-attached-tpm: VIOLATED")
    for i, step in enumerate(verdict.counterexample["steps"], 1):
        lines.append(f"  {i}. {step}")
    v = verdict.counterexample["world"]["violation"]
    lines.append(
        f"  machine m{v['machine']} trusted on quotes from t{v['x']} "
        f"while attached to t{v['y']}"
    )
    return EXIT_VIOLATION, report, lines


def cmd_vwindow(args) -> Tuple[int, dict, List[str]]:
    report = vulnerability_window(
        t_rq_us=parse_duration(args.trq),
        t_re_us=parse_duration(args.tre),
        t_vp_us=parse_duration(args.tvp),
        file_open_floor_us=parse_duration(args.floor),
    )
    lines = [
        f"n = {report['n']}",
        f"n*t_re = {format_duration_ms(report['n_t_re_us'])}",
        f"t_vw = {format_duration_ms(report['t_vw_us'])}",
    ]
    return EXIT_OK, report, lines


def cmd_gen_ima_log(args) -> Tuple[int, dict, List[str]]:
    if args.events < 1:
        raise ControllerError("--events must be >= 1")
    log_bytes, aggregate = ima.render_fixture_log(
        ima.generate_boot_manifest(args.seed, args.events))
    report = {
        "events": args.events,
        "seed": args.seed,
        "bytes": len(log_bytes),
        "aggregate": aggregate.hex(),
    }
    lines = [f"{args.events} events, {len(log_bytes)} bytes, "
             f"aggregate {aggregate.hex()}"]
    if args.out:
        _write(args.out, log_bytes)
        lines.append(f"log written to {args.out}")
    else:
        sys.stdout.write(log_bytes.decode())
    return EXIT_OK, report, lines


def cmd_deploy_policy(args) -> Tuple[int, dict, List[str]]:
    doc = load_scenario(args.scenario)
    _result, fleet, _ = execute_scenario(doc, args.seed)
    api = fleet.api(args.machine)
    if args.policy_file:
        with open(args.policy_file) as fh:  # main turns an OSError into exit 3
            body = fh.read(MAX_DOCUMENT_CHARS + 1)  # enough for read_yaml to refuse it
    else:
        if args.policy not in fleet.policies:
            raise ScenarioError(f"scenario has no policy named {args.policy!r}")
        body = fleet.policies[args.policy]

    resp = api.handle("POST", "/policy", body)
    if resp.status == 400:
        raise ScenarioError(f"policy rejected: {resp.body.get('error')}")
    if resp.status != 200:
        report = {"deployed": False, **resp.body}
        return EXIT_VIOLATION, report, [f"deploy refused: {resp.body.get('error')}"]

    policy_id = resp.body["policy_id"]
    nonce = fleet.rng.child("cli-deploy-nonce").bytes(NONCE_LEN)
    verdict = api.handle("GET", f"/policy/{policy_id}?nonce={nonce.hex()}")
    report = {"deployed": True, "policy_id": policy_id,
              "verdict": verdict.body}
    compliant = verdict.status == 200 and verdict.body.get("compliant")
    lines = [
        f"policy {policy_id} deployed to {args.machine}",
        f"verdict: {'compliant' if compliant else 'NON-COMPLIANT'}",
    ]
    for violation in verdict.body.get("violations", []):
        lines.append(f"  violation {violation['kind']}: {violation['detail']}")
    return (EXIT_OK if compliant else EXIT_VIOLATION), report, lines


def cmd_poll(args) -> Tuple[int, dict, List[str]]:
    if args.rounds < 1:
        raise ControllerError("--rounds must be >= 1")
    period_ms = parse_duration(args.period) / 1000
    if period_ms <= 0:
        raise ControllerError("--period must be positive")
    doc = load_scenario(args.scenario)
    _result, fleet, controller = execute_scenario(doc, args.seed)
    rng = fleet.rng.child("cli-poll-nonces")
    for _ in range(args.rounds):
        fleet.clock.advance(period_ms)
        controller.poll_round(rng)

    alerts = controller.alerts
    report = {"rounds": args.rounds, "period_ms": period_ms,
              "alerts": [asdict(a) for a in alerts]}
    lines = [f"{args.rounds} rounds at {period_ms:g} ms", *_alert_lines(alerts)]
    bad = any(a.alarm for a in alerts)
    return (EXIT_VIOLATION if bad else EXIT_OK), report, lines


_HANDLERS = {
    "run": cmd_run,
    "modelcheck": cmd_modelcheck,
    "vwindow": cmd_vwindow,
    "gen-ima-log": cmd_gen_ima_log,
    "deploy-policy": cmd_deploy_policy,
    "poll": cmd_poll,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code, report, lines = _HANDLERS[args.command](args)
        # --out always receives the canonical compact report; gen-ima-log is
        # the one exception, where it receives the log itself
        if args.out and args.command != "gen-ima-log":
            _write(args.out, json.dumps(report, sort_keys=True,
                                        separators=(",", ":")) + "\n")
    except (ScenarioError, ControllerError, StateBudgetExceeded, ValueError, OSError) as exc:
        print(f"attestsim: error: {exc}", file=sys.stderr)
        return EXIT_ERROR

    if args.format == "json":
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        for line in lines:
            print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
