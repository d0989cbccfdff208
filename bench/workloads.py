"""The three benchmark workloads and their correctness checks.

A workload is run as a series of episodes.  Each episode builds its state
from the generated inputs (``setup``, timed as set-up) and then does the
measured work (``measure``).  Every operation is counted as attempted; an
operation fails on a wrong verdict, an unexpected alert, a non-200
response or an exception.  Virtual time only appears in these checks.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import gen

# sizes, chosen so that one episode takes a few seconds on a 2-CPU host
POLL_STEADY_FILES = 250
POLL_STEADY_ROUNDS = 100
LOG_CHURN_BATCH = 5
LOG_CHURN_ROUNDS = 100
# variant -> (machines, tpms, depth); small enough for about 30 episodes a run,
# so the fastest episode is rarely one slowed down by the host
EXPLORE_BOUNDS = {
    "obfuscated": (2, 2, 5),
    "plain": (3, 3, 5),
}
WARMUP_BOUND = (2, 2, 5)  # the bound the runtime-relay scenario embeds
PINNED_TRACE = [
    "boot(m0, golden)",
    "boot(m1, malicious-initramfs)",
    "q0(m1, t0)",
    "seal(m1)",
    "verify(m1)",
]

# shipped scenario -> (machine, expected failed condition or None for trusted)
SCENARIO_OUTCOMES = {
    "honest": ("m0", None),
    "wrong-machine-unseal": ("m1", "c1-unseal"),
    "tampered-kernel": ("m0", "c2-dynamic-pcr"),
    "runtime-relay": ("m0", "c3-obfuscated-static-pcr"),
    "reboot-attack": ("m0", "c4-reboot-counter"),
}


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)

    def check(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(message)
        return ok

    def add(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.errors += other.errors[: max(0, 20 - len(self.errors))]


class Workload:
    """One benchmark workload: ``prepare`` makes the inputs from the seed,
    ``gate`` runs once-per-run checks, and each episode is ``setup`` followed
    by ``measure``.  ``measure`` calls ``pause`` before each timed piece of
    work; time spent in it is not measured."""

    name = ""

    def __init__(self, sim, root: Path):
        self.sim = sim  # the simulator's modules, looked up at call time
        self.root = root

    def gate(self, seed: int) -> Tally:
        return Tally()


@dataclass
class Episode:
    wall_s: float  # summed time of the measured work, pauses excluded
    answers_ms: List[float]  # latency of each answer the user waits for, in order
    verdicts: int
    tally: Tally
    extra: Dict[str, float] = field(default_factory=dict)


# --------------------------------------------------------------------------
# explore
# --------------------------------------------------------------------------


class Explore(Workload):
    """Bounded explorer: the obfuscated variant holds after an exhaustive
    search, the plain variant is violated early with the pinned relay trace."""

    name = "explore"

    def prepare(self, seed: int):
        return seed  # the bounds are fixed by the paper; the seed is recorded only

    def gate(self, seed: int) -> Tally:
        """The shipped scenarios give the outcomes their comments state."""
        tally = Tally()
        for name, (machine, condition) in SCENARIO_OUTCOMES.items():
            path = self.root / "scenarios" / f"{name}.yaml"
            try:
                result = self.sim.scenario.run_scenario(str(path), seed)
            except Exception as exc:  # any failure to run counts against the gate
                tally.check(False, f"scenario {name}: {exc!r}")
                continue
            verdict = result.verdicts.get(machine, {})
            if condition is None:
                ok = verdict.get("trusted") is True and result.all_compliant
            else:
                ok = (verdict.get("trusted") is False
                      and verdict.get("failed_condition") == condition)
            if name == "runtime-relay":
                ok = ok and result.explorer is not None and not result.explorer["property_holds"]
            if name == "reboot-attack":
                first = result.alerts[0] if result.alerts else None
                ok = ok and first is not None and first.kind == "violation" \
                    and first.machine == machine and first.timestamp_ms <= 1000.0
            tally.check(ok, f"scenario {name}: unexpected outcome {verdict}")
        return tally

    def _config(self, variant: str, bound):
        machines, tpms, depth = bound
        return self.sim.explore.CheckConfig(
            machines=machines, tpms=tpms, derivation_depth=depth,
            obfuscate=variant == "obfuscated", max_states=2_000_000,
        )

    def _check_verdict(self, tally: Tally, variant: str, verdict) -> None:
        if variant == "obfuscated":
            tally.check(verdict.property_holds, "obfuscated variant reported VIOLATED")
            return
        steps = (verdict.counterexample or {}).get("steps")
        tally.check(not verdict.property_holds and steps == PINNED_TRACE,
                    f"plain variant: holds={verdict.property_holds} trace={steps}")

    def setup(self, seed: int):
        configs = {v: self._config(v, b) for v, b in EXPLORE_BOUNDS.items()}
        tally = Tally()
        warmup = self.sim.explore.check(self._config("plain", WARMUP_BOUND))
        self._check_verdict(tally, "plain", warmup)
        return configs, tally, warmup.states_explored

    def measure(self, state, pause) -> Episode:
        configs, tally, warmup_states = state
        extra = {"states.warmup": warmup_states}
        wall = 0.0
        for variant in ("obfuscated", "plain"):
            pause()
            t0 = time.perf_counter()
            try:
                verdict = self.sim.explore.check(configs[variant])
            except Exception as exc:
                tally.check(False, f"{variant}: {exc!r}")
                continue
            finally:
                elapsed = time.perf_counter() - t0
                wall += elapsed
            extra[f"verdict_s.{variant}"] = elapsed
            extra[f"states.{variant}"] = verdict.states_explored
            self._check_verdict(tally, variant, verdict)
        return Episode(wall, [wall * 1000.0], 2, tally, extra)


# --------------------------------------------------------------------------
# fleet workloads
# --------------------------------------------------------------------------


class _RecordingApi:
    """Keeps the controller's responses so every verdict can be checked."""

    def __init__(self, api):
        self.api = api
        self.responses = []

    def handle(self, method: str, path: str, body: str = ""):
        response = self.api.handle(method, path, body)
        self.responses.append(response)
        return response


@dataclass
class _Fleet:
    inputs: gen.FleetInputs
    fleet: object
    controller: object
    apis: Dict[str, _RecordingApi]
    signatures: Dict[str, bytes]
    tally: Tally


class _FleetWorkload(Workload):
    def setup(self, inputs: gen.FleetInputs) -> _Fleet:
        sim, tally = self.sim, Tally()
        result, fleet, _ = sim.scenario.execute_scenario(inputs.scenario, inputs.seed)
        for mid in inputs.machine_ids:
            established = result.verdicts.get(mid, {})
            tally.check(established.get("trusted") is True,
                        f"{mid} not trusted after establish: {established}")
        distributor = fleet.platform_ca  # the scenario runner signs with it too
        signatures = {
            f.path: sim.crypto.sign(sim.crypto.sha256(f.content.encode()), distributor)
            for batch in inputs.batches for files in batch.values() for f in files
            if f.signed
        }
        text = gen.policy_text(fleet.policies["golden"], inputs, distributor.public,
                               fleet.platform_ca.public)
        controller = sim.controller.Controller(clock=fleet.clock, net=fleet.net)
        apis = {}
        for mid in inputs.machine_ids:
            api = apis[mid] = _RecordingApi(fleet.apis[mid])
            response = api.handle("POST", "/policy", text)
            if tally.check(response.status == 200, f"deploy to {mid}: {response.body}"):
                endpoint = f"agent-{mid}" if fleet.net is not None else None
                controller.register(mid, api, endpoint)
                controller.set_policy(mid, response.body["policy_id"])
        return _Fleet(inputs, fleet, controller, apis, signatures, tally)

    def measure(self, state: _Fleet, pause) -> Episode:
        inputs, fleet, tally = state.inputs, state.fleet, state.tally
        rng = self.sim.crypto.Rng(inputs.seed).child("bench-poll-nonces")
        rounds_ms: List[float] = []
        rogue_at: Optional[float] = None
        loaded = 0
        wall = 0.0
        for r in range(inputs.rounds):
            pause()
            t0 = time.perf_counter()
            for mid in inputs.machine_ids:
                files = list(inputs.batches[r][mid])
                if inputs.rogue and inputs.rogue[:2] == (r, mid):
                    files.append(inputs.rogue[2])
                machine = fleet.machines[mid]
                for f in files:
                    try:
                        machine.load_file(f.path, f.content.encode(),
                                          state.signatures.get(f.path))
                        tally.check(True, "")
                    except Exception as exc:
                        tally.check(False, f"load {f.path} on {mid}: {exc!r}")
                loaded += len(files)
            wall += time.perf_counter() - t0
            fleet.clock.advance(gen.POLL_PERIOD_MS)
            if inputs.rogue and inputs.rogue[0] == r:
                rogue_at = fleet.clock.now_ms
            for api in state.apis.values():
                api.responses.clear()
            t0 = time.perf_counter()
            try:
                state.controller.poll_round(rng)
            except Exception as exc:
                for mid in inputs.machine_ids:
                    tally.check(False, f"poll round {r} {mid}: {exc!r}")
                continue
            finally:
                elapsed = time.perf_counter() - t0
                wall += elapsed
                rounds_ms.append(elapsed * 1000.0)
            for mid in inputs.machine_ids:
                self._check_verdict(tally, inputs, r, mid, state.apis[mid].responses)
        self._check_alerts(tally, inputs, state.controller.alerts, rogue_at)
        verdicts = inputs.rounds * len(inputs.machine_ids)
        return Episode(wall, rounds_ms, verdicts, tally, {"events": loaded})

    @staticmethod
    def _check_verdict(tally: Tally, inputs, r: int, mid: str, responses) -> None:
        if len(responses) != 1 or responses[0].status != 200:
            tally.check(False, f"round {r} {mid}: responses {responses}")
            return
        body = responses[0].body
        rogue = inputs.rogue
        if rogue and rogue[1] == mid and r >= rogue[0]:
            kinds = [v["kind"] for v in body["violations"]]
            ok = (body["compliant"] is False and kinds == ["untrusted-file"]
                  and rogue[2].path in body["violations"][0]["detail"])
        else:
            ok = body["compliant"] is True
        tally.check(ok, f"round {r} {mid}: verdict {body}")

    @staticmethod
    def _check_alerts(tally: Tally, inputs, alerts, rogue_at) -> None:
        expected = []
        if inputs.rogue:
            expected = [(inputs.rogue[1], "violation", rogue_at)]
        got = [(a.machine, a.kind, a.timestamp_ms) for a in alerts]
        tally.check(got == expected, f"alerts {got}, expected {expected}")


class PollSteady(_FleetWorkload):
    """Read-only polls over long, unchanging logs with a beacon location rule."""

    name = "poll-steady"

    def prepare(self, seed: int) -> gen.FleetInputs:
        return gen.poll_steady_inputs(seed, POLL_STEADY_FILES, POLL_STEADY_ROUNDS)


class LogChurn(_FleetWorkload):
    """Logs that grow before every poll; one planted untrusted file."""

    name = "log-churn"

    def prepare(self, seed: int) -> gen.FleetInputs:
        return gen.log_churn_inputs(seed, LOG_CHURN_BATCH, LOG_CHURN_ROUNDS)


WORKLOADS = {w.name: w for w in (Explore, PollSteady, LogChurn)}
