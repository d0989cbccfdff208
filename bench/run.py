"""attestsim benchmark: one command per workload run.

    python3 bench/run.py --workload explore --seed 1 --seconds 30 --trace 0

Run from the repository root.  The simulator is imported from ``src/`` of
the same checkout, never from an installed copy.  Episodes (set-up plus
measured work) repeat until ``--seconds`` have passed and at least
``MIN_EPISODES`` have run.  Progress lines go to stdout; the last stdout
line is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer ones
with ``--trace 1``).  The line before it carries the run's context: seed,
sample counts, Python version, CPU count and git revision.

Exit codes: 0 when every correctness check passed, 1 when one failed (the
result line is still printed), 3 when the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_EPISODES = 3
SWITCH_GAIN = 1.1  # another CPU must probe this much faster to move there
TRACE_DIR = ROOT / ".bench_traces"


def load_simulator() -> SimpleNamespace:
    """Import attestsim from this checkout's ``src/`` or fail."""
    src = ROOT / "src"
    if not (src / "attestsim" / "__init__.py").is_file():
        raise ImportError(f"no attestsim sources under {src}")
    sys.path.insert(0, str(src))
    modules = {}
    for short, name in (("crypto", "attestsim.crypto"),
                        ("scenario", "attestsim.scenario"),
                        ("controller", "attestsim.controller"),
                        ("explore", "attestsim.modelcheck.explore")):
        modules[short] = importlib.import_module(name)
    origin = Path(modules["crypto"].__file__).resolve()
    if src.resolve() not in origin.parents:
        raise ImportError(f"attestsim was imported from {origin}, not from {src}")
    return SimpleNamespace(**modules)


def git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            ref_file = ROOT / ".git" / name
            if ref_file.is_file():
                return ref_file.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _probe_s() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(20_000):
        total += i * i
    return time.perf_counter() - start


def settle_on_fastest_cpu(allowed) -> None:
    """Pin this process to the allowed CPU that runs a fixed loop fastest now.

    On a shared host each CPU's speed drifts with what other tenants run on
    its sibling threads, for seconds at a time, and the kernel does not
    see it.  Choosing before every timed piece of work keeps it off a CPU
    that is slow at that moment; the work measured is unchanged.  The
    process moves only for a clear gain, since a move costs warm caches.
    """
    current = os.sched_getaffinity(0)
    timings = {}
    for cpu in sorted(allowed):
        os.sched_setaffinity(0, {cpu})
        timings[cpu] = min(_probe_s(), _probe_s())
    best = min(timings, key=timings.get)
    if len(current) == 1:
        (here,) = current
        if timings[here] <= timings[best] * SWITCH_GAIN:
            best = here
    os.sched_setaffinity(0, {best})


def run_episodes(workload, inputs, seconds: float, tracer=None):
    """Alternate untraced and (with a tracer) traced episodes until time is up."""
    plain, traced, layer_runs, first_spans = [], [], [], None
    allowed = os.sched_getaffinity(0)
    deadline = time.perf_counter() + seconds
    while True:
        settle_on_fastest_cpu(allowed)
        with_trace = tracer is not None and len(plain) > len(traced)
        if with_trace:
            tracer.reset()
            tracer.install()
        try:
            t0 = time.perf_counter()
            state = workload.setup(inputs)
            setup_s = time.perf_counter() - t0
            episode = workload.measure(state, lambda: settle_on_fastest_cpu(allowed))
        finally:
            if with_trace:
                tracer.uninstall()
        episode.extra["setup_s"] = setup_s
        (traced if with_trace else plain).append(episode)
        if with_trace:
            layer_runs.append((tracer.summary(), dict(tracer.counters),
                               {n: tracer.durations(n) for n in
                                ("machine.load_file", "agent.verify_policy")}))
            if first_spans is None:
                first_spans = list(tracer.spans)
            tracer.reset()
        print(json.dumps({"episode": len(plain) + len(traced), "traced": with_trace,
                          "setup_s": round(setup_s, 4), "wall_s": round(episode.wall_s, 4),
                          "failed": episode.tally.failed}), flush=True)
        done = len(plain) + len(traced)
        enough = (len(traced) >= 1 and len(plain) >= 1) if tracer else done >= MIN_EPISODES
        if enough and time.perf_counter() >= deadline:
            return plain, traced, layer_runs, first_spans


def best_answers(episodes) -> list:
    """Fastest time seen at each answer position across the run's episodes.

    Every episode repeats the same work, so position k is the same poll
    round (or explorer check) each time.  Slowdowns from other tenants of
    the host only add time; the minimum is the steadiest estimate of what
    the program itself costs there, and the shape across positions (a log
    that grows round by round) is kept.
    """
    positions = min(len(e.answers_ms) for e in episodes)
    return [min(e.answers_ms[k] for e in episodes) for k in range(positions)]


def end_to_end(episodes) -> dict:
    best = best_answers(episodes)
    return {
        "setup_s": (statistics.median([e.extra["setup_s"] for e in episodes]), "s"),
        "wall_s": (min(e.wall_s for e in episodes), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "verdicts_per_s": (episodes[0].verdicts / (sum(best) / 1000.0), "1/s"),
        "answer_p50_ms": (stats.percentile(best, 50), "ms"),
        "answer_p90_ms": (stats.percentile(best, 90), "ms"),
    }


def per_layer(plain, traced, layer_runs) -> dict:
    first_summary, first_counters, _ = layer_runs[0]
    out = {}
    for name, (calls, _self_s) in first_summary.items():
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.self_s"] = (statistics.median([run[0][name][1] for run in layer_runs]), "s")
    for metric, value in sorted(first_counters.items()):
        out[metric] = (value, "count")
    for metric in tracing.COUNTERS:
        out.setdefault(metric, (0, "count"))
    # every check starts from one initial state that no successor call generated
    states = sum(v for k, v in traced[0].extra.items() if k.startswith("states."))
    children = states - first_summary["modelcheck.check"][0]
    generated = out["modelcheck.successors.generated"][0]
    key_calls = first_summary["modelcheck.canonical_key"][0]
    out["modelcheck.states_new"] = (states, "count")
    out["modelcheck.canonical_key.calls_per_state"] = (
        key_calls / states if states else 0.0, "ratio")
    out["modelcheck.dup_ratio"] = (
        (generated - children) / generated if generated else 0.0, "ratio")
    for name in ("machine.load_file", "agent.verify_policy"):
        firsts, lasts = [], []
        for _summary, _counters, durations in layer_runs:
            if durations[name]:
                first, last = stats.decile_means(durations[name])
                firsts.append(first * 1e6)
                lasts.append(last * 1e6)
        out[f"{name}.us_first_decile"] = (statistics.median(firsts) if firsts else 0.0, "us")
        out[f"{name}.us_last_decile"] = (statistics.median(lasts) if lasts else 0.0, "us")
    out["trace.overhead_ratio"] = (
        min(e.wall_s for e in traced) / min(e.wall_s for e in plain), "ratio")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        sim = load_simulator()
    except ImportError as exc:
        print(f"bench: cannot import the simulator: {exc}", file=sys.stderr)
        return 3

    workload = workloads.WORKLOADS[args.workload](sim, ROOT)
    inputs = workload.prepare(args.seed)
    total = workload.gate(args.seed)
    tracer = tracing.Tracer() if args.trace else None
    plain, traced, layer_runs, spans = run_episodes(workload, inputs, args.seconds, tracer)
    episodes = plain + traced
    for e in episodes:
        total.add(e.tally)

    if args.trace:
        metrics = per_layer(plain, traced, layer_runs)
        TRACE_DIR.mkdir(exist_ok=True)
        dump = TRACE_DIR / f"{args.workload}-seed{args.seed}.jsonl"
        tracer.write(dump, spans)
    else:
        metrics = end_to_end(plain)

    context = {
        "workload": args.workload,
        "seed": args.seed,
        "episodes": len(plain),
        "traced_episodes": len(traced),
        "answers": sum(len(e.answers_ms) for e in plain),
        "failed_ratio": total.failed / max(1, total.attempted),
        "errors": total.errors,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "git_rev": git_revision(),
    }
    for key in sorted({k for e in plain for k in e.extra} - {"setup_s"}):
        context[key] = min(e.extra[key] for e in plain if key in e.extra)
    if args.workload == "log-churn":
        context["events_attested_per_s"] = context["events"] / min(e.wall_s for e in plain)
    print(json.dumps({"context": context}))
    correct = total.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": total.attempted,
        "failed": total.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
