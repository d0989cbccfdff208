"""Outside-in tracing: spans around calls into the simulator's modules.

The tracer wraps public functions and methods of ``attestsim`` from the
benchmark's side; no program code is edited.  A module-level function is
patched at every place a module bound it (``from .crypto import verify``
gives ``policy``, ``ima`` and ``netsim`` their own name for it), a method
on its class.  Wrappers exist only while :meth:`Tracer.install` is in
effect.

Each call records a span (name, start, end, parent span).  Spans stay in
memory; :func:`self_times` folds them into per-name self time, which is a
span's duration minus the durations of its direct children.  The run is
single-threaded, so children nest inside their parent and never overlap.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Sequence, Tuple

# metric prefix -> "module:qualified name" of the function that gets wrapped
TARGETS: Tuple[Tuple[str, str], ...] = (
    ("crypto.sign", "attestsim.crypto:sign"),
    ("crypto.verify", "attestsim.crypto:verify"),
    ("crypto.seal", "attestsim.crypto:seal"),
    ("crypto.unseal", "attestsim.crypto:unseal"),
    ("crypto.generate_keypair", "attestsim.crypto:generate_keypair"),
    ("tpm.pcr_extend", "attestsim.tpm:TpmState.pcr_extend"),
    ("tpm.quote", "attestsim.tpm:TpmState.quote"),
    ("machine.boot", "attestsim.machine:boot"),
    ("machine.load_file", "attestsim.machine:Machine.load_file"),
    ("ima.measure_file", "attestsim.ima:measure_file"),
    ("ima.read_new_events", "attestsim.ima:read_new_events"),
    ("ima.parse_line", "attestsim.ima:parse_line"),
    ("policy.parse_policy", "attestsim.policy:parse_policy"),
    ("policy.evaluate", "attestsim.policy:evaluate"),
    ("netsim.measure_proximity", "attestsim.netsim:measure_proximity"),
    ("agent.agent_init", "attestsim.agent:agent_init"),
    ("agent.establish_trust", "attestsim.agent:establish_trust"),
    ("agent.refresh", "attestsim.agent:Agent.refresh"),
    ("agent.verify_policy", "attestsim.agent:Agent.verify_policy"),
    ("controller.poll_round", "attestsim.controller:Controller.poll_round"),
    ("scenario.execute_scenario", "attestsim.scenario:execute_scenario"),
    ("modelcheck.check", "attestsim.modelcheck.explore:check"),
    ("modelcheck.canonical_key", "attestsim.modelcheck.world:World.canonical_key"),
    ("modelcheck.successors", "attestsim.modelcheck.world:successors"),
    ("modelcheck.violations", "attestsim.modelcheck.world:violations"),
)


def _result_len(args, kwargs, result) -> int:
    return len(result)


def _first_len(args, kwargs, result) -> int:
    return len(result[0])


def _view_events(args, kwargs, result) -> int:
    view = args[1] if len(args) > 1 else kwargs["view"]
    return len(view.ima_events)


# metric -> (span name whose calls it sums over, amount per call)
COUNTERS: Dict[str, Tuple[str, Callable]] = {
    "modelcheck.successors.generated": ("modelcheck.successors", _result_len),
    "policy.evaluate.events_appraised": ("policy.evaluate", _view_events),
    "ima.read_new_events.events": ("ima.read_new_events", _first_len),
}


class Tracer:
    def __init__(self, targets: Sequence[Tuple[str, str]] = TARGETS):
        self.targets = tuple(targets)
        self.names: List[str] = [name for name, _ in self.targets]
        self.spans: List[list] = []
        self.counters: Dict[str, int] = defaultdict(int)
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _wrap(self, index: int, fn: Callable) -> Callable:
        name = self.names[index]
        counters = [(metric, amount) for metric, (span, amount) in COUNTERS.items()
                    if span == name]
        spans, stack, clock, totals = self.spans, self._stack, time.perf_counter, self.counters

        def traced(*args, **kwargs):
            span = [index, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            for metric, amount in counters:
                totals[metric] += amount(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Patch every target at every binding site in loaded attestsim modules."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "attestsim" or n.startswith("attestsim."))]
        for index, (_name, where) in enumerate(self.targets):
            module_name, qualname = where.split(":")
            owner = importlib.import_module(module_name)
            parts = qualname.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part)
            original = getattr(owner, parts[-1])
            wrapper = self._wrap(index, original)
            if len(parts) > 1:  # a method: the class is its only binding
                self._patch(owner, parts[-1], wrapper)
                continue
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapper)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()

    # -- reporting -----------------------------------------------------------

    def durations(self, name: str) -> List[float]:
        """Span durations of ``name`` in call order."""
        index = self.names.index(name)
        return [s[2] - s[1] for s in self.spans if s[0] == index]

    def summary(self) -> Dict[str, Tuple[int, float]]:
        """name -> (calls, self seconds) over the recorded spans."""
        calls, selfs = self_times(self.spans, len(self.names))
        return {name: (calls[i], selfs[i]) for i, name in enumerate(self.names)}

    def write(self, path, spans: Sequence[Sequence]) -> None:
        """Write ``spans`` (recorded by this tracer) as JSON lines."""
        with open(path, "w") as fh:
            for name, start, end, parent in spans:
                fh.write(json.dumps({"name": self.names[name], "start": start,
                                     "end": end, "parent": parent}) + "\n")


def self_times(spans: Sequence[Sequence], n_names: int) -> Tuple[List[int], List[float]]:
    """Per name index: call count and self time, where self time is a span's
    duration minus the summed durations of its direct children."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    calls = [0] * n_names
    selfs = [0.0] * n_names
    for i, (name, start, end, _parent) in enumerate(spans):
        calls[name] += 1
        selfs[name] += (end - start) - child[i]
    return calls, selfs
