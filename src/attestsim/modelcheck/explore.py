"""Serial layer-synchronous breadth-first exploration and verdict reporting.

One generator, :func:`_layers`, drives every traversal.  It expands the
frontier one layer at a time, keys each generated world exactly once, drops
duplicates against the states already seen, and yields the new layer in
discovery order together with the parent map.  A world is its own key: the
records in :mod:`.world` are tuples, so the seen-set hashes and compares
them structurally.

Discovery order is what makes the output canonical.  A world's *trace* is
its lexicographically smallest shortest event trace from the initial world,
events compared by ``repr``.  Expanding a layer in trace order, each
world's successors in ``repr(event)`` order, reaches every new world first
through its trace, so the parent map records exactly that trace and the
next layer comes out in trace order as well (the induction is spelled out
on :func:`_layers`).  The order, and so the verdict, depends only on the
model and the bounds.

:func:`check` runs the property over each layer as it arrives.  A violation
ends the search at its layer, and the first violating world of that layer
is the counterexample: its trace is the lexicographically smallest among
all shortest violating traces, which keeps the output stable under
unrelated model changes.  :func:`enumerate_reachable` flattens the same
layers for invariant sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from .terms import Term
from .world import (
    DPCR_G,
    SPCR_G,
    Event,
    World,
    build_world,
    successors,
    violations,
)


class StateBudgetExceeded(RuntimeError):
    """The reachable graph outgrew ``max_states`` before an answer."""


@dataclass(frozen=True)
class CheckConfig:
    machines: int = 2
    tpms: int = 2
    derivation_depth: int = 5
    obfuscate: bool = False
    max_states: int = 200_000

    def __post_init__(self):
        if self.machines < 1:
            raise ValueError("machines must be >= 1")
        if self.tpms < self.machines:
            raise ValueError("tpms must cover every machine")
        if self.derivation_depth < 0:
            raise ValueError("derivation_depth must be >= 0")

    @property
    def variant(self) -> str:
        return "obfuscated" if self.obfuscate else "plain"


@dataclass
class Verdict:
    property_holds: bool
    states_explored: int
    layers: int
    config: CheckConfig
    counterexample: Optional[dict] = None

    def to_dict(self) -> dict:
        return {
            "property": "trusted-implies-attached-tpm",
            "variant": self.config.variant,
            "bounds": {
                "machines": self.config.machines,
                "tpms": self.config.tpms,
                "derivation_depth": self.config.derivation_depth,
            },
            "property_holds": self.property_holds,
            "states_explored": self.states_explored,
            "layers": self.layers,
            "counterexample": self.counterexample,
        }


def event_str(event: Event) -> str:
    kind = event[0]
    args = []
    for pos, arg in enumerate(event[1:]):
        if isinstance(arg, int):
            prefix = "t" if kind == "tpm-init" or (kind == "q0" and pos == 1) else "m"
            args.append(f"{prefix}{arg}")
        else:
            args.append(str(arg))
    return f"{kind}({', '.join(args)})"


def _world_summary(world: World, violation: Tuple[int, int, int]) -> dict:
    machine_id, x, y = violation
    quote_tpm = world.tpms[x]
    return {
        "machines": [
            {
                "id": i,
                "phase": m.phase,
                "image": m.image,
                "bound_tpm": m.bound_tpm,
                "trusted": m.trusted,
            }
            for i, m in enumerate(world.machines)
        ],
        "tpms": [
            {
                "id": t,
                "spcr_is_golden": tpm.spcr == SPCR_G,
                "dpcr_is_golden": tpm.dpcr == DPCR_G,
            }
            for t, tpm in enumerate(world.tpms)
        ],
        "spcr_is_golden": quote_tpm.spcr == SPCR_G,
        "dpcr_is_golden": quote_tpm.dpcr == DPCR_G,
        "violation": {"machine": machine_id, "x": x, "y": y},
    }


def _layers(config: CheckConfig):
    """Yield ``(layer, parents)`` for every non-empty BFS layer.

    A layer is a list of worlds in discovery order, starting with the
    initial world alone; ``parents`` maps every world seen so far to its
    ``(parent world, event)``.  Each world is keyed once, when it is
    generated.

    Each layer is sorted by trace (module docstring).  Layer 0 is one
    world.  If layer *k* is sorted, its worlds are expanded in that order
    and each one's successors in ``repr(event)`` order, so the
    ``(parent, event)`` pairs arrive sorted by parent trace, then by event.
    A shortest trace of a world in layer *k + 1* is a shortest trace of a
    parent in layer *k*, all of length *k*, followed by one event; the
    smallest of them is therefore the first pair that reaches the world,
    which is the one the parent map keeps.  Worlds are appended when first
    reached, so layer *k + 1* is sorted by trace as well.

    Equal knowledge sets of stored worlds share one frozenset, interned in
    a dict that lives only as long as this traversal.
    """
    initial = build_world(config.machines, config.tpms).canonical_key()
    parents: Dict[World, Tuple[Optional[World], Optional[Event]]] = {initial: (None, None)}
    known: Dict[FrozenSet[Term], FrozenSet[Term]] = {}
    layer: List[World] = [initial]
    depth = 0
    while layer:
        yield layer, parents
        depth += 1
        found: List[World] = []
        for parent in layer:
            for event, child in successors(parent, config.obfuscate, config.derivation_depth):
                world = child.canonical_key()
                if world in parents:
                    continue
                world = World(world.machines, world.tpms,
                              known.setdefault(world.knowledge, world.knowledge))
                parents[world] = (parent, event)
                if len(parents) > config.max_states:
                    raise StateBudgetExceeded(
                        f"more than {config.max_states} states at layer {depth}"
                    )
                found.append(world)
        layer = found


def check(config: CheckConfig) -> Verdict:
    """Explore exhaustively; return the verdict with a minimal witness."""
    for depth, (layer, parents) in enumerate(_layers(config)):
        for world in layer:
            found = violations(world)
            if found:
                trace = _trace(parents, world)
                return Verdict(
                    property_holds=False,
                    states_explored=len(parents),
                    layers=depth,
                    config=config,
                    counterexample={
                        "steps": [event_str(e) for e in trace],
                        "events": [list(e) for e in trace],
                        "world": _world_summary(world, found[0]),
                    },
                )
    # ``layers`` counts expansions; the last layer was expanded into nothing
    return Verdict(
        property_holds=True,
        states_explored=len(parents),
        layers=depth + 1,
        config=config,
    )


def _trace(parents, world: World) -> List[Event]:
    events: List[Event] = []
    while True:
        parent, event = parents[world]
        if parent is None:
            break
        events.append(event)
        world = parent
    events.reverse()
    return events


def enumerate_reachable(config: CheckConfig):
    """Yield every reachable world once, layer by layer (for invariant sweeps)."""
    for layer, _parents in _layers(config):
        yield from layer
