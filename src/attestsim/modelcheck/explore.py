"""Serial layer-synchronous breadth-first exploration and verdict reporting.

One generator, :func:`_layers`, drives every traversal.  It expands the
frontier one layer at a time, keys each generated world exactly once, drops
duplicates against the states already seen, and yields the new layer in
discovery order.  A world's key is its packed int (:mod:`.world`), so the
seen-set hashes and compares one int per state.  States are numbered in
discovery order, and the search tree is two arrays over those numbers, a
parent index and the event that reached the state, as in SPIN (Holzmann,
*The Model Checker SPIN*, IEEE TSE 1997); a trace is read back by following
the parent indices.

Each traversal owns one :class:`~.world.Memo`, so the step tables that ask
the trust rules live exactly as long as one :func:`check` or
:func:`enumerate_reachable` run.  The term and record ids inside a key say
only in which order their values were first interned in this process;
they are hashed and compared for equality, never sorted, so no order below
depends on them.

Discovery order is what makes the output canonical.  A world's *trace* is
its lexicographically smallest shortest event trace from the initial world,
events compared by ``repr``.  Expanding a layer in trace order, each
world's successors in ``repr(event)`` order, reaches every new world first
through its trace, so the parent array records exactly that trace and the
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

from array import array
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .world import (
    DPCR_G,
    MAX_TPMS,
    SPCR_G,
    Event,
    Memo,
    StateBudgetExceeded,
    World,
    build_world,
    successors,
    violations,
)


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
        if self.tpms > MAX_TPMS:
            raise ValueError(f"tpms must be <= {MAX_TPMS}")
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


def _layers(config: CheckConfig, parent: array, via: List[Event]):
    """Yield every non-empty BFS layer as a list of canonical keys in
    discovery order, starting with the initial world's alone.

    States are numbered in discovery order, so a layer is the last block of
    numbers discovered when it is yielded.  State *n* was first reached from
    state ``parent[n]`` by event ``via[n]``; the initial world's parent is
    -1.  Each world is keyed once, when it is generated.  The seen-set and
    the layers hold keys, plain ints that cost less to store than a
    :class:`~.world.World`; a world is rebuilt from its key to be expanded.
    One :class:`~.world.Memo` serves the traversal.

    Each layer is sorted by trace (module docstring).  Layer 0 is one
    world.  If layer *k* is sorted, its worlds are expanded in that order
    and each one's successors in ``repr(event)`` order, so the
    ``(parent, event)`` pairs arrive sorted by parent trace, then by event.
    A shortest trace of a world in layer *k + 1* is a shortest trace of a
    parent in layer *k*, all of length *k*, followed by one event; the
    smallest of them is therefore the first pair that reaches the world,
    which is the one ``parent`` and ``via`` keep.  Worlds are appended when
    first reached, so layer *k + 1* is sorted by trace as well.
    """
    memo = Memo()
    events: Dict[Event, Event] = {}  # equal events of stored states share one tuple
    initial = build_world(config.machines, config.tpms).canonical_key()
    seen = {initial}
    parent.append(-1)
    via.append(None)
    layer: List[int] = [initial]
    depth = 0
    while layer:
        yield layer
        depth += 1
        found: List[int] = []
        first = len(parent) - len(layer)
        for n, key in enumerate(layer, first):
            for event, child in successors(World(key), config.obfuscate,
                                           config.derivation_depth, memo):
                child_key = child.canonical_key()
                if child_key in seen:
                    continue
                seen.add(child_key)
                parent.append(n)
                via.append(events.setdefault(event, event))
                if len(parent) > config.max_states:
                    raise StateBudgetExceeded(
                        f"more than {config.max_states} states at layer {depth}"
                    )
                found.append(child_key)
        layer = found


def check(config: CheckConfig) -> Verdict:
    """Explore exhaustively; return the verdict with a minimal witness."""
    parent, via = array("i"), []
    for depth, layer in enumerate(_layers(config, parent, via)):
        first = len(parent) - len(layer)
        for n, key in enumerate(layer, first):
            world = World(key)
            found = violations(world)
            if found:
                trace = _trace(parent, via, n)
                return Verdict(
                    property_holds=False,
                    states_explored=len(parent),
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
        states_explored=len(parent),
        layers=depth + 1,
        config=config,
    )


def _trace(parent: array, via: List[Event], n: int) -> List[Event]:
    events: List[Event] = []
    while parent[n] >= 0:
        events.append(via[n])
        n = parent[n]
    events.reverse()
    return events


def enumerate_reachable(config: CheckConfig):
    """Yield every reachable world once, layer by layer (for invariant sweeps)."""
    for layer in _layers(config, array("i"), []):
        yield from map(World, layer)
