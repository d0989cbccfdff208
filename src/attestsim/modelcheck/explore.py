"""Serial layer-synchronous breadth-first exploration, reduced by symmetry,
and verdict reporting.

One generator, :meth:`_Search.layers`, drives every traversal.  It expands
the frontier one layer at a time, one pass per expanded world:
:func:`~.world.successors` decodes the world and generates its successors
already in canonical order, so nothing is sorted.  A child already seen
costs one set lookup.  A new one is decoded once, entered into the
seen-set with its orbit and, when a ``verify`` move reached it, tested
against the property at discovery, as SPIN checks on the fly (Holzmann,
*The Model Checker SPIN*, IEEE TSE 1997).  Each layer is yielded as its
world ints with its first violating world.  A world's key is its packed int (:mod:`.world`), so the seen-set
hashes and compares one int per state.

**Frontier.**  The state graph is graded: each move advances one
machine's phase or prepares one free chip, and none undoes either, so
every child of a layer-*k* world lies in layer *k + 1*.  The seen-set
therefore holds the worlds of the layer being built only, and is started
afresh for each layer, as breadth-first frontier search drops closed
layers (Korf, Zhang, Thayer and Hohwald, *Frontier Search*, JACM 2005);
here that is exact, with no duplicate of an earlier layer to miss.  A
running count of the worlds entered serves ``Verdict.states_explored``
and the budget.  ``test_the_reduced_search_reaches_exactly_the_unreduced_layers``
checks the grading on every reachable world of the small bounds; a move
that breaks it would make the search count a world twice.

**Symmetry.**  Renaming the machines, each together with its attached TPM
and its mask ``rnd-m<i>``, renaming the free TPMs, each together with its
``junk-t<t>`` term, and swapping the two malicious images, each together
with its dynamic chain, maps reachable worlds to reachable worlds and moves
to moves (:class:`~.world.Symmetry`; 2·M!·(T−M)! renamings at M machines
and T TPMs).  So the search expands one world per orbit, the first one
reached, and enters the whole orbit into the seen-set when that world is
found (Ip and Dill, *Better Verification Through Symmetry*, FMSD 1996, in
whose terms the malicious images are a scalarset).  A world already seen
costs one set lookup, as before.  An orbit is listed by
applying every renaming while the group is small, and by closing it under
a few generating renamings once the group is large, so that a bound with
many free chips costs work in the size of its orbits, not of its group.
The count of worlds entered is the raw count that an unreduced search
gives, so ``Verdict.states_explored`` is that count; ``Verdict.orbits``,
the number of worlds expanded, is the reduced count and stays out of the
report.  The
reduction is sound only while the model is equivariant: every step must
treat machine and chip indices as names, and the malicious images as
interchangeable values, with nothing special about any one of them.
``test_successors_commute_with_every_renaming`` checks that on every
reachable world of the small bounds, and a deliberately asymmetric
model change (a mutant of one machine's rule, say) must be run with that
test in view, since under the reduction it would give wrong counts.

Orbit representatives are numbered in discovery order, and the search
tree is two arrays over those numbers: each node's parent's number and the
index of the event that reached it in one table of the events reached.  A
trace is read back by following the parent numbers.  The world ints are
held for the layer being expanded and the layer being built only.

Each traversal owns one :class:`~.world.Memo`, so the step tables live
exactly as long as one :func:`check` or :func:`enumerate_reachable` run,
and a rule changed between runs is asked afresh.  The column tables of a
:class:`~.world.Symmetry` read no rule; they are built once in the process
and shared by every check of their bound.  The term and record ids inside
a key say only in which order their values were first interned in this
process; they are hashed and compared for equality, never sorted, so no
order below depends on them.

Discovery order is what makes the output canonical.  A world's *trace* is
its lexicographically smallest shortest event trace from the initial world,
events compared by ``repr``.  Expanding a layer in trace order, with each
world's successors generated in ``repr(event)`` order, reaches every new
orbit first through the smallest trace of any of its members, and that
member is the one expanded; so the parent array records exactly its
trace, and the next layer comes out in trace order as well (the induction
is spelled out on :meth:`_Search.layers`).  Traces are the unreduced
search's traces.  The order, and so the verdict, depends only on the
model and the bounds.

The property is tested at discovery, on each new orbit representative
that a ``verify`` move reached, and on no other world.  Only ``verify``
writes a ``done`` record, the one record that carries a trusted verdict;
every move rewrites only its own machine's record and chips, so the other
machines' verdicts pass to the child unchanged; and :func:`check` stops
at the first layer that holds a violating world, so every world it
expands holds the property.  A child reached from such a world by any
other move therefore holds it too.
``test_only_verify_creates_a_violation`` checks that on every edge of the
small bounds' reachable graphs.  The property reads no index except to
compare a machine with its chip, so it holds on all of an orbit or on none
of it.  Discovery order is trace order, so the first violating world
found in a layer has the smallest trace of the layer's violating worlds.
:func:`check` stops at the first layer that has one, once that layer is
complete, with no second pass over it, and that world is the
counterexample: its trace is the lexicographically smallest among all
shortest violating traces, which keeps the output stable under unrelated
model changes.  :func:`enumerate_reachable` flattens the same layers,
every orbit in full, for invariant sweeps.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from .world import (
    DPCR_G,
    MAX_TPMS,
    SPCR_G,
    Event,
    Memo,
    StateBudgetExceeded,
    Symmetry,
    World,
    _slot_reader,
    build_world,
    successors,
    violations,
)


@dataclass(frozen=True)
class CheckConfig:
    machines: int = 2
    tpms: int = 2
    derivation_depth: int = 5  # compositions over the public atoms (world: tpm-init)
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
        if self.max_states < 1:
            raise ValueError("max_states must be >= 1")

    @property
    def variant(self) -> str:
        return "obfuscated" if self.obfuscate else "plain"


@dataclass
class Verdict:
    property_holds: bool
    states_explored: int   # concrete worlds reached
    orbits: int            # of those, orbits under the symmetry (not reported)
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


class _Search:
    """One traversal: its tables and its search tree.

    The tree holds one node per orbit, its first-reached world, numbered in
    discovery order: node *n* was reached from node ``parent[n]`` by the
    event numbered ``via[n]`` in ``events``, and the initial world's parent
    is -1.  The world
    ints themselves are held for the layer being expanded and the one being
    built only, and so is the seen-set (module docstring); ``states`` counts
    every concrete world reached so far.
    """

    def __init__(self, config: CheckConfig):
        self.config = config
        self.memo = Memo()
        self.symmetry = Symmetry(config.machines, config.tpms)
        self.states = 0
        self.parent = array("i")
        self.via = array("i")
        self.events: Dict[Event, int] = {}  # each event reached, to its index in ``via``

    def layers(self):
        """Yield every non-empty BFS layer of orbit representatives in
        discovery order, starting with the initial world's alone, each as
        ``(first, worlds, violating)``: the number of its first node, the
        world ints of its nodes in node order, and the index in ``worlds``
        of its first world that violates the property, or None.

        Nodes are numbered in discovery order, so a layer is the block of
        numbers discovered while the layer before it was expanded.  Each
        expanded world is one pass: :func:`~.world.successors` decodes it
        and generates its successors in ``repr(event)`` order.  Every child
        of a layer-*k* world lies in layer *k + 1* (module docstring,
        **Frontier**), so a child is looked up only among the worlds of the
        layer being built, in a seen-set started afresh for each layer.  A
        child already there costs one set lookup; a new one is decoded
        once, and that decode serves its orbit's images and the property
        test.  Only representatives are expanded: the other members of an
        orbit are renamings of it, and so are their successors.  The
        property is tested on each new representative that a ``verify``
        move reached, until one in the layer violates it; a layer is
        yielded complete, so ``states`` then counts every world up to its
        depth.

        Only ``verify`` can make a world violate the property when its
        parent holds it (module docstring), so ``violating`` is exact up to
        the first layer that holds a violating world, where :func:`check`
        stops: every world expanded before it holds the property.  Past
        that layer, a violating world reached from a violating parent by
        another move goes untested.  :func:`enumerate_reachable` ignores
        ``violating``.

        Each layer holds the representatives of its orbits, each the
        orbit's member with the smallest trace, sorted by trace (module
        docstring).  Layer 0 is the initial world, which every renaming
        fixes.  Suppose it holds for layer *k*.  Let ``w`` be the member of
        an orbit in layer *k + 1* with the smallest trace, reached by event
        ``e`` from ``u`` in layer *k*; the trace of ``u`` is the prefix.
        If ``u`` were not its orbit's representative ``r``, the renaming
        ``g`` with ``g·u = r`` would give ``g·w`` the trace of ``r``
        followed by ``g·e``, which is smaller than the trace of ``w``
        because the trace of ``r`` is; so ``u`` is expanded.  Layer *k* is
        expanded in node order, which is trace order, and each world's
        successors are generated in ``repr(event)`` order, so the
        ``(parent, event)`` pairs arrive in lexicographic order of the
        traces they form.  Any pair that reaches a member of the orbit
        forms a shortest trace of that member, no smaller than the trace of
        ``w``, and only ``(u, e)`` forms that trace itself; so ``(u, e)`` is
        the first pair to reach the orbit, ``w`` becomes its node, and
        ``parent`` and ``via`` keep its trace.  Nodes are appended when
        their orbits are first reached, so layer *k + 1* is numbered in
        trace order as well.  Testing the property at discovery leaves this
        unchanged: the test reads a world and writes nothing the search
        reads, and since discovery order is trace order, the first violating
        node found in a layer is the violating node of that layer with the
        smallest trace.

        The budget is checked at each new orbit, which is closed no further
        than the budget left: a new orbit shares no member with the
        seen-set, so the count it overruns is the count an unreduced search
        overruns, at the same layer.
        """
        config, memo, parent, via, events = (self.config, self.memo, self.parent,
                                             self.via, self.events)
        obfuscate, derivation_depth = config.obfuscate, config.derivation_depth
        max_states = config.max_states
        orbit = self.symmetry.orbit
        read = _slot_reader(config.machines + config.tpms)
        initial = build_world(config.machines, config.tpms).canonical_key()
        initial_ids = read(initial)
        states = len(set(orbit(initial, initial_ids)))
        parent.append(-1)
        via.append(-1)
        violating = 0 if violations(initial, initial_ids) else None
        layer = [initial]
        first = depth = 0
        while layer:
            self.states = states
            yield first, layer, violating
            depth += 1
            violating = None
            seen: Set[int] = set()  # the worlds of the layer being built
            found: List[int] = []
            for n, world in enumerate(layer, first):
                for event, child in successors(world, obfuscate, derivation_depth, memo):
                    if child in seen:
                        continue
                    child_ids = read(child)
                    size = len(seen)
                    seen.update(orbit(child, child_ids, max_states - states))
                    states += len(seen) - size
                    if states > max_states:
                        raise StateBudgetExceeded(
                            f"more than {max_states} states at layer {depth}")
                    if (violating is None and event[0] == "verify"
                            and violations(child, child_ids)):
                        violating = len(found)
                    found.append(child)
                    parent.append(n)
                    via.append(events.setdefault(event, len(events)))
            first += len(layer)
            layer = found

    def trace(self, n: int) -> List[Event]:
        parent, via, table = self.parent, self.via, list(self.events)
        events: List[Event] = []
        while parent[n] >= 0:
            events.append(table[via[n]])
            n = parent[n]
        events.reverse()
        return events


def check(config: CheckConfig) -> Verdict:
    """Explore exhaustively; return the verdict with a minimal witness."""
    search = _Search(config)
    for depth, (first, layer, violating) in enumerate(search.layers()):
        if violating is not None:
            world = World(layer[violating])
            trace = search.trace(first + violating)
            return Verdict(
                property_holds=False,
                states_explored=search.states,
                orbits=len(search.parent),
                layers=depth,
                config=config,
                counterexample={
                    "steps": [event_str(e) for e in trace],
                    "events": [list(e) for e in trace],
                    "world": _world_summary(world, violations(world)[0]),
                },
            )
    # ``layers`` counts expansions; the last layer was expanded into nothing
    return Verdict(
        property_holds=True,
        states_explored=search.states,
        orbits=len(search.parent),
        layers=depth + 1,
        config=config,
    )


def enumerate_reachable(config: CheckConfig):
    """Yield every reachable world once, layer by layer (for invariant
    sweeps): each representative, then the other distinct members of its
    orbit in the symmetry's fixed order."""
    search = _Search(config)
    orbit, read = search.symmetry.orbit, _slot_reader(config.machines + config.tpms)
    for _, layer, _ in search.layers():
        for key in layer:
            yield from map(World, dict.fromkeys(orbit(key, read(key))))
