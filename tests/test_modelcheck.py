"""Symbolic checker: term algebra, state space, the cuckoo result."""

import json
import os
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from functools import lru_cache
from itertools import islice, permutations
from pathlib import Path

import pytest

import attestsim.modelcheck.world as model
from attestsim.modelcheck import (
    CheckConfig,
    StateBudgetExceeded,
    check,
    terms,
)
from attestsim.modelcheck.explore import _world_summary, enumerate_reachable, event_str
from attestsim.modelcheck.terms import derivable, h, name, node, p
from attestsim.modelcheck.world import (
    D0,
    DPCR_G,
    I_G,
    I_M,
    K_G,
    K_M,
    S0,
    SPCR_G,
    MachineProc,
    Symmetry,
    TpmProc,
    World,
    build_world,
    dpcr_term,
    junk_term,
    record_ids,
    rnd_term,
    successors,
    violations,
)

# --------------------------------------------------------------------------
# term algebra
# --------------------------------------------------------------------------


def test_derivable_is_depth_bounded():
    base = frozenset({name("s0"), name("uefi")})
    golden = h(p(name("s0"), h(name("uefi"))))
    assert not derivable(golden, base, 2)
    assert derivable(golden, base, 3)


def test_fresh_names_and_hash_preimages_stay_out_of_reach():
    known = frozenset({h(name("secret"))})
    assert not derivable(name("secret"), known, 10)


# --------------------------------------------------------------------------
# world construction and bounds
# --------------------------------------------------------------------------


def test_world_shape_and_validation():
    w = build_world(2, 3)
    assert len(w.machines) == 2 and len(w.tpms) == 3
    assert w.tpms[2].spcr == S0  # the free chip awaits preparation


@pytest.mark.parametrize("bounds,message", [
    ({"machines": 0}, "machines must be >= 1"),
    ({"machines": 0, "tpms": 1}, "machines must be >= 1"),
    ({"machines": 2, "tpms": 1}, "tpms must cover every machine"),
    ({"derivation_depth": -1}, "derivation_depth must be >= 0"),
    ({"max_states": 0}, "max_states must be >= 1"),
    ({"max_states": -1}, "max_states must be >= 1"),
])
def test_check_config_refuses_bad_bounds(bounds, message):
    with pytest.raises(ValueError, match=message):
        CheckConfig(**bounds)


def test_check_config_refuses_more_tpms_than_a_slot_holds():
    with pytest.raises(ValueError, match="tpms must be <= 65535"):
        CheckConfig(machines=1, tpms=65536)


def _after(world, *events, obfuscate=False, depth=2):
    """The world reached from ``world`` by ``events``, one move at a time."""
    for event in events:
        world = World(dict(successors(world, obfuscate, depth, model.Memo()))[event])
    return world


def _inits(world, obfuscate=False, depth=2):
    moves = successors(world, obfuscate, depth, model.Memo())
    return [e for e, _ in moves if e[0] == "tpm-init"]


def test_free_tpm_golden_static_is_depth_gated():
    w = build_world(1, 2)
    events_d3 = [e for e, _ in successors(w, False, 3, model.Memo())]
    events_d2 = [e for e, _ in successors(w, False, 2, model.Memo())]
    assert ("tpm-init", 1, "golden") in events_d3
    assert ("tpm-init", 1, "golden") not in events_d2
    assert ("tpm-init", 1, "junk") in events_d2
    # below the depth, the chain is known once a malicious driver has read
    # it off a golden static register at q0, and only then
    golden, junk = ("tpm-init", 1, "golden"), ("tpm-init", 1, "junk")
    honest = _after(w, ("boot", 0, "golden"), ("q0", 0, 0))
    assert _inits(honest) == [junk]
    malicious = _after(w, ("boot", 0, "malicious-kernel"))
    assert _inits(malicious) == [junk]
    read = _after(malicious, ("q0", 0, 0))
    assert read.machines[0].q0_spcr == SPCR_G
    assert _inits(read) == [golden, junk]
    # the read is kept by every later record, a halted one included
    halted = _after(read, ("obf", 0, "drop"), ("q1", 0), obfuscate=True)
    assert halted.machines[0].phase == "halted"
    assert _inits(halted, obfuscate=True) == [golden, junk]
    # a static register read off a junk-prepared chip teaches nothing
    w = _after(build_world(1, 3), ("boot", 0, "malicious-kernel"), ("tpm-init", 1, "junk"),
               ("q0", 0, 1))
    assert _inits(w) == [("tpm-init", 2, "junk")]


def test_state_budget_is_enforced():
    with pytest.raises(StateBudgetExceeded):
        check(CheckConfig(machines=2, tpms=2, max_states=10))


def test_state_budget_counts_concrete_worlds():
    """The budget bounds the raw count, whole orbits entering at once: the
    boundary and the layer named sit where an unreduced search puts them."""
    cfg = CheckConfig(machines=2, tpms=2, derivation_depth=5, obfuscate=True)
    assert check(replace(cfg, max_states=1921)).states_explored == 1921
    with pytest.raises(StateBudgetExceeded, match="more than 1920 states at layer 10$"):
        check(replace(cfg, max_states=1920))


# --------------------------------------------------------------------------
# the headline results
# --------------------------------------------------------------------------


def test_plain_single_machine_holds():
    v = check(CheckConfig(machines=1, tpms=1, derivation_depth=4))
    assert v.property_holds
    assert v.counterexample is None
    assert v.states_explored > 1


def test_plain_two_machines_finds_the_cuckoo_relay():
    v = check(CheckConfig(machines=2, tpms=2, derivation_depth=5))
    assert not v.property_holds
    cx = v.counterexample
    assert cx["steps"] == [
        "boot(m0, golden)",
        "boot(m1, malicious-initramfs)",
        "q0(m1, t0)",
        "seal(m1)",
        "verify(m1)",
    ]
    world = cx["world"]
    assert world["violation"] == {"machine": 1, "x": 0, "y": 1}
    # the relayed registers look perfectly healthy, which is the attack
    assert world["spcr_is_golden"] is True
    assert world["dpcr_is_golden"] is True
    assert world["machines"][1]["image"] == "malicious-initramfs"
    assert world["machines"][1]["trusted"] is True


def test_plain_violation_found_at_lower_depth_too():
    v = check(CheckConfig(machines=2, tpms=2, derivation_depth=4))
    assert not v.property_holds


def test_obfuscated_two_machines_holds():
    v = check(CheckConfig(machines=2, tpms=2, derivation_depth=5, obfuscate=True))
    assert v.property_holds
    assert v.states_explored > 1000  # exhaustive, not vacuous


RELAY_TRACE = [
    "boot(m0, golden)",
    "boot(m1, malicious-initramfs)",
    "q0(m1, t0)",
    "seal(m1)",
    "verify(m1)",
]


@pytest.mark.parametrize("machines,tpms,depth,obfuscate,expected", [
    (2, 2, 5, False, (False, 226, 5, 69, RELAY_TRACE)),
    (2, 2, 4, False, (False, 226, 5, 69, RELAY_TRACE)),
    (2, 2, 5, True, (True, 1921, 11, 511, None)),
    (2, 3, 5, True, (True, 7795, 12, 2051, None)),
    # depth saturates at 3, the compositions the public golden static chain takes
    (2, 3, 2, True, (True, 7246, 12, 1892, None)),
    (2, 3, 3, True, (True, 7795, 12, 2051, None)),
    (2, 3, 5, False, (False, 642, 5, 197, RELAY_TRACE)),
    (3, 3, 5, False, (False, 1793, 5, 193, RELAY_TRACE)),
    (1, 2, 5, True, (True, 83, 7, 52, None)),
    (1, 2, 5, False, (True, 54, 6, 36, None)),
    (3, 3, 5, True, (True, 376301, 16, 31746, None)),
    # the only row whose group is listed whole at 48 elements
    (4, 4, 5, False, (False, 8047, 5, 278, RELAY_TRACE)),
], ids=["2x2-plain-d5", "2x2-plain-d4", "2x2-obf", "2x3-obf", "2x3-obf-d2", "2x3-obf-d3",
        "2x3-plain", "3x3-plain", "1x2-obf", "1x2-plain", "3x3-obf", "4x4-plain"])
def test_verdict_table_is_pinned(machines, tpms, depth, obfuscate, expected):
    """States are the concrete worlds reached, orbits those under the
    symmetry; only the first is reported."""
    v = check(CheckConfig(machines=machines, tpms=tpms, derivation_depth=depth,
                          obfuscate=obfuscate, max_states=500_000))
    steps = v.counterexample["steps"] if v.counterexample else None
    assert (v.property_holds, v.states_explored, v.layers, v.orbits, steps) == expected
    assert "orbits" not in json.dumps(v.to_dict())
    if v.counterexample:
        # the reported world is the one its trace reaches
        reached = _after(build_world(machines, tpms), *map(tuple, v.counterexample["events"]),
                         obfuscate=obfuscate, depth=depth)
        assert _world_summary(reached, violations(reached)[0]) == v.counterexample["world"]


@pytest.mark.parametrize("depth", [4, 5])
def test_counterexample_is_the_smallest_shortest_violating_trace(depth):
    """Oracle for the explorer's discovery order: a depth-first walk over
    every event trace, with no deduplication, finds no violation in fewer
    than ``layers`` steps, and the reported trace is the smallest violating
    trace of that length when events compare by ``repr``."""
    cfg = CheckConfig(machines=2, tpms=2, derivation_depth=depth)
    verdict = check(cfg)
    violating = []

    def walk(world, trace):
        if violations(world):
            assert len(trace) == verdict.layers, trace
            violating.append(trace)
        elif len(trace) < verdict.layers:
            for event, child in successors(world, False, depth, model.Memo()):
                walk(child, trace + [event])

    walk(build_world(2, 2), [])
    smallest = min(violating, key=lambda trace: tuple(map(repr, trace)))
    assert verdict.counterexample["events"] == [list(e) for e in smallest]


def test_free_tpm_cannot_stand_in_for_a_platform():
    # a prepared bench chip can replay the public static chain but never a
    # measured launch, so both variants hold at (1 machine, 2 tpms)
    for obf in (False, True):
        v = check(CheckConfig(machines=1, tpms=2, derivation_depth=5, obfuscate=obf))
        assert v.property_holds, f"obfuscate={obf}"


# --------------------------------------------------------------------------
# determinism and rendering
# --------------------------------------------------------------------------


@pytest.mark.parametrize("obfuscate", [False, True])
def test_verdict_is_byte_identical_across_runs(obfuscate):
    cfg = CheckConfig(machines=2, tpms=2, derivation_depth=5, obfuscate=obfuscate)
    first = json.dumps(check(cfg).to_dict(), sort_keys=True, indent=2)
    assert json.dumps(check(cfg).to_dict(), sort_keys=True, indent=2) == first


def test_event_rendering():
    assert event_str(("boot", 0, "golden")) == "boot(m0, golden)"
    assert event_str(("q0", 1, 0)) == "q0(m1, t0)"
    assert event_str(("tpm-init", 2, "junk")) == "tpm-init(t2, junk)"


# --------------------------------------------------------------------------
# sweeping invariants over the reachable graph
# --------------------------------------------------------------------------


def test_trusted_verdicts_imply_golden_boot_when_obfuscated():
    cfg = CheckConfig(machines=2, tpms=2, derivation_depth=5, obfuscate=True)
    trusted_seen = 0
    for world in enumerate_reachable(cfg):
        for i, m in enumerate(world.machines):
            if m.phase == "done" and m.trusted:
                trusted_seen += 1
                assert m.image == "golden"
                assert m.bound_tpm == i
    assert trusted_seen > 0


@pytest.mark.parametrize("obfuscate", [False, True])
def test_derived_facts_follow_from_stored_registers(obfuscate):
    """What the records derive rather than store: a free chip's static
    register is S0 until its one preparation, and after it golden or its
    junk term; a serving host's dynamic register is golden exactly when it
    booted the golden image, which the extend rule reads."""
    cfg = CheckConfig(machines=2, tpms=3, derivation_depth=5, obfuscate=obfuscate)
    prepared = serving = 0
    for world in enumerate_reachable(cfg):
        for t in range(len(world.machines), len(world.tpms)):
            assert world.tpms[t].spcr in (S0, SPCR_G, junk_term(t)), world
            prepared += world.tpms[t].spcr != S0
        for i, m in enumerate(world.machines):
            if m.phase not in ("created", "halted"):
                serving += 1
                assert (world.tpms[i].dpcr == DPCR_G) == (m.image == "golden"), world
    assert prepared > 0 and serving > 0


def test_enumeration_covers_exactly_the_checked_states():
    cfg = CheckConfig(machines=2, tpms=2, derivation_depth=5, obfuscate=True)
    worlds = list(enumerate_reachable(cfg))
    assert len(worlds) == check(cfg).states_explored
    assert len({w.canonical_key() for w in worlds}) == len(worlds)


def _subterms(term):
    """The term and every term inside it, each as its ``node()``."""
    tag, *children = node(term)
    yield (tag, *children)
    if tag != "n":
        for child in children:
            yield from _subterms(child)


@pytest.mark.parametrize("obfuscate", [False, True])
def test_reachable_terms_are_names_hashes_and_pairs(obfuscate):
    """Every register and recorded term is built from n/h/p alone, which
    is all ``derivable`` and ``substitute`` handle."""
    cfg = CheckConfig(machines=2, tpms=2, derivation_depth=5, obfuscate=obfuscate)
    for world in enumerate_reachable(cfg):
        terms = {t for tpm in world.tpms for t in (tpm.spcr, tpm.dpcr)}
        terms.update(t for m in world.machines
                     for t in (m.q0_spcr, m.q0_dpcr, m.sealed_obf) if t is not None)
        tags = {sub[0] for t in terms for sub in _subterms(t)}
        assert tags <= {"n", "h", "p"}, world.canonical_key()


def test_plain_reachable_graph_contains_trusted_cuckoo_state():
    cfg = CheckConfig(machines=2, tpms=2, derivation_depth=5)
    assert any(violations(w) for w in enumerate_reachable(cfg))


# --------------------------------------------------------------------------
# compact states: interned terms, packed worlds, per-check step tables
# --------------------------------------------------------------------------


@pytest.mark.parametrize("rule,answer,expected", [
    ("disagreeing", [], (False, 811)),
    ("forwards_extends", True, (False, 811)),
    ("forwards_extends", False, (True, 1181)),
    # dropping c3 leaves the verdict standing: an open gap, pinned as it is
    ("static_half", None, (True, 1921)),
])
def test_the_verdict_rests_on_the_shared_rules_with_no_stale_step(monkeypatch, rule,
                                                                   answer, expected):
    """A rule changed after a check is asked afresh by the next one: the
    step tables live for one traversal."""
    cfg = CheckConfig(machines=2, tpms=2, derivation_depth=5, obfuscate=True)
    assert check(cfg).property_holds
    monkeypatch.setattr(model, rule, lambda *args: answer)
    verdict = check(cfg)
    assert (verdict.property_holds, verdict.states_explored) == expected


def test_the_vocabulary_is_pinned_and_the_intern_table_stays_small():
    cfg = CheckConfig(machines=2, tpms=3, derivation_depth=5, obfuscate=True)
    seen = set()
    for world in enumerate_reachable(cfg):
        seen |= {t for tpm in world.tpms for t in tpm}
    assert len(seen) == 11
    # a check adds nothing to what an earlier one built
    interned = len(terms._nodes)
    check(cfg)
    assert len(terms._nodes) == interned
    # and the table stays small; it serves the whole process, so it is
    # measured in a fresh interpreter, where no other test's bounds count
    fresh = _run_fresh(VOCABULARY_RUN).split()
    assert fresh[0] == fresh[1] and int(fresh[0]) <= 64


VOCABULARY_RUN = r"""
from attestsim.modelcheck import terms
from attestsim.modelcheck.explore import CheckConfig, check

cfg = CheckConfig(machines=2, tpms=3, derivation_depth=5, obfuscate=True)
for _ in range(2):
    check(cfg)
    print(len(terms._nodes))
"""


def _run_fresh(code, *args):
    """The output of ``code`` run in a fresh interpreter on this source tree."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, env=env, check=True).stdout


def test_a_record_table_past_its_slot_width_ends_the_search(monkeypatch):
    table = terms.Interner()
    for k in range(1 << 16):
        table(("unrelated", k))
    monkeypatch.setattr(model, "_MACHINES", table)
    with pytest.raises(StateBudgetExceeded, match="more than 65536 distinct MachineProc"):
        check(CheckConfig(machines=1, tpms=1))


@pytest.mark.parametrize("obfuscate", [False, True])
def test_a_chip_is_untouched_until_its_machine_boots(obfuscate):
    """Boot writes each image's registers, fixed once, over the power-on
    values: nothing reaches a chip whose machine is still created."""
    cfg = CheckConfig(machines=2, tpms=3, derivation_depth=5, obfuscate=obfuscate)
    for world in enumerate_reachable(cfg):
        for i, m in enumerate(world.machines):
            if m.phase == "created":
                assert world.tpms[i] == (S0, D0), world.machines


# Runs the 2x2 checks in a fresh interpreter whose term and record tables
# first intern ``pad`` unrelated values, so every id the model builds moves.
SHIFTED_RUN = r"""
import hashlib, importlib.util, json, sys
from pathlib import Path

pad, src = int(sys.argv[1]), Path(sys.argv[2])
spec = importlib.util.spec_from_file_location(
    "attestsim.modelcheck.terms", src / "attestsim" / "modelcheck" / "terms.py")
terms = importlib.util.module_from_spec(spec)
sys.modules[spec.name] = terms
spec.loader.exec_module(terms)
for k in range(pad):
    terms.h(terms.name(f"unrelated-{k}"))

from attestsim.modelcheck import world
from attestsim.modelcheck.explore import CheckConfig, check, enumerate_reachable

for k in range(pad):
    world._MACHINES(("unrelated", k))
    world._TPMS(("unrelated", k))


def expand(t):
    tag, *children = terms.node(t)
    return (tag, *children) if tag == "n" else (tag, *map(expand, children))


def render(w):
    machines = [tuple(expand(f) if k in (3, 4, 5) and f is not None else f
                      for k, f in enumerate(m)) for m in w.machines]
    tpms = [tuple(map(expand, tpm)) for tpm in w.tpms]
    return repr((machines, tpms))


print(world.S0, world._MACHINES(world.MachineProc()))
for obfuscate in (False, True):
    cfg = CheckConfig(machines=2, tpms=2, derivation_depth=5, obfuscate=obfuscate)
    print(json.dumps(check(cfg).to_dict(), sort_keys=True, indent=2))
    digest = hashlib.sha256()
    for w in enumerate_reachable(cfg):
        digest.update(render(w).encode() + b"\n")
    print(digest.hexdigest())
"""


def test_ids_carry_no_order():
    """Shifting every term id and the ids of records built during a check
    changes no verdict byte and no world of the enumeration, nor its order."""
    src = Path(__file__).resolve().parent.parent / "src"
    runs = [_run_fresh(SHIFTED_RUN, str(pad), str(src)) for pad in (0, 37)]
    (ids, *rest), (shifted_ids, *shifted_rest) = (run.splitlines() for run in runs)
    assert ids != shifted_ids
    assert rest == shifted_rest


# --------------------------------------------------------------------------
# symmetry: the reduction rests on the model being equivariant
# --------------------------------------------------------------------------


def _unreduced_layers(cfg, depth=None):
    """Every reachable world, layer by layer, by a plain BFS over
    ``successors`` that keeps every concrete world; with ``depth``, the
    layers up to that one only."""
    layer = [build_world(cfg.machines, cfg.tpms)]
    seen = set(layer)
    layers = []
    memo = model.Memo()
    while layer and (depth is None or len(layers) <= depth):
        layers.append(layer)
        found = []
        for world in layer:
            for _, child in successors(world, cfg.obfuscate, cfg.derivation_depth, memo):
                if child not in seen:
                    seen.add(child)
                    found.append(child)
        layer = found
    return layers


def _rank(world, obfuscate):
    """The number of moves a world's records say were made: per machine,
    the moves its phase implies, plus one per prepared free chip."""
    sealed = 4 if obfuscate else 3  # boot, q0, then obf and q1, or seal
    moves = {"created": 0, "booted": 1, "init_q0": 2, "init_extend": 3,
             "sealed": sealed, "done": sealed + 1}
    rank = 0
    for m in world.machines:
        if m.phase != "halted":
            rank += moves[m.phase]
        elif m.image == "unsigned-uefi":
            rank += 1  # halted by its boot
        else:
            rank += 4  # boot, q0, obf, then a failed q1 read-back
    return rank + sum(tpm.spcr != S0 for tpm in world.tpms[len(world.machines):])


# the transposition of the two malicious images, each with its dynamic chain
IMAGE_SWAP = {"malicious-initramfs": "malicious-kernel",
              "malicious-kernel": "malicious-initramfs"}
CHAIN_SWAP = {dpcr_term(K_G, I_M): dpcr_term(K_M, I_G),
              dpcr_term(K_M, I_G): dpcr_term(K_G, I_M)}


def _renamings(machines, tpms):
    """Each renaming as (on worlds, on events), written from the records'
    fields rather than from the explorer's image tables, in the order of
    ``Symmetry``: machine permutations outer, free-chip permutations next,
    the identity on the malicious images before their transposition inner."""
    for own in permutations(range(machines)):
        for free in permutations(range(machines, tpms)):
            chips = own + free
            for swap in (False, True):
                yield _world_renaming(chips, machines, swap), _event_renaming(chips, swap)


def _world_renaming(chips, machines, swap=False):
    """The renaming that sends machine ``i`` to ``chips[i]`` and chip ``t``
    to ``chips[t]``, and with ``swap`` each malicious image and its chain to
    the other's, on whole worlds."""
    names = {rnd_term(i): rnd_term(chips[i]) for i in range(machines)}
    names.update((junk_term(t), junk_term(chips[t])) for t in range(machines, len(chips)))
    if swap:
        names.update(CHAIN_SWAP)
    images = IMAGE_SWAP if swap else {}

    @lru_cache(maxsize=None)
    def term(t):
        if t in names:
            return names[t]
        tag, *children = node(t)
        if tag == "n":
            return t
        return (h if tag == "h" else p)(*map(term, children))

    def rename(world):
        ms, ts = [None] * len(world.machines), [None] * len(world.tpms)
        for i, m in enumerate(world.machines):
            bound = None if m.bound_tpm is None else chips[m.bound_tpm]
            registers = (None if t is None else term(t) for t in m[3:6])
            image = images.get(m.image, m.image)
            ms[chips[i]] = MachineProc(m.phase, image, bound, *registers, m.trusted)
        for t, tpm in enumerate(world.tpms):
            ts[chips[t]] = TpmProc(term(tpm.spcr), term(tpm.dpcr))
        return model._pack(ms, ts)
    return rename


def _event_renaming(chips, swap=False):
    images = IMAGE_SWAP if swap else {}

    def rename(event):
        kind, subject, *rest = event
        if kind == "q0":
            rest = [chips[rest[0]]]
        elif kind == "boot":
            rest = [images.get(rest[0], rest[0])]
        return (kind, chips[subject], *rest)  # a tpm-init's subject is a chip
    return rename


SYMMETRY_BOUNDS = [(2, 2, False), (2, 2, True), (2, 3, True), (1, 2, True)]


@pytest.mark.parametrize("machines,tpms,obfuscate", SYMMETRY_BOUNDS,
                         ids=["2x2-plain", "2x2-obf", "2x3-obf", "1x2-obf"])
def test_the_reduced_search_reaches_exactly_the_unreduced_layers(machines, tpms,
                                                                   obfuscate):
    """Also that the graph is graded, which the explorer's per-layer
    seen-set rests on: every move leads one layer down, and a world's layer
    is the number of moves its records imply.  A model change that adds a
    move breaking the grading fails here."""
    cfg = CheckConfig(machines=machines, tpms=tpms, obfuscate=obfuscate)
    depth = {w: k for k, layer in enumerate(_unreduced_layers(cfg)) for w in layer}
    memo = model.Memo()
    for world, k in depth.items():
        assert _rank(World(world), obfuscate) == k, World(world).machines
        for event, child in successors(world, obfuscate, cfg.derivation_depth, memo):
            assert depth[child] == k + 1, event
    enumerated = list(enumerate_reachable(cfg))
    assert len(set(enumerated)) == len(enumerated)
    assert set(enumerated) == set(depth)
    layer_of = [depth[w] for w in enumerated]
    assert layer_of == sorted(layer_of)  # layer by layer
    assert Counter(layer_of) == Counter(depth.values())


def test_the_reduced_search_reaches_the_unreduced_layers_at_three_obfuscated_machines():
    """The one obfuscated bound with three machines checked against the
    plain BFS: the orbits the reduced search enters, listed layer by layer,
    are exactly the unreduced layers, 376,301 worlds in 16 layers, which
    the search reaches through 31,746 orbits."""
    cfg = CheckConfig(machines=3, tpms=3, obfuscate=True, max_states=500_000)
    unreduced = _unreduced_layers(cfg)
    assert (len(unreduced), sum(map(len, unreduced))) == (16, 376_301)
    enumerated = enumerate_reachable(cfg)
    for k, layer in enumerate(unreduced):
        assert set(islice(enumerated, len(layer))) == set(layer), k
    assert next(enumerated, None) is None


@pytest.mark.parametrize("machines,tpms,obfuscate", SYMMETRY_BOUNDS,
                         ids=["2x2-plain", "2x2-obf", "2x3-obf", "1x2-obf"])
def test_successors_commute_with_every_renaming(machines, tpms, obfuscate):
    """The soundness condition of the reduction (equivariance): on every
    reachable world, the moves of a renamed world are the renamed moves,
    and the explorer's image tables give the same images in the same order.
    A model change that breaks a symmetry fails here, not in a verdict.
    The moves also come in ``repr(event)`` order, which the explorer's
    traces rest on, without a sort."""
    cfg = CheckConfig(machines=machines, tpms=tpms, obfuscate=obfuscate)
    renamings = list(_renamings(machines, tpms))
    symmetry, memo = Symmetry(machines, tpms), model.Memo()
    for world in enumerate_reachable(cfg):
        moves = successors(world, obfuscate, cfg.derivation_depth, memo)
        events = [e for e, _ in moves]
        assert events == sorted(events, key=repr), world.machines
        for on_world, on_event in renamings:
            assert set(successors(on_world(world), obfuscate, cfg.derivation_depth, memo)) == {
                (on_event(e), on_world(World(child))) for e, child in moves}, world.machines
        assert symmetry.orbit(world, record_ids(world)) == [g(world) for g, _ in renamings]


@pytest.mark.parametrize("machines,tpms,depth", [(3, 3, None), (4, 4, 4)],
                         ids=["3x3-plain", "4x4-plain-to-layer-4"])
def test_packed_images_equal_record_level_renamings(machines, tpms, depth):
    """Groups listed whole past four elements: every image, packed one lane
    per renaming, is the world renamed record by record, in the group's
    order.  3x3 covers all 15,920 reachable worlds and 4x4, whose 47 lanes
    are the widest listed, its first five layers (2,395 worlds); its whole
    reachable set is 928,768 worlds."""
    renamings = [g for g, _ in _renamings(machines, tpms)]
    symmetry = Symmetry(machines, tpms)
    for layer in _unreduced_layers(CheckConfig(machines=machines, tpms=tpms), depth):
        for world in layer:
            assert symmetry.orbit(world, record_ids(world)) == [
                g(World(world)) for g in renamings], World(world).machines


@pytest.mark.parametrize("machines,tpms", [(1, 4), (2, 4)], ids=["1x4-obf", "2x4-obf"])
def test_packed_generator_images_equal_record_level_renamings(monkeypatch, machines, tpms):
    """A group held as generators packs one lane per generator: its images
    are the world renamed record by record under a swap and a rotation of
    each factor of indices, then the transposition of the malicious
    images, and each orbit is their closure, in the same order."""
    monkeypatch.setattr(model, "_LISTED", 1)
    symmetry = Symmetry(machines, tpms)
    own, free = tuple(range(machines)), tuple(range(machines, tpms))
    generators = [_world_renaming(chips, machines) for chips in
                  [swap + free for swap in model._generators(own)]
                  + [own + chips for chips in model._generators(free)]]
    generators.append(_world_renaming(own + free, machines, swap=True))
    images = {}

    def renamed(world):
        if world not in images:
            images[world] = [g(World(world)) for g in generators]
        return images[world]

    for world in enumerate_reachable(CheckConfig(machines=machines, tpms=tpms, obfuscate=True)):
        ids = record_ids(world)
        assert symmetry._images(ids) == renamed(world), world.machines
        closure = dict.fromkeys([world])
        queue = [world]
        for member in queue:  # grows as members are found
            for image in renamed(member):
                if image not in closure:
                    closure[image] = None
                    queue.append(image)
        assert symmetry.orbit(world, ids) == list(closure), world.machines


@pytest.mark.parametrize("machines,tpms,obfuscate", [(2, 2, False), (2, 2, True),
                                                     (2, 3, False), (3, 3, False)],
                         ids=["2x2-plain", "2x2-obf", "2x3-plain", "3x3-plain"])
def test_only_verify_creates_a_violation(machines, tpms, obfuscate):
    """The explorer tests the property only on a world a ``verify`` move
    reaches (:meth:`~attestsim.modelcheck.explore._Search.layers`).  So on
    every edge of the reachable graph, past the first violation too, a move
    from a world that holds to one that violates is a ``verify``.  A model
    change that lets another move write a trusted ``done`` record fails
    here, not in a verdict."""
    cfg = CheckConfig(machines=machines, tpms=tpms, obfuscate=obfuscate)
    memo = model.Memo()
    for layer in _unreduced_layers(cfg):
        for world in layer:
            if violations(world):
                continue
            for event, child in successors(world, obfuscate, cfg.derivation_depth, memo):
                assert not violations(child) or event[0] == "verify", (event, World(world).machines)


def test_moves_name_index_10_before_index_2():
    """Indices come in the order their reprs sort in, as inside
    ``repr(event)``.  No bound above reaches index 10, so a numeric order
    passes every other test and fails only this one."""
    world = build_world(1, 12)
    events = [e for e, _ in successors(world, False, 5, model.Memo())]
    assert events == sorted(events, key=repr)
    chips = [e[1] for e in events if e[0] == "tpm-init"]
    assert list(dict.fromkeys(chips)) == [1, 10, 11, 2, 3, 4, 5, 6, 7, 8, 9]

    prepared = _after(world, ("boot", 0, "malicious-kernel"), ("tpm-init", 2, "junk"),
                      ("tpm-init", 10, "junk"), depth=5)
    moves = successors(prepared, False, 5, model.Memo())
    assert [e[2] for e, _ in moves if e[0] == "q0"] == [0, 10, 2]


@pytest.mark.parametrize("machines,tpms,obfuscate", [(3, 3, False), (1, 4, True), (2, 4, True)],
                         ids=["3x3-plain", "1x4-obf", "2x4-obf"])
def test_a_group_held_as_generators_closes_the_same_orbits(monkeypatch, machines, tpms,
                                                           obfuscate):
    """Past ``_LISTED`` elements the group is held as generators and each
    orbit is closed under them: the orbits, and so the verdict, are those
    of the group listed whole."""
    cfg = CheckConfig(machines=machines, tpms=tpms, obfuscate=obfuscate)
    listed, verdict = Symmetry(machines, tpms), check(cfg)
    monkeypatch.setattr(model, "_LISTED", 1)
    generated = Symmetry(machines, tpms)
    assert check(cfg) == verdict
    for world in enumerate_reachable(cfg):
        ids = record_ids(world)
        orbit = generated.orbit(world, ids)
        assert orbit[0] == world and len(set(orbit)) == len(orbit)
        assert set(orbit) == set(listed.orbit(world, ids))


def test_many_free_chips_reach_the_budget_where_the_unreduced_search_does(monkeypatch):
    """One machine and eleven free chips: a group of 2·11! renamings, held
    as three generators, so the search runs into the state budget at the
    layer an unreduced search names.  With 1,999 free chips, each tpm-init
    orbit of layer 1 holds 1,999 worlds, and a check that closed the first
    one whole would compute thousands of images; closing stops once the
    budget is spent, so the search pays for the budget, not for the orbit:
    ten packed sums of three images each, one per generator."""
    with pytest.raises(StateBudgetExceeded, match="more than 20000 states at layer 5$"):
        check(CheckConfig(machines=1, tpms=12, max_states=20_000))
    calls = []
    all_images = Symmetry._images

    def counted(self, ids):
        found = all_images(self, ids)
        calls.append(len(found))
        return found

    monkeypatch.setattr(Symmetry, "_images", counted)
    with pytest.raises(StateBudgetExceeded, match="more than 10 states at layer 1$"):
        check(CheckConfig(machines=1, tpms=2000, max_states=10))
    assert calls == [3] * 10
