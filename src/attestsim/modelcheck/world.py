"""Protocol state space: machines, TPMs, transitions.

One world is a frozen snapshot of every machine's protocol phase and every
TPM's registers (as terms, :mod:`.terms`).  The records :class:`MachineProc`
and :class:`TpmProc` are ``NamedTuple`` values built positionally.  A
:class:`World` packs them into one int, so a world hashes and compares in
one step and costs a few dozen bytes to store: from the low end, 16-bit
slots hold the machine count, the TPM count, then one record id per
machine and one per TPM.

Records are hash-consed into process-wide tables, as terms are, so a
record id names one record for the life of the process, and
``World.machines`` and ``World.tpms`` decode any world at any time.  Each
record stores a fact once.  A record's position is its identity: machine
*i* is attached to TPM *i*, and the TPMs past the last machine are free
chips.  What follows from stored facts is derived, not stored: whether a
driver is malicious follows from the booted image, whether a free chip is
prepared follows from its static register, and what the adversary knows of
the golden static chain follows from the public atoms and the machines'
q0 records (see **tpm-init**).  Transitions follow the implementation's
semantics, reduced to what the trust property can observe:

* **Boot** picks an image set per machine.  The firmware is
  signature-gated, so the static register always takes the golden value on
  a successful boot and an unsigned firmware halts the machine.  The
  dynamic register takes the hash chain of the booted stack, so any
  malicious component shows up there.  Nothing reaches a chip before its
  machine boots (see **obf** and **tpm-init**), so each image's registers
  are fixed once, in ``_BOOTED``.  A malicious stack also means the
  agent's TPM *driver* is adversary-controlled from then on.
* **q0** is the agent's first quote: the driver picks the serving TPM.  An
  honest driver only ever reaches the attached chip; a malicious one may
  route to any TPM currently reachable (another booted machine's network
  surface, or a prepared free chip).  The serving TPM becomes the bound
  TPM: later quotes name the minted key, and only that TPM's signatures
  verify, so q1 and the runtime quote are forced to the same chip.
* **obf** extends the static register with a fresh random mask.  The
  simulator's agent masks the same single register, PCR 0
  (``tpm.MASKED_PCR``), unless it runs plain, the model's other variant.  A
  malicious driver sees the mask, which no adversary move uses, and
  chooses where the extend lands: the attached chip, the bound chip, or
  nowhere.  The bound chip takes the extend only if its host is serving
  and forwards extends by the relay's rule
  (:func:`attestsim.trust.forwards_extends`): its dynamic register is not
  the golden one, since golden software has no remote-extend service.  A
  host that is created or halted serves neither reads nor extends.  The
  concrete twin of these routing rules is ``machine.RelayTpmChannel``,
  which decides extends by the same rule.
* **q1** reads back: the bound register must show exactly
  ``h(pair(q0_value, mask))`` with dynamics unmoved, else initialization
  aborts.  Both are the agreement rule (:func:`attestsim.trust.disagreeing`)
  that ``agent_init`` applies to its read-back.  ``seal`` is the
  unobfuscated shortcut straight from q0.
* **verify** is the runtime trust decision, through the rules that
  ``agent._failed_condition`` calls: c2 is the agreement rule over the
  sealed, golden and quoted dynamics, and c3 is the static rule
  (:func:`attestsim.trust.static_half`) on the register's terms: the
  sealed static baseline must be golden, and the bound register must still
  show the sealed (obfuscated) value.
* **tpm-init** prepares a free chip once, before it can serve: the
  adversary may load junk, or replay the golden static chain ``SPCR_G``
  if it knows it.  It knows it when the public atoms compose it within
  the depth bound (:func:`~.terms.derivable`), or when a malicious driver
  read it at q0: a driver hands the adversary what it reads, and ``q0_spcr``
  keeps that read in every later record, ``halted`` included.  Nothing
  else ever shows it the chain: a chip q0 can read is off ``S0``, so it is
  no longer free to prepare; an extend never yields ``SPCR_G``; and a
  later read of ``SPCR_G`` at q1 or verify reads the chip q0 read, which
  showed it then.  Both init moves take the static register off ``S0``
  for good, and nothing else reaches a free chip's registers.  Free chips
  never show a golden *dynamic* chain: that requires a locality-gated
  measured launch, and a chip without a platform has no way to perform
  one.

Reboots are outside the model: an episode runs within one power cycle, so
the unseal and reboot-counter conditions hold trivially and the checked
property concentrates on the quote-routing conditions.  Two checks exist
on the agent side only, beside the shared rules.  The key binding (the
quote is signed by the initialized key) is ``bound_tpm`` itself: q0 fixes
the chip, and q1 and verify are forced onto it.  The reboot counter cannot
move within one power cycle.

A :class:`Memo` holds the steps of one traversal.  Each table maps the
ids a step reads (a machine's record, a chip's record) to the id of the
record it writes: the q0 step, the q1 read-back, the verify outcome, the
plain seal, the obfuscation mask's extend and a free chip's preparation.
A miss asks the shared rule itself, so a table never restates a rule; it
only remembers what the rule answered.  Tables live for one ``check`` or
``enumerate_reachable`` run and are dropped with it, so a rule changed
between runs is asked afresh.  The relay's extend rule is asked at each
use: it is cheap, and only obfuscation moves read it.
Ids are looked up and compared, never ordered: :func:`successors`
generates its moves in ``repr(event)`` order, where no id appears, so the
order needs no sort, and the explorer tests the property
(:func:`violations`) at discovery, on slots it has just decoded.  The
children come as bare world ints, the explorer's keys; wrap one in
:class:`World` to read its records.

A :class:`Symmetry` holds the renamings of one bound for the explorer's
reduction (:mod:`.explore`), as one column table per record slot: a
record id maps to its images under every renaming held, packed side by
side in one int, one lane per renaming.  Each lane is one world wide,
2·(2+M+T) bytes, and lanes cannot carry into each other: a renaming
permutes the slots, so its parts fill disjoint 16-bit fields of its lane.
So the images of a world are one lookup per slot, summed and cut into
lanes.  A renaming reads no rule; it renames machine and chip indices and
the terms named after them, and the malicious images and their dynamic
chains, so the tables only avoid rebuilding image records.
"""

from __future__ import annotations

import struct
from functools import lru_cache
from itertools import permutations
from math import factorial, inf
from operator import getitem
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

from ..trust import disagreeing, forwards_extends, static_half
from .terms import Interner, Term, derivable, h, name, p, substitute

# -- fixed vocabulary -------------------------------------------------------

S0 = name("pcr-s0")            # static register power-on value
D0 = name("pcr-d0")            # dynamic register sentinel
UEFI_S = name("uefi-signed")
TBOOT_S = name("tboot-signed")
K_G = name("kernel-golden")
I_G = name("initramfs-golden")
K_M = name("kernel-malicious")
I_M = name("initramfs-malicious")

SPCR_G = h(p(S0, h(UEFI_S)))
# the atoms everyone holds; the junk terms are the adversary's too, but
# SPCR_G holds none of them
PUBLIC = frozenset({S0, D0, UEFI_S, TBOOT_S, K_G, I_G, K_M, I_M})


def dpcr_term(kernel: Term, initramfs: Term) -> Term:
    """Dynamic register after a measured launch of the given stack."""
    return h(p(D0, h(p(TBOOT_S, p(initramfs, kernel)))))


DPCR_G = dpcr_term(K_G, I_G)

BOOT_MENU = ("golden", "malicious-initramfs", "malicious-kernel", "unsigned-uefi")
_BOOT_STACKS = {
    "golden": (K_G, I_G),
    "malicious-initramfs": (K_G, I_M),
    "malicious-kernel": (K_M, I_G),
}


def rnd_term(i: int) -> Term:
    return name(f"rnd-m{i}")


def junk_term(t: int) -> Term:
    return name(f"junk-t{t}")


class StateBudgetExceeded(RuntimeError):
    """The reachable graph outgrew ``max_states``, or a record table its
    slot width, before an answer.  The record tables are process-wide and
    only grow, so the slot limit counts the records of every earlier check
    in the process, not only the current one's."""


# -- processes --------------------------------------------------------------


class TpmProc(NamedTuple):
    spcr: Term
    dpcr: Term


class MachineProc(NamedTuple):
    phase: str = "created"  # booted | init_q0 | init_extend | sealed | done | halted
    image: Optional[str] = None
    bound_tpm: Optional[int] = None
    q0_spcr: Optional[Term] = None   # sealed original static value
    q0_dpcr: Optional[Term] = None   # sealed dynamic value
    sealed_obf: Optional[Term] = None
    trusted: Optional[bool] = None

    @property
    def driver_malicious(self) -> bool:
        """A malicious stack hands the agent's TPM driver to the adversary."""
        return self.image in ("malicious-initramfs", "malicious-kernel")


# The model reads a malicious image only through ``driver_malicious``, and
# its dynamic chain only by equality, so these images are interchangeable
# values, a scalarset (:class:`Symmetry`).
_MALICIOUS = tuple(image for image in BOOT_MENU if MachineProc(image=image).driver_malicious)


_MACHINES = Interner()
_TPMS = Interner()
_SLOT = 16                    # bits per slot of a packed world
_MASK = (1 << _SLOT) - 1
MAX_TPMS = _MASK              # a world's TPM count fills one slot


def _record_id(table: Interner, record) -> int:
    """``record``'s id in ``table``; an id past one slot ends the search.
    The tables serve the whole process, so the limit covers every record
    interned since it started, by any check (:class:`StateBudgetExceeded`)."""
    i = table(record)
    if i > _MASK:
        raise StateBudgetExceeded(
            f"more than {_MASK + 1} distinct {type(record).__name__} records")
    return i


class World(int):
    """One world packed into one int (module docstring): equal worlds are
    equal ints, so a world hashes and compares in one step."""

    __slots__ = ()

    def canonical_key(self) -> int:
        """The world's identity in the explorer's seen-set: its packed int,
        bare, since equal states pack to the same int and a bare int is
        smaller to store and untracked by the garbage collector.  A world
        equals its key, so the explorer looks a child up in the seen-set
        as it is and takes the key of a new child only."""
        return int(self)

    @property
    def machines(self) -> Tuple[MachineProc, ...]:
        return _records(self)[0]

    @property
    def tpms(self) -> Tuple[TpmProc, ...]:
        return _records(self)[1]


Event = Tuple  # ("boot", m, image) | ("q0", m, t) | ("obf", m, route) | ...


def record_ids(world: int) -> Tuple[int, ...]:
    """The ids in a world's record slots: machine ``i`` is slot ``i``, TPM
    ``t`` slot ``machines + t``."""
    return _slot_reader((world & _MASK) + (world >> _SLOT & _MASK))(world)


@lru_cache(maxsize=None)
def _slot_reader(count: int) -> Callable[[int], Tuple[int, ...]]:
    """The decoder of a world with ``count`` record slots: its low bytes,
    header and slots, unpacked by one ``struct`` layout built once per
    count."""
    layout = struct.Struct(f"<4x{count}H")
    size, unpack = layout.size, layout.unpack
    low = (1 << 8 * size) - 1
    return lambda world: unpack((world & low).to_bytes(size, "little"))


def _put(world: int, j: int, record_id: int) -> int:
    """``world`` with ``record_id`` in record slot ``j``."""
    shift = _SLOT * (2 + j)
    return world ^ ((world >> shift & _MASK ^ record_id) << shift)


def _records(world: int, ids: Optional[Sequence[int]] = None
             ) -> Tuple[Tuple[MachineProc, ...], Tuple[TpmProc, ...]]:
    """The one decoder of a world's records: its machines and its TPMs."""
    if ids is None:
        ids = record_ids(world)
    n_machines = world & _MASK
    machines, tpms = _MACHINES.values, _TPMS.values
    return (tuple([machines[j] for j in ids[:n_machines]]),
            tuple([tpms[j] for j in ids[n_machines:]]))


def _pack(machines: Sequence[MachineProc], tpms: Sequence[TpmProc]) -> World:
    ids = [_record_id(_MACHINES, m) for m in machines] + [_record_id(_TPMS, t) for t in tpms]
    world = len(machines) | len(tpms) << _SLOT
    for j, record_id in enumerate(ids):
        world |= record_id << (_SLOT * (2 + j))
    return World(world)


def build_world(n_machines: int, n_tpms: int) -> World:
    """The initial world; ``CheckConfig`` checks the bounds."""
    return _pack((MachineProc(),) * n_machines, (TpmProc(S0, D0),) * n_tpms)


# each image's boot, as (machine record id, chip record id): the golden
# static chain over the power-on value and the launched stack's dynamic chain
_BOOTED = {image: (_record_id(_MACHINES, MachineProc("booted", image)),
                   _record_id(_TPMS, TpmProc(SPCR_G, dpcr_term(kernel, initramfs))))
           for image, (kernel, initramfs) in _BOOT_STACKS.items()}
_HALTED_UNSIGNED = _record_id(_MACHINES, MachineProc("halted", "unsigned-uefi"))


# -- the decisions of one traversal -----------------------------------------


class _Table(dict):
    """A memo table: ``rule(key)`` is asked on the first lookup of ``key``."""

    __slots__ = ("rule",)

    def __init__(self, rule: Callable):
        super().__init__()
        self.rule = rule

    def __missing__(self, key):
        value = self[key] = self.rule(key)
        return value


def _q0(key) -> int:
    mid, t, tid = key
    m, tpm = _MACHINES.values[mid], _TPMS.values[tid]
    return _record_id(_MACHINES, MachineProc("init_q0", m.image, t, tpm.spcr, tpm.dpcr))


def _q1(key) -> int:
    """q1: the bound static register must show exactly the q0 value extended
    by the mask, and the dynamic one must not have moved."""
    i, mid, tid = key
    m, tpm = _MACHINES.values[mid], _TPMS.values[tid]
    if (disagreeing((0,), {0: h(p(m.q0_spcr, rnd_term(i)))}, {0: tpm.spcr})
            or disagreeing((0,), {0: m.q0_dpcr}, {0: tpm.dpcr})):
        after = MachineProc("halted", *m[1:])
    else:
        after = MachineProc("sealed", m.image, m.bound_tpm, m.q0_spcr, m.q0_dpcr, tpm.spcr)
    return _record_id(_MACHINES, after)


def _seal(mid: int) -> int:
    """seal: the unobfuscated shortcut keeps the q0 value as the baseline."""
    m = _MACHINES.values[mid]
    return _record_id(_MACHINES, MachineProc("sealed", m.image, m.bound_tpm, m.q0_spcr,
                                             m.q0_dpcr, m.q0_spcr))


def _init_extend(mid: int) -> int:
    """obf: the machine awaits its read-back, wherever the extend landed."""
    m = _MACHINES.values[mid]
    return _record_id(_MACHINES, MachineProc("init_extend", *m[1:]))


def _extend(key) -> int:
    """obf: the chip's static register extended by machine ``i``'s mask."""
    i, tid = key
    tpm = _TPMS.values[tid]
    return _record_id(_TPMS, TpmProc(h(p(tpm.spcr, rnd_term(i))), tpm.dpcr))


def _prepare(key) -> int:
    """tpm-init: free chip ``t`` loaded with the golden static chain, or
    with its junk term when ``golden`` is false."""
    t, tid, golden = key
    tpm = _TPMS.values[tid]
    return _record_id(_TPMS, TpmProc(SPCR_G if golden else junk_term(t), tpm.dpcr))


def _verify(key) -> int:
    """verify: c2 over sealed, golden and quoted dynamics, c3 as the static
    rule over the sealed baseline and the sealed obfuscated value."""
    mid, tid = key
    m, tpm = _MACHINES.values[mid], _TPMS.values[tid]
    c2 = not disagreeing((0,), {0: m.q0_dpcr}, {0: DPCR_G}, {0: tpm.dpcr})
    c3 = static_half(SPCR_G, m.q0_spcr, m.sealed_obf, tpm.spcr) is None
    return _record_id(_MACHINES, MachineProc("done", m.image, m.bound_tpm, m.q0_spcr,
                                             m.q0_dpcr, m.sealed_obf, c2 and c3))


@lru_cache(maxsize=None)
def _public_golden_chain(depth: int) -> bool:
    return derivable(SPCR_G, PUBLIC, depth)


def _golden_chain_known(machines: Sequence[MachineProc], depth: int) -> bool:
    """Whether the adversary can replay ``SPCR_G`` at tpm-init: composed
    from the public atoms, or read at q0 by a malicious driver (module
    docstring, **tpm-init**)."""
    return _public_golden_chain(depth) or any(
        m.q0_spcr == SPCR_G and m.driver_malicious for m in machines)


class Memo:
    """The step tables of one traversal (module docstring).  A step maps
    the ids it reads to the id of the record it writes.  No table orders
    moves: :func:`successors` generates them in ``repr(event)`` order."""

    def __init__(self):
        self.q0 = _Table(_q0)                  # (machine, t, chip) -> machine
        self.q1 = _Table(_q1)                  # (i, machine, chip) -> machine
        self.verify = _Table(_verify)          # (machine, chip) -> machine
        self.seal = _Table(_seal)              # machine -> machine
        self.init_extend = _Table(_init_extend)  # machine -> machine
        self.extend = _Table(_extend)          # (i, chip) -> chip
        self.prepare = _Table(_prepare)        # (t, chip, golden) -> chip


# -- transition helpers -----------------------------------------------------


def _serving(m: MachineProc) -> bool:
    return m.phase not in ("created", "halted")


def _host_accepts_extends(machines: Sequence[MachineProc], tpms: Sequence[TpmProc],
                          t: int) -> bool:
    """Remote-extend physics: a serving host forwards an extend by the
    relay's rule (:func:`attestsim.trust.forwards_extends`) on its dynamic
    register; free chips are prepared before the episode and serve reads
    only."""
    if t >= len(machines) or not _serving(machines[t]):
        return False
    return forwards_extends({0: DPCR_G}, {0: tpms[t].dpcr})


def _readable_tpms(machines: Sequence[MachineProc], tpms: Sequence[TpmProc],
                   i: int) -> List[int]:
    """TPMs a malicious driver on machine ``i`` can route reads to, in
    name order (:func:`_by_name`)."""
    n_machines = len(machines)
    return [t for t in _by_name(0, len(tpms))
            if t == i or (_serving(machines[t]) if t < n_machines else tpms[t].spcr != S0)]


@lru_cache(maxsize=None)
def _by_name(start: int, stop: int) -> Tuple[int, ...]:
    """The indices ``start`` to ``stop - 1`` in the order their reprs sort
    in, the order an index takes inside ``repr(event)``: 10 before 2."""
    return tuple(sorted(range(start, stop), key=str))


# -- successors -------------------------------------------------------------


def successors(world: int, obfuscate: bool, derivation_depth: int,
               memo: Memo) -> List[Tuple[Event, int]]:
    """All one-step moves, generated in ``repr(event)`` order, the canonical
    order the explorer's traces rest on (:mod:`.explore`): by kind, ``boot``
    < ``obf`` < ``q0`` < ``q1`` < ``seal`` < ``tpm-init`` < ``verify``; then
    by index in name order (:func:`_by_name`), so chip 10 comes before chip
    2; then by argument: images in ``BOOT_MENU`` order, routes ``bound`` <
    ``drop`` < ``local``, ``golden`` before ``junk``.  ``memo`` carries the
    step tables across the calls of one traversal.  Each child is a bare
    world int."""
    ids = record_ids(world)
    machines, tpms = _records(world, ids)
    n_machines = len(machines)
    # one list per kind, each filled in name order, joined in kind order
    boots, obfs, q0s, q1s, seals, inits, verifies = [], [], [], [], [], [], []

    for i in _by_name(0, n_machines):
        m = machines[i]
        phase = m.phase
        if phase == "created":
            boots += [(("boot", i, image), _boot(world, i, image)) for image in BOOT_MENU]
        elif phase == "booted":
            for t in _readable_tpms(machines, tpms, i) if m.driver_malicious else (i,):
                step = memo.q0[ids[i], t, ids[n_machines + t]]
                q0s.append((("q0", i, t), _put(world, i, step)))
        elif phase == "init_q0":
            if not obfuscate:
                seals.append((("seal", i), _put(world, i, memo.seal[ids[i]])))
                continue
            masked = _put(world, i, memo.init_extend[ids[i]])
            for route in _obf_routes(machines, tpms, i):
                if route == "drop":
                    child = masked
                else:
                    slot = n_machines + (i if route == "local" else m.bound_tpm)
                    child = _put(masked, slot, memo.extend[i, ids[slot]])
                obfs.append((("obf", i, route), child))
        elif phase == "init_extend":
            step = memo.q1[i, ids[i], ids[n_machines + m.bound_tpm]]
            q1s.append((("q1", i), _put(world, i, step)))
        elif phase == "sealed":
            step = memo.verify[ids[i], ids[n_machines + m.bound_tpm]]
            verifies.append((("verify", i), _put(world, i, step)))

    free = _by_name(n_machines, len(tpms))
    golden_known = bool(free) and _golden_chain_known(machines, derivation_depth)
    for t in free:
        if tpms[t].spcr != S0:
            continue
        slot = n_machines + t
        if golden_known:
            chip = memo.prepare[t, ids[slot], True]
            inits.append((("tpm-init", t, "golden"), _put(world, slot, chip)))
        chip = memo.prepare[t, ids[slot], False]
        inits.append((("tpm-init", t, "junk"), _put(world, slot, chip)))

    return [*boots, *obfs, *q0s, *q1s, *seals, *inits, *verifies]


def _boot(world: int, i: int, image: str) -> int:
    # a created machine carries nothing but its phase, and nothing has
    # reached its chip yet
    if image == "unsigned-uefi":
        return _put(world, i, _HALTED_UNSIGNED)
    machine, chip = _BOOTED[image]
    return _put(_put(world, i, machine), (world & _MASK) + i, chip)


def _obf_routes(machines: Sequence[MachineProc], tpms: Sequence[TpmProc],
                i: int) -> Tuple[str, ...]:
    m = machines[i]
    if not m.driver_malicious:
        return ("local",)
    if m.bound_tpm != i and _host_accepts_extends(machines, tpms, m.bound_tpm):
        return ("bound", "drop", "local")
    return ("drop", "local")


# -- the property -----------------------------------------------------------


def violations(world: int,
               ids: Optional[Sequence[int]] = None) -> List[Tuple[int, int, int]]:
    """Machines holding a trusted verdict whose quote TPM is not the
    attached one: (machine, x=quote tpm, y=attached tpm).  ``ids`` is the
    world's decoded record slots (:func:`record_ids`), when the caller has
    them already: the explorer tests the property at discovery, on each new
    orbit representative that a ``verify`` move reached, with the slots it
    has just decoded."""
    if ids is None:
        ids = record_ids(world)
    machines = map(_MACHINES.values.__getitem__, ids[:world & _MASK])
    return [(i, m.bound_tpm, i) for i, m in enumerate(machines)
            if m.phase == "done" and m.trusted and m.bound_tpm != i]


# -- symmetry ---------------------------------------------------------------


_LISTED = 48  # the largest group whose elements are listed outright


class Symmetry:
    """The renamings under which the reachable worlds of one bound are
    closed, as column tables.

    A renaming permutes the machines, each together with its attached chip
    and its mask ``rnd_term(i)``; permutes the free chips, each together
    with its ``junk_term(t)``; and permutes the malicious images, each
    together with its dynamic chain: the 2·M!·(T−M)! elements of the group
    of the bound.  No step reads an index except to name a machine, a chip
    or these terms, and none reads a malicious image except through
    ``driver_malicious`` and its chain except by equality, so the
    malicious images are a scalarset (Ip and Dill, 1996) and a renamed
    world's successors are its successors renamed; ``test_modelcheck``
    checks that on every reachable world of the small bounds.  Terms are
    renamed by substituting the ``rnd_term`` and ``junk_term`` ids and the
    chains whole (:func:`~.terms.substitute`).

    The images of a world under every renaming held are computed at once,
    in one wide int (Lamport, *Multiple Byte Processing with Full-Word
    Instructions*, CACM 1975).  It holds one lane per renaming, in the
    group's fixed order from the low end, and each lane is one world wide:
    the header and a 16-bit field per record slot, 2·(2+M+T) bytes.  There
    is one column table per record slot: a record id maps to the sum, over
    the renamings, of the id of that record's image, shifted into the field
    of the slot the renaming sends it to, in that renaming's lane.  The
    images of a world are then its columns' entries at its slot ids, summed
    with the headers of every lane, and cut into lanes.  No lane carries
    into the next: a renaming permutes the slots, so within a lane every
    part fills its own field, each below 2**16, and the sum is an ``or``.
    A column reads no rule, so it is built once per set of renamings in
    the process and every check of the bound shares it.

    A group of at most ``_LISTED`` elements (four machines, or one machine
    and five chips) is held whole, and an orbit costs one packed sum.  A
    larger one is held as generators, a swap and a rotation of each factor,
    one lane each, and an orbit is closed under them, costing one packed
    sum per member: the group grows factorially in the free chips, while most
    free chips stay untouched and the orbits stay small.  Closing stops
    once the members outnumber the caller's limit, so a search whose budget
    one orbit overruns pays for the budget, not for the orbit."""

    def __init__(self, n_machines: int, n_tpms: int):
        self._read = _slot_reader(n_machines + n_tpms)
        self._listed = (factorial(n_machines) * factorial(n_tpms - n_machines)
                        * factorial(len(_MALICIOUS)) <= _LISTED)
        own, free = tuple(range(n_machines)), tuple(range(n_machines, n_tpms))
        if self._listed:  # the identity is left out: its image is the world itself
            renamings = tuple((machines + chips, malicious) for machines in permutations(own)
                              for chips in permutations(free)
                              for malicious in permutations(_MALICIOUS))[1:]
        else:
            renamings = tuple([(machines + free, _MALICIOUS) for machines in _generators(own)]
                              + [(own + chips, _MALICIOUS) for chips in _generators(free)]
                              + [(own + free, malicious) for malicious in _generators(_MALICIOUS)])
        width = _SLOT * (2 + n_machines + n_tpms)  # one lane: a whole world
        self._lanes = range(0, width * len(renamings), width)
        self._lane = (1 << width) - 1
        self._headers = sum((n_machines | n_tpms << _SLOT) << lane for lane in self._lanes)
        self._columns = _columns(renamings, n_machines, width)

    def orbit(self, world: int, ids: Sequence[int], limit: float = inf) -> List[int]:
        """The members of ``world``'s orbit in a fixed order, ``world``
        first; ``ids`` are its record slots.  A member may repeat when the
        group is held whole, once per element that gives it.  A group held
        as generators stops closing once more than ``limit`` members are
        found, and then returns those members only."""
        if self._listed:
            return [world, *self._images(ids)]
        members = dict.fromkeys([world, *self._images(ids)])
        queue = list(members)[1:]
        read = self._read
        for member in queue:  # grows as members are found
            if len(members) > limit:
                break
            for image in self._images(read(member)):
                if image not in members:
                    members[image] = None
                    queue.append(image)
        return list(members)

    def _images(self, ids: Sequence[int]) -> List[int]:
        """The images, in the renamings' order, of the world whose record
        slots are ``ids``: one lookup per slot for every renaming held."""
        packed, lane = self._headers + sum(map(getitem, self._columns, ids)), self._lane
        return [packed >> shift & lane for shift in self._lanes]


def _generators(items: Tuple) -> List[Tuple]:
    """A swap of the first two of ``items`` and a rotation of all of them,
    which together generate every permutation of ``items``."""
    if len(items) < 2:
        return []
    swap = (items[1], items[0]) + items[2:]
    rotation = items[1:] + items[:1]
    return [swap] if rotation == swap else [swap, rotation]


@lru_cache(maxsize=None)
def _columns(renamings: Tuple[Tuple[Tuple[int, ...], Tuple[str, ...]], ...], n_machines: int,
             width: int) -> List[_Table]:
    """The column tables of ``renamings``, each lane ``width`` bits wide
    (:class:`Symmetry`).  A renaming ``(chips, malicious)`` sends machine
    ``i`` to ``chips[i]``, chip ``t`` to ``chips[t]`` and malicious image
    ``_MALICIOUS[k]`` to ``malicious[k]``."""
    parts: List[list] = [[] for _ in range(width // _SLOT - 2)]  # per slot: (images, shift)
    for r, (chips, malicious) in enumerate(renamings):
        lane, (machines, tpms) = r * width, _renaming(chips, malicious, n_machines)
        for j, target in enumerate(chips[:n_machines]):
            parts[j].append((machines, lane + _SLOT * (2 + target)))
        for t, target in enumerate(chips):
            parts[n_machines + t].append((tpms, lane + _SLOT * (2 + n_machines + target)))
    return [_Table(lambda rid, slot=slot: sum(images[rid] << shift for images, shift in slot))
            for slot in parts]


def _renaming(chips: Tuple[int, ...], malicious: Tuple[str, ...],
              n_machines: int) -> Tuple[_Table, _Table]:
    """The record tables of one renaming, machines and chips: a record id
    maps to the id of its renamed record.  Each malicious image takes its
    dynamic chain with it."""
    labels = dict(zip(_MALICIOUS, malicious))
    names = {rnd_term(i): rnd_term(chips[i]) for i in range(n_machines)}
    names.update((junk_term(t), junk_term(chips[t])) for t in range(n_machines, len(chips)))
    names.update((dpcr_term(*_BOOT_STACKS[image]), dpcr_term(*_BOOT_STACKS[labels[image]]))
                 for image in _MALICIOUS)
    term = _Table(lambda t: substitute(t, names))

    def renamed(t: Optional[Term]) -> Optional[Term]:
        return None if t is None else term[t]

    def machine(mid: int) -> int:
        m = _MACHINES.values[mid]
        return _record_id(_MACHINES, MachineProc(
            m.phase, labels.get(m.image, m.image),
            None if m.bound_tpm is None else chips[m.bound_tpm],
            renamed(m.q0_spcr), renamed(m.q0_dpcr), renamed(m.sealed_obf), m.trusted))

    def tpm(tid: int) -> int:
        return _record_id(_TPMS, TpmProc(*map(term.__getitem__, _TPMS.values[tid])))

    return _Table(machine), _Table(tpm)
