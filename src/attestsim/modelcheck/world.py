"""Protocol state space: machines, TPMs, adversary knowledge, transitions.

One world is a frozen snapshot of every machine's protocol phase, every
TPM's registers (as terms) and the adversary's knowledge set.  The records
(:class:`World`, :class:`MachineProc`, :class:`TpmProc`) are ``NamedTuple``
values: equal states are equal tuples with equal hashes, so a world serves
as its own key in the explorer's seen-set.  Each record stores a fact once.
A record's position is its identity: machine *i* is attached to TPM *i*,
and the TPMs past the last machine are free chips.  What follows from
stored facts is derived, not stored: whether a driver is malicious follows
from the booted image, and whether a free chip is prepared follows from its
static register (see **tpm-init**).  Transitions follow the
implementation's semantics, reduced to what the trust property can observe:

* **Boot** picks an image set per machine.  The firmware is
  signature-gated, so the static register always takes the golden value on
  a successful boot and an unsigned firmware halts the machine.  The
  dynamic register takes the hash chain of the booted stack, so any
  malicious component shows up there.  A malicious stack also means the
  agent's TPM *driver* is adversary-controlled from then on.
* **q0** is the agent's first quote: the driver picks the serving TPM.  An
  honest driver only ever reaches the attached chip; a malicious one may
  route to any TPM currently reachable (another booted machine's network
  surface, or a prepared free chip).  The serving TPM becomes the bound
  TPM: later quotes name the minted key, and only that TPM's signatures
  verify, so q1 and the runtime quote are forced to the same chip.
* **obf** extends the static register with a fresh random mask.  A
  malicious driver leaks the mask to the adversary and chooses where the
  extend lands: the attached chip, the bound chip, or nowhere.  The bound
  chip takes the extend only if its host is serving and forwards extends
  by the relay's rule (:func:`attestsim.trust.forwards_extends`): its
  dynamic register is not the golden one, since golden software has no
  remote-extend service.  A host that is created or halted serves neither
  reads nor extends.  The concrete twin of these routing rules is
  ``machine.RelayTpmChannel``, which decides extends by the same rule.
* **q1** reads back: the bound register must show exactly
  ``h(pair(q0_value, mask))`` with dynamics unmoved, else initialization
  aborts.  Both are the agreement rule (:func:`attestsim.trust.disagreeing`)
  that ``agent_init`` applies to its read-back.  ``seal`` is the
  unobfuscated shortcut straight from q0.
* **verify** is the runtime trust decision, through the rules that
  ``agent._failed_condition`` calls: c2 is the agreement rule over the
  sealed, golden and quoted dynamics, and c3 is the static split
  (:func:`attestsim.trust.static_split`): the sealed static baseline must
  be golden, and the bound register must still show the sealed
  (obfuscated) value.  Each register is a one-entry mapping of its term.
* **tpm-init** prepares a free chip once, before it can serve: the
  adversary may replay the public static chain (if derivable within the
  depth bound) or load junk.  Either moves the static register off ``S0``
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
"""

from __future__ import annotations

from functools import lru_cache
from typing import FrozenSet, List, NamedTuple, Optional, Set, Tuple

from ..trust import disagreeing, forwards_extends, static_split
from .terms import Term, derivable, h, name, p, saturate

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


class World(NamedTuple):
    machines: Tuple[MachineProc, ...]
    tpms: Tuple[TpmProc, ...]
    knowledge: FrozenSet[Term]

    def canonical_key(self) -> World:
        """The world's identity in the explorer's seen-set: the world itself,
        since equal tuples of equal terms are the same state."""
        return self


Event = Tuple  # ("boot", m, image) | ("q0", m, t) | ("obf", m, route) | ...


def build_world(n_machines: int, n_tpms: int) -> World:
    """The initial world; ``CheckConfig`` checks the bounds."""
    knowledge = frozenset(
        {S0, D0, UEFI_S, TBOOT_S, K_G, I_G, K_M, I_M}
        | {junk_term(t) for t in range(n_machines, n_tpms)}
    )
    return World((MachineProc(),) * n_machines, (TpmProc(S0, D0),) * n_tpms, knowledge)


@lru_cache(maxsize=4096)
def _saturated(knowledge: FrozenSet[Term]) -> FrozenSet[Term]:
    return saturate(knowledge)


# -- transition helpers -----------------------------------------------------
# worlds are built positionally: ``_replace`` is a keyword pass over every
# field, and these three run for nearly every generated state


def _with_machine(world: World, i: int, m: MachineProc) -> World:
    machines = list(world.machines)
    machines[i] = m
    return World(tuple(machines), world.tpms, world.knowledge)


def _with_tpm(world: World, t: int, tpm: TpmProc) -> World:
    tpms = list(world.tpms)
    tpms[t] = tpm
    return World(world.machines, tuple(tpms), world.knowledge)


def _leak(world: World, *terms: Term) -> World:
    missing = [t for t in terms if t not in world.knowledge]
    if not missing:
        return world
    return World(world.machines, world.tpms, world.knowledge | set(missing))


def _serving(m: MachineProc) -> bool:
    return m.phase not in ("created", "halted")


def _host_accepts_extends(world: World, t: int) -> bool:
    """Remote-extend physics: a serving host forwards an extend by the
    relay's rule (:func:`attestsim.trust.forwards_extends`) on its dynamic
    register; free chips are prepared before the episode and serve reads
    only."""
    return (t < len(world.machines) and _serving(world.machines[t])
            and forwards_extends({0: DPCR_G}, {0: world.tpms[t].dpcr}))


def _readable_tpms(world: World, i: int) -> Set[int]:
    """TPMs a malicious driver on machine ``i`` can route reads to."""
    free = range(len(world.machines), len(world.tpms))
    return ({i} | {j for j, m in enumerate(world.machines) if _serving(m)}
            | {t for t in free if world.tpms[t].spcr != S0})


# -- successors -------------------------------------------------------------


def successors(world: World, obfuscate: bool, derivation_depth: int) -> List[Tuple[Event, World]]:
    """All one-step moves, in a canonical deterministic order."""
    out: List[Tuple[Event, World]] = []

    for i, m in enumerate(world.machines):
        if m.phase == "created":
            for image in BOOT_MENU:
                out.append((("boot", i, image), _boot(world, i, image)))
        elif m.phase == "booted":
            for t in _readable_tpms(world, i) if m.driver_malicious else (i,):
                out.append((("q0", i, t), _q0(world, i, t)))
        elif m.phase == "init_q0":
            if obfuscate:
                for route in _obf_routes(world, i):
                    out.append((("obf", i, route), _obf(world, i, route)))
            else:
                out.append((("seal", i), _seal(world, i)))
        elif m.phase == "init_extend":
            out.append((("q1", i), _q1(world, i)))
        elif m.phase == "sealed":
            out.append((("verify", i), _verify(world, i)))

    for t in range(len(world.machines), len(world.tpms)):
        tpm = world.tpms[t]
        if tpm.spcr != S0:
            continue
        if derivable(SPCR_G, _saturated(world.knowledge), derivation_depth):
            out.append((("tpm-init", t, "golden"),
                        _with_tpm(world, t, TpmProc(SPCR_G, tpm.dpcr))))
        out.append((("tpm-init", t, "junk"),
                    _with_tpm(world, t, TpmProc(junk_term(t), tpm.dpcr))))

    out.sort(key=lambda pair: repr(pair[0]))
    return out


def _boot(world: World, i: int, image: str) -> World:
    # a created machine carries nothing but its phase
    if image == "unsigned-uefi":
        return _with_machine(world, i, MachineProc("halted", image))
    kernel, initramfs = _BOOT_STACKS[image]
    tpm = world.tpms[i]
    world = _with_tpm(world, i, TpmProc(h(p(tpm.spcr, h(UEFI_S))),
                                        dpcr_term(kernel, initramfs)))
    return _with_machine(world, i, MachineProc("booted", image))


def _q0(world: World, i: int, t: int) -> World:
    m, tpm = world.machines[i], world.tpms[t]
    if m.driver_malicious:
        world = _leak(world, tpm.spcr, tpm.dpcr)
    return _with_machine(world, i, m._replace(phase="init_q0", bound_tpm=t,
                                              q0_spcr=tpm.spcr, q0_dpcr=tpm.dpcr))


def _obf_routes(world: World, i: int) -> List[str]:
    m = world.machines[i]
    if not m.driver_malicious:
        return ["local"]
    if m.bound_tpm != i and _host_accepts_extends(world, m.bound_tpm):
        return ["drop", "local", "bound"]
    return ["drop", "local"]


def _obf(world: World, i: int, route: str) -> World:
    m = world.machines[i]
    rnd = rnd_term(i)
    if m.driver_malicious:
        world = _leak(world, rnd)  # the driver sees the mask in the clear
    if route != "drop":
        t = i if route == "local" else m.bound_tpm
        target = world.tpms[t]
        world = _with_tpm(world, t, TpmProc(h(p(target.spcr, rnd)), target.dpcr))
    return _with_machine(world, i, m._replace(phase="init_extend"))


def _q1(world: World, i: int) -> World:
    m = world.machines[i]
    tpm = world.tpms[m.bound_tpm]
    if m.driver_malicious:
        world = _leak(world, tpm.spcr, tpm.dpcr)
    expected = h(p(m.q0_spcr, rnd_term(i)))
    if (disagreeing((0,), {0: expected}, {0: tpm.spcr})
            or disagreeing((0,), {0: m.q0_dpcr}, {0: tpm.dpcr})):
        return _with_machine(world, i, m._replace(phase="halted"))
    return _with_machine(world, i, m._replace(phase="sealed", sealed_obf=tpm.spcr))


def _seal(world: World, i: int) -> World:
    m = world.machines[i]
    return _with_machine(world, i, m._replace(phase="sealed", sealed_obf=m.q0_spcr))


def _verify(world: World, i: int) -> World:
    m = world.machines[i]
    tpm = world.tpms[m.bound_tpm]
    if m.driver_malicious:
        world = _leak(world, tpm.spcr, tpm.dpcr)
    c2 = not disagreeing((0,), {0: m.q0_dpcr}, {0: DPCR_G}, {0: tpm.dpcr})
    c3 = not static_split((0,), {0: SPCR_G}, {0: m.q0_spcr}, {0: m.sealed_obf},
                          {0: tpm.spcr})
    return _with_machine(world, i, m._replace(phase="done", trusted=c2 and c3))


# -- the property -----------------------------------------------------------


def violations(world: World) -> List[Tuple[int, int, int]]:
    """Machines holding a trusted verdict whose quote TPM is not the
    attached one: (machine, x=quote tpm, y=attached tpm)."""
    return [(i, m.bound_tpm, i) for i, m in enumerate(world.machines)
            if m.phase == "done" and m.trusted and m.bound_tpm != i]
