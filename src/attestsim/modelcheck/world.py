"""Protocol state space: machines, TPMs, adversary knowledge, transitions.

One world is a frozen snapshot of every machine's protocol phase, every
TPM's registers (as terms) and the adversary's knowledge set.  The records
(:class:`World`, :class:`MachineProc`, :class:`TpmProc`) are ``NamedTuple``
values: equal states are equal tuples with equal hashes, so a world serves
as its own key in the explorer's seen-set.  Transitions
follow the implementation's semantics, reduced to what the trust property
can observe:

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
  extend lands: the attached chip, the bound chip (only if its host
  accepts remote extends, which golden-booted hosts never do — their
  software simply has no such service), or nowhere.  A host that is
  created or halted serves neither reads nor extends.  The concrete twin
  of these routing rules is ``machine.RelayTpmChannel``.
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
  depth bound) or load junk.  Free chips never show a golden *dynamic*
  chain: that requires a locality-gated measured launch, and a chip
  without a platform has no way to perform one.

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
from typing import FrozenSet, List, NamedTuple, Optional, Tuple

from ..trust import disagreeing, static_split
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


def rnd_term(machine_id: int) -> Term:
    return name(f"rnd-m{machine_id}")


def junk_term(tpm_id: int) -> Term:
    return name(f"junk-t{tpm_id}")


# -- processes --------------------------------------------------------------


class TpmProc(NamedTuple):
    tpm_id: int
    spcr: Term
    dpcr: Term
    initialized: bool  # free chips flip this on their one-shot preparation


class MachineProc(NamedTuple):
    machine_id: int
    attached_tpm: int
    phase: str = "created"  # booted | init_q0 | init_extend | sealed | done | halted
    image: Optional[str] = None
    driver_malicious: bool = False
    bound_tpm: Optional[int] = None
    q0_spcr: Optional[Term] = None   # sealed original static value
    q0_dpcr: Optional[Term] = None   # sealed dynamic value
    sealed_obf: Optional[Term] = None
    trusted: Optional[bool] = None


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
    if n_machines < 1:
        raise ValueError("need at least one machine")
    if n_tpms < n_machines:
        raise ValueError("every machine needs an attached tpm")
    machines = tuple(
        MachineProc(machine_id=i, attached_tpm=i) for i in range(n_machines)
    )
    tpms = tuple(
        TpmProc(tpm_id=t, spcr=S0, dpcr=D0, initialized=t < n_machines)
        for t in range(n_tpms)
    )
    knowledge = frozenset(
        {S0, D0, UEFI_S, TBOOT_S, K_G, I_G, K_M, I_M}
        | {junk_term(t) for t in range(n_machines, n_tpms)}
    )
    return World(machines, tpms, knowledge)


@lru_cache(maxsize=4096)
def _saturated(knowledge: FrozenSet[Term]) -> FrozenSet[Term]:
    return saturate(knowledge)


# -- transition helpers -----------------------------------------------------
# worlds are built positionally: ``_replace`` is a keyword pass over every
# field, and these three run for nearly every generated state


def _with_machine(world: World, m: MachineProc) -> World:
    machines = list(world.machines)
    machines[m.machine_id] = m
    return World(tuple(machines), world.tpms, world.knowledge)


def _with_tpm(world: World, t: TpmProc) -> World:
    tpms = list(world.tpms)
    tpms[t.tpm_id] = t
    return World(world.machines, tuple(tpms), world.knowledge)


def _leak(world: World, *terms: Term) -> World:
    missing = [t for t in terms if t not in world.knowledge]
    if not missing:
        return world
    return World(world.machines, world.tpms, world.knowledge | set(missing))


def _host_accepts_extends(world: World, tpm_id: int) -> bool:
    """Remote-extend physics: only a booted host running a non-golden image
    exposes anything that will extend a PCR for the network (the golden
    stack offers no remote-extend service); free chips are prepared before
    the episode and serve reads only."""
    for m in world.machines:
        if m.attached_tpm == tpm_id:
            return m.phase not in ("created", "halted") and m.image != "golden"
    return False


def _readable_tpms(world: World, machine: MachineProc) -> List[int]:
    """TPMs a malicious driver can route reads to."""
    ids = {machine.attached_tpm}
    for m in world.machines:
        if m.phase not in ("created", "halted"):
            ids.add(m.attached_tpm)
    for t in world.tpms:
        if t.initialized and t.tpm_id >= len(world.machines):
            ids.add(t.tpm_id)
    return sorted(ids)


# -- successors -------------------------------------------------------------


def successors(world: World, obfuscate: bool, derivation_depth: int) -> List[Tuple[Event, World]]:
    """All one-step moves, in a canonical deterministic order."""
    out: List[Tuple[Event, World]] = []

    for m in world.machines:
        if m.phase == "created":
            for image in BOOT_MENU:
                out.append((("boot", m.machine_id, image), _boot(world, m, image)))
        elif m.phase == "booted":
            targets = (
                _readable_tpms(world, m) if m.driver_malicious else [m.attached_tpm]
            )
            for t in targets:
                out.append((("q0", m.machine_id, t), _q0(world, m, t)))
        elif m.phase == "init_q0":
            if obfuscate:
                for route in _obf_routes(world, m):
                    out.append((("obf", m.machine_id, route), _obf(world, m, route)))
            else:
                out.append((("seal", m.machine_id), _seal(world, m)))
        elif m.phase == "init_extend":
            out.append((("q1", m.machine_id), _q1(world, m)))
        elif m.phase == "sealed":
            out.append((("verify", m.machine_id), _verify(world, m)))

    n_machines = len(world.machines)
    for t in world.tpms:
        if t.initialized or t.tpm_id < n_machines:
            continue
        sat = _saturated(world.knowledge)
        if derivable(SPCR_G, sat, derivation_depth):
            out.append(
                (
                    ("tpm-init", t.tpm_id, "golden"),
                    _with_tpm(world, t._replace(spcr=SPCR_G, initialized=True)),
                )
            )
        out.append(
            (
                ("tpm-init", t.tpm_id, "junk"),
                _with_tpm(world, t._replace(spcr=junk_term(t.tpm_id), initialized=True)),
            )
        )

    out.sort(key=lambda pair: repr(pair[0]))
    return out


def _boot(world: World, m: MachineProc, image: str) -> World:
    if image == "unsigned-uefi":
        return _with_machine(world, m._replace(phase="halted", image=image))
    kernel, initramfs = _BOOT_STACKS[image]
    tpm = world.tpms[m.attached_tpm]
    world = _with_tpm(
        world,
        tpm._replace(spcr=h(p(tpm.spcr, h(UEFI_S))), dpcr=dpcr_term(kernel, initramfs)),
    )
    return _with_machine(
        world,
        m._replace(
            phase="booted",
            image=image,
            driver_malicious=image != "golden",
        ),
    )


def _q0(world: World, m: MachineProc, t: int) -> World:
    tpm = world.tpms[t]
    if m.driver_malicious:
        world = _leak(world, tpm.spcr, tpm.dpcr)
    return _with_machine(
        world,
        m._replace(phase="init_q0", bound_tpm=t, q0_spcr=tpm.spcr, q0_dpcr=tpm.dpcr),
    )


def _obf_routes(world: World, m: MachineProc) -> List[str]:
    if not m.driver_malicious:
        return ["local"]
    routes = ["drop", "local"]
    if m.bound_tpm != m.attached_tpm and _host_accepts_extends(world, m.bound_tpm):
        routes.append("bound")
    return sorted(routes)


def _obf(world: World, m: MachineProc, route: str) -> World:
    rnd = rnd_term(m.machine_id)
    if m.driver_malicious:
        world = _leak(world, rnd)  # the driver sees the mask in the clear
    if route == "local":
        target = world.tpms[m.attached_tpm]
        world = _with_tpm(world, target._replace(spcr=h(p(target.spcr, rnd))))
    elif route == "bound":
        target = world.tpms[m.bound_tpm]
        world = _with_tpm(world, target._replace(spcr=h(p(target.spcr, rnd))))
    return _with_machine(world, m._replace(phase="init_extend"))


def _q1(world: World, m: MachineProc) -> World:
    tpm = world.tpms[m.bound_tpm]
    if m.driver_malicious:
        world = _leak(world, tpm.spcr, tpm.dpcr)
    expected = h(p(m.q0_spcr, rnd_term(m.machine_id)))
    if (disagreeing((0,), {0: expected}, {0: tpm.spcr})
            or disagreeing((0,), {0: m.q0_dpcr}, {0: tpm.dpcr})):
        return _with_machine(world, m._replace(phase="halted"))
    return _with_machine(world, m._replace(phase="sealed", sealed_obf=tpm.spcr))


def _seal(world: World, m: MachineProc) -> World:
    return _with_machine(world, m._replace(phase="sealed", sealed_obf=m.q0_spcr))


def _verify(world: World, m: MachineProc) -> World:
    tpm = world.tpms[m.bound_tpm]
    if m.driver_malicious:
        world = _leak(world, tpm.spcr, tpm.dpcr)
    c2 = not disagreeing((0,), {0: m.q0_dpcr}, {0: DPCR_G}, {0: tpm.dpcr})
    c3 = not static_split((0,), {0: SPCR_G}, {0: m.q0_spcr}, {0: m.sealed_obf},
                          {0: tpm.spcr})
    return _with_machine(world, m._replace(phase="done", trusted=c2 and c3))


# -- the property -----------------------------------------------------------


def violations(world: World) -> List[Tuple[int, int, int]]:
    """Machines holding a trusted verdict whose quote TPM is not the
    attached one: (machine, x=quote tpm, y=attached tpm)."""
    found = []
    for m in world.machines:
        if m.phase == "done" and m.trusted and m.bound_tpm != m.attached_tpm:
            found.append((m.machine_id, m.bound_tpm, m.attached_tpm))
    return found
