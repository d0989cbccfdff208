"""Machines, measured boot, enclaves and the TPM driver layer.

Boot pipeline (one call to :func:`boot`): the firmware measures itself into
static PCR 0, the UEFI and DRTM-loader signatures are checked against the
platform CA (chain of trust halts on failure), locality is raised to 4 for
the dynamic-root launch which resets the dynamic PCRs, then the loader,
kernel and initramfs measurements land in PCRs 17/18/19.  The initramfs
hook (agent initialization) runs at locality 2; the OS runtime afterwards
sits at locality 0.

At OS runtime :meth:`Machine.load_file` measures each file into PCR 10 and
appends its line, in place, to the log on disk.  The kernel appraises
nothing and refuses no file; whether a file is trusted is decided only by
:func:`attestsim.policy.evaluate`.

Enclaves are modeled just deeply enough for sealing: a context carries the
binary measurement and a per-machine sealing root, so sealed data binds to
(machine, enclave binary) and nothing else.

TPM channels model the driver between agent and chip.  The honest driver
is the attached :class:`~attestsim.tpm.TpmState` itself, which extends at
the locality the boot pipeline left it at.  A :class:`RelayTpmChannel` is
a malicious driver that forwards traffic to another host's TPM through the
same calls; its docstring states what that host serves.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Union

from . import ima
from .crypto import Rng, sha256
from .tpm import DRTM_LOCALITY, MASKED_PCR, Quote, TpmError, TpmState
from .trust import forwards_extends

logger = logging.getLogger(__name__)

INITRAMFS_LOCALITY = 2
RUNTIME_LOCALITY = 0
LOG_DISK_KEY = "ima/log"  # where the measurement log lives on a machine's disk


class BootError(Exception):
    """The machine is in the wrong power state for the request."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class InitHookFailure(Exception):
    """Raised by an initramfs hook to abort the boot."""


@dataclass(frozen=True)
class SoftwareImage:
    """An opaque bootable component; golden images carry a CA signature."""

    name: str
    content: bytes
    signature: Optional[bytes] = None

    @property
    def measurement(self) -> bytes:
        return sha256(self.content)


@dataclass(frozen=True)
class BootOutcome:
    halted: bool
    reason: Optional[str]


class Machine:
    """A host with one physically attached TPM and a disk."""

    def __init__(
        self,
        machine_id: str,
        tpm: TpmState,
        platform_ca_pub: bytes,
        rng: Rng,
    ):
        self.machine_id = machine_id
        self.tpm = tpm
        self.platform_ca_pub = platform_ca_pub
        self._seal_root = rng.bytes(32)  # never leaves this module
        # the measurement log is a bytearray that loads append to
        self.disk: Dict[str, Union[bytes, bytearray]] = {}
        self.state = "off"  # off | initramfs | runtime

    # -- runtime file loading (IMA hook) ----------------------------------

    def load_file(self, path: str, content: bytes,
                  signature: Optional[bytes] = None) -> ima.ImaEvent:
        """OS loader: measure the file (PCR 10 first, then the log) and
        return its event.  The line is appended in place to the log on disk
        as it stands, so a load costs the same however long the log is; the
        log is never rewritten, so an edit made there stays.  A log that was
        replaced by ``bytes`` is taken over as a ``bytearray`` once.
        """
        if self.state != "runtime":
            raise BootError("files load only at OS runtime")
        event = ima.measure_file(self.tpm, path, content, signature)
        log = self.disk.get(LOG_DISK_KEY, b"")
        if not isinstance(log, bytearray):
            log = bytearray(log)
        log += event.encode_line() + b"\n"
        self.disk[LOG_DISK_KEY] = log
        return event


def boot(
    machine: Machine,
    uefi: SoftwareImage,
    tboot: SoftwareImage,
    kernel: SoftwareImage,
    initramfs: SoftwareImage,
    init_hook: Optional[Callable[[Machine], None]] = None,
) -> BootOutcome:
    """Run the measured-boot pipeline and hand control to the initramfs hook.

    Returns a halted outcome (machine stays down) on a broken chain of
    trust or a failing hook; otherwise leaves the machine at OS runtime.
    """
    from .crypto import verify

    if machine.state != "off":
        raise BootError("machine is already powered")

    tpm = machine.tpm

    # firmware measures itself before anything runs
    tpm.pcr_extend(MASKED_PCR, uefi.measurement)

    for img in (uefi, tboot):
        ok = img.signature is not None and verify(
            img.signature, img.content, machine.platform_ca_pub
        )
        if not ok:
            logger.info("boot halt on %s: bad signature for %s", machine.machine_id, img.name)
            return BootOutcome(halted=True, reason="uefi-signature-invalid")

    # dynamic root of trust: locality 4 resets the dynamic bank
    tpm.locality = DRTM_LOCALITY
    tpm.drtm_launch_reset()
    tpm.pcr_extend(17, tboot.measurement)
    tpm.pcr_extend(18, kernel.measurement)
    tpm.pcr_extend(19, initramfs.measurement)
    machine.disk[LOG_DISK_KEY] = bytearray()

    # initramfs phase
    machine.state = "initramfs"
    tpm.locality = INITRAMFS_LOCALITY
    if init_hook is not None:
        try:
            init_hook(machine)
        except InitHookFailure as exc:
            machine.state = "off"
            tpm.locality = 0
            return BootOutcome(halted=True, reason=f"init-hook: {exc}")

    # hand off to the OS
    machine.state = "runtime"
    tpm.locality = RUNTIME_LOCALITY
    return BootOutcome(halted=False, reason=None)


def reboot_machine(machine: Machine) -> None:
    """Power cycle; the disk persists, PCRs and locality reset."""
    machine.tpm.reboot()
    machine.state = "off"


# --------------------------------------------------------------------------
# enclaves
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class EnclaveContext:
    """An enclave instance: binary measurement + host binding."""

    machine: Machine
    measurement: bytes
    phase: str  # init | runtime

    def seal_key(self) -> bytes:
        """Sealing key bound to (machine hardware, enclave binary)."""
        return sha256(self.machine._seal_root + self.measurement)


def run_enclave(machine: Machine, binary: SoftwareImage, phase: str) -> EnclaveContext:
    if phase not in ("init", "runtime"):
        raise ValueError("phase must be init or runtime")
    return EnclaveContext(
        machine=machine,
        measurement=binary.measurement,
        phase=phase,
    )


# --------------------------------------------------------------------------
# tpm channels (the driver between agent and chip)
# --------------------------------------------------------------------------


class RelayTpmChannel:
    """Malicious driver relaying the agent's TPM traffic to a remote host.

    Every relayed call goes through one guard: a host that is not at OS
    runtime (never booted, halted at init, powered off) answers nothing,
    and the call raises :class:`TpmError`.  A running host serves reads,
    quotes and credential activation, which are ordinary attestation
    traffic.  A quote request names an AIK handle: if that key is resident
    on the remote TPM it signs (handles are just data to forward),
    otherwise the relay substitutes the remote TPM's own resident
    attestation key.  An extend is forwarded, to land at the host chip's
    locality (0 at OS runtime), only when
    :func:`attestsim.trust.forwards_extends` holds for the host's dynamic
    registers against ``golden_dynamics``.  Otherwise the extend is
    swallowed, which is the best a relay can do.
    """

    def __init__(self, host: Machine, golden_dynamics: Dict[int, bytes], rng: Rng):
        self.host = host
        self.golden_dynamics = dict(golden_dynamics)
        self._rng = rng
        self._resident_aik: Optional[bytes] = None

    def _tpm(self) -> TpmState:
        if self.host.state != "runtime":
            raise TpmError(f"host {self.host.machine_id} is not at os runtime")
        return self.host.tpm

    def create_aik(self, rng: Rng) -> bytes:
        return self._tpm().create_aik(rng)

    @property
    def ek_cert(self):
        return self._tpm().ek_cert

    def activate_credential(self, aik_pub: bytes, challenge: bytes) -> bytes:
        return self._tpm().activate_credential(aik_pub, challenge)

    def quote(self, aik_pub: bytes, nonce: bytes, selection) -> Quote:
        tpm = self._tpm()
        if aik_pub not in tpm.aiks:
            if self._resident_aik is None:
                self._resident_aik = tpm.create_aik(self._rng)
            aik_pub = self._resident_aik
        return tpm.quote(aik_pub, nonce, selection)

    def read_pcr(self, index: int) -> bytes:
        return self._tpm().read_pcr(index)

    def pcr_extend(self, index: int, value: bytes) -> None:
        tpm = self._tpm()
        launched = {i: tpm.read_pcr(i) for i in self.golden_dynamics}
        if forwards_extends(self.golden_dynamics, launched):
            tpm.pcr_extend(index, value)
        else:
            logger.debug("relay dropped extend of pcr %d", index)
