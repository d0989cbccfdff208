"""Seeded input generator for the fleet workloads.

Everything the simulator is given comes from here: a scenario document, the
runtime-file manifests and the extra policy sections.  The same seed gives
the same inputs.  The seed chooses identities (paths, contents, which files
are signed, where the rogue file lands) but never the amount of work, so
timings stay comparable across seeds.

This module depends on the standard library only.
"""

from __future__ import annotations

import base64
import hashlib
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

MACHINES = 4
SIGNED_EVERY = 10  # one file in ten carries a distributor signature
POLL_PERIOD_MS = 1000.0
BEACON = "beacon-dc1"
MAX_LATENCY_MS = 2.0


@dataclass(frozen=True)
class FileSpec:
    path: str
    content: str  # text, because scenario load-file steps carry text
    signed: bool

    @property
    def digest_hex(self) -> str:
        return hashlib.sha256(self.content.encode()).hexdigest()


@dataclass(frozen=True)
class FleetInputs:
    seed: int
    scenario: dict
    machine_ids: Tuple[str, ...]
    rounds: int
    preload: Dict[str, Tuple[FileSpec, ...]]
    # batches[r][machine] -> files that machine loads before poll round r+1
    batches: Tuple[Dict[str, Tuple[FileSpec, ...]], ...]
    rogue: Optional[Tuple[int, str, FileSpec]]  # (round index, machine, file)
    location: bool

    def whitelist(self) -> List[FileSpec]:
        """Every unsigned file except the rogue one, in load order."""
        files = [f for m in self.machine_ids for f in self.preload[m]]
        files += [f for batch in self.batches for m in self.machine_ids for f in batch[m]]
        return [f for f in files if not f.signed]


def _rng(workload: str, seed: int) -> random.Random:
    # str seeds hash through sha512, independent of PYTHONHASHSEED
    return random.Random(f"{workload}:{seed}")


def _file(rng: random.Random, machine: str, index: int, signed: bool) -> FileSpec:
    path = f"/opt/{machine}/lib/f{index:05d}-{rng.getrandbits(32):08x}.so"
    return FileSpec(path, rng.randbytes(rng.randint(24, 96)).hex(), signed)


def _files(rng: random.Random, machine: str, start: int, count: int,
           signed_count: int) -> Tuple[FileSpec, ...]:
    signed = set(rng.sample(range(count), signed_count))
    return tuple(_file(rng, machine, start + i, i in signed) for i in range(count))


def _scenario(name: str, machine_ids, preload, network: bool) -> dict:
    script = [{"at": 0, "action": "boot", "machine": m} for m in machine_ids]
    for m in machine_ids:
        script += [
            {"at": 1, "action": "load-file", "machine": m, "path": f.path,
             "content": f.content, "signed": f.signed}
            for f in preload[m]
        ]
    script += [{"at": 2, "action": "establish", "machine": m} for m in machine_ids]
    doc = {
        "name": name,
        "machines": [{"id": m, "dc": "dc1", "agent": {}} for m in machine_ids],
        "policies": {"golden": "builtin:golden"},
        "script": script,
    }
    if network:
        doc["network"] = {
            "links": [{"between": ["dc1", "dc1"], "base_ms": 0.3, "jitter_ms": 0.2}]
        }
        doc["beacons"] = [{"endpoint": BEACON, "dc": "dc1"}]
    return doc


def poll_steady_inputs(seed: int, files_per_machine: int, rounds: int) -> FleetInputs:
    """Machines pre-loaded with signed and whitelisted files, then read-only polls."""
    rng = _rng("poll-steady", seed)
    ids = tuple(f"m{i}" for i in range(MACHINES))
    signed = files_per_machine // SIGNED_EVERY
    preload = {m: _files(rng, m, 0, files_per_machine, signed) for m in ids}
    return FleetInputs(
        seed=seed,
        scenario=_scenario("bench-poll-steady", ids, preload, network=True),
        machine_ids=ids,
        rounds=rounds,
        preload=preload,
        batches=tuple({m: () for m in ids} for _ in range(rounds)),
        rogue=None,
        location=True,
    )


def log_churn_inputs(seed: int, batch: int, rounds: int) -> FleetInputs:
    """Empty logs that grow by ``batch`` files per machine before every round;
    one machine loads a file that is neither whitelisted nor signed."""
    rng = _rng("log-churn", seed)
    ids = tuple(f"m{i}" for i in range(MACHINES))

    def signed(r: int) -> int:  # keeps the share exact when batch < SIGNED_EVERY
        return ((r + 1) * batch) // SIGNED_EVERY - (r * batch) // SIGNED_EVERY

    batches = tuple(
        {m: _files(rng, m, r * batch, batch, signed(r)) for m in ids} for r in range(rounds)
    )
    rogue_round = rng.randint(rounds // 4, (3 * rounds) // 4)
    rogue_machine = rng.choice(ids)
    rogue_file = FileSpec(
        f"/tmp/{rogue_machine}/rogue-{rng.getrandbits(32):08x}",
        rng.randbytes(48).hex(),
        signed=False,
    )
    return FleetInputs(
        seed=seed,
        scenario=_scenario("bench-log-churn", ids, {m: () for m in ids}, network=False),
        machine_ids=ids,
        rounds=rounds,
        preload={m: () for m in ids},
        batches=batches,
        rogue=(rogue_round, rogue_machine, rogue_file),
        location=False,
    )


def pem(key: bytes) -> str:
    body = base64.b64encode(key).decode()
    return f"-----BEGIN CERTIFICATE-----\n{body}\n-----END CERTIFICATE-----\n"


def _indent(text: str, spaces: int) -> str:
    pad = " " * spaces
    return "".join(pad + line + "\n" for line in text.splitlines())


def policy_text(golden: str, inputs: FleetInputs, distributor_pub: bytes,
                beacon_ca_pub: bytes) -> str:
    """The fleet policy: the simulator's golden document (TPM CA chain and
    PCR whitelist) plus the runtime certificate, the software whitelist and,
    when the workload uses beacons, a location rule."""
    parts = [golden.rstrip("\n") + "\n", "runtime:\n", "  certificate: |\n",
             _indent(pem(distributor_pub), 4), "  software:\n",
             "  - name: bench-fleet\n", "    whitelist:\n"]
    parts += [f'      "{f.digest_hex}": "{f.path}"\n' for f in inputs.whitelist()]
    if inputs.location:
        parts += ["location:\n", f"- host: {BEACON}\n",
                  f"  max_latency: {MAX_LATENCY_MS}\n", "  chain: |\n",
                  _indent(pem(beacon_ca_pub), 4)]
    return "".join(parts)
