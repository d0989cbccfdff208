"""The register rules of trust establishment, stated once.

The agent (``agent._failed_condition`` and ``agent_init``), the policy
evaluator (``policy.evaluate``) and the symbolic model (``world._q1`` and
``world._verify``) decide c2, c3 and the obfuscation read-back through
:func:`disagreeing` and :func:`static_half`.  The relay channel
(``machine.RelayTpmChannel``) and the model (``world._host_accepts_extends``)
decide whether a relayed extend lands through :func:`forwards_extends`.
The rules compare opaque values for equality only: digests on the agent
and the relay, whitelist digests in the policy, terms in the model, held
by register index, or bare for the one masked static register.  Each caller
adds only what the others cannot see (the agent's key binding and reboot
counter, whether a host serves at all) and words the findings its own way.
:func:`disagreeing` returns a list, never a bare index: register 0 is falsy.
"""

from typing import Iterable, List, Mapping, Optional

BASELINE = "baseline"
OBFUSCATED = "obfuscated"


def disagreeing(indices: Iterable, *banks: Mapping) -> List:
    """The indices, in sorted order, whose value is not the same in every
    bank.  A missing value never agrees, not even with another missing one."""
    found = []
    for i in sorted(indices):
        for bank in banks:
            if i not in bank or bank[i] != banks[0][i]:
                found.append(i)
                break
    return found


def forwards_extends(golden_dynamics: Mapping, host_dynamics: Mapping) -> bool:
    """Whether a serving host forwards a relayed extend to its TPM: only if
    its dynamic registers disagree with the golden ones, since golden
    software has no remote-extend service and tampered software shows there."""
    return bool(disagreeing(golden_dynamics, golden_dynamics, host_dynamics))


def static_half(golden, original, obfuscated, quoted) -> Optional[str]:
    """Which half of the masked static register fails, or ``None``.

    :data:`BASELINE` when the sealed original is not the golden value, and
    otherwise :data:`OBFUSCATED` when the quote does not show the sealed
    obfuscated value.  A ``None`` value never agrees, as a missing one does
    in :func:`disagreeing`.
    """
    if golden is None or original != golden:
        return BASELINE
    if obfuscated is None or quoted != obfuscated:
        return OBFUSCATED
    return None
