"""Bounded explicit-state checker for the trust-establishment protocol.

The checker replays the two-phase agent protocol over a small symbolic
world: machines with attached TPMs, a network adversary who owns every
malicious driver, and platform registers held as hash terms rather than
byte strings.  It exhaustively interleaves boots, agent initializations
and trust verdicts up to the configured bounds and checks that a trusted
verdict always binds the quote-signing TPM to the physically attached one
— the property a cuckoo relay breaks.

Entry points: :func:`attestsim.modelcheck.explore.check` and the
``modelcheck`` CLI subcommand.
"""

from .explore import CheckConfig, StateBudgetExceeded, Verdict, check

__all__ = [
    "CheckConfig",
    "StateBudgetExceeded",
    "Verdict",
    "check",
]
