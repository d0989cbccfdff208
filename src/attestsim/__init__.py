"""Desk-scale simulator of a TPM-anchored OS integrity attestation stack.

The package models the full trust-establishment pipeline on one desk:
software TPMs with static/dynamic PCR banks, a measured-boot pipeline with
a DRTM launch, an IMA-style runtime measurement log, enclave sealing, an
integrity policy engine, signed-timestamp beacon
proximity checks, and the two-phase trust agent whose PCR obfuscation
defeats quote-relay (cuckoo) attacks.  A bounded explicit-state protocol
explorer reproduces the relay counterexample in the plain protocol variant
and its absence in the obfuscated one.
"""

__version__ = "0.1.0"
