"""Symbolic message terms and a bounded derivation engine.

Terms are nested tuples with a leading tag:

* ``('n', label)``    an atomic name (nonce, key, constant)
* ``('h', t)``        a hash of ``t``
* ``('p', a, b)``     a pair

``saturate`` closes a knowledge set under decomposition (pairs split).
``derivable`` additionally allows bounded *composition*: an adversary may
build up to ``depth`` nested constructors on top of saturated knowledge.
Hashing is one-way, so knowing ``h(t)`` never yields ``t``.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Tuple

Term = Tuple  # nested tag-tuples; atoms are ('n', label)


def name(label: str) -> Term:
    return ("n", label)


def h(t: Term) -> Term:
    return ("h", t)


def p(a: Term, b: Term) -> Term:
    return ("p", a, b)


def saturate(knowledge: Iterable[Term]) -> FrozenSet[Term]:
    """Close ``knowledge`` under decomposition to a fixpoint."""
    known = set(knowledge)
    changed = True
    while changed:
        changed = False
        for t in list(known):
            if t[0] != "p":
                continue
            for f in (t[1], t[2]):
                if f not in known:
                    known.add(f)
                    changed = True
    return frozenset(known)


def derivable(term: Term, saturated: FrozenSet[Term], depth: int) -> bool:
    """Can the adversary build ``term`` with at most ``depth`` compositions
    over already-saturated knowledge?"""
    if term in saturated:
        return True
    if depth <= 0:
        return False
    tag = term[0]
    if tag == "n":
        return False  # fresh names cannot be invented
    if tag == "h":
        return derivable(term[1], saturated, depth - 1)
    # a pair needs both components
    return derivable(term[1], saturated, depth - 1) and derivable(
        term[2], saturated, depth - 1
    )

