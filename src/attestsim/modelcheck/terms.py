"""Symbolic message terms, hash-consed, and a bounded derivation engine.

A term is a small int: its id in one intern table.  :func:`node` gives it
back as a tag tuple whose children are ids:

* ``('n', label)``    an atomic name (nonce, key, constant)
* ``('h', t)``        a hash of ``t``
* ``('p', a, b)``     a pair

The constructors :func:`name`, :func:`h` and :func:`p` intern their node,
so equal terms are the same id and a term hashes and compares as one int
(hash-consing, after Filliâtre and Conchon, *Type-Safe Modular
Hash-Consing*, ML Workshop 2006).  The table lives as long as the process
and only grows; it holds the model's vocabulary, a few dozen terms at the
bounds the explorer runs.  An id says when its term was first built and
nothing else, so no order the explorer produces may depend on one: ids
are compared for equality and used as keys, never sorted.

``substitute`` replaces subterms of a term, as the explorer's symmetry
renames masks, junk terms and whole dynamic chains.
``derivable`` is bounded *composition*: an adversary may build up to
``depth`` nested constructors on top of the terms it holds.  Hashing is
one-way, so holding ``h(t)`` never yields ``t``.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, List, Tuple

Term = int  # an id in the intern table


class Interner:
    """Hash-consing: each distinct value gets the next small int, for good."""

    def __init__(self):
        self.values: List = []
        self._ids: Dict[Hashable, int] = {}

    def __call__(self, value: Hashable) -> int:
        i = self._ids.get(value)
        if i is None:
            i = self._ids[value] = len(self.values)
            self.values.append(value)
        return i


_terms = Interner()
_nodes = _terms.values


def name(label: str) -> Term:
    return _terms(("n", label))


def h(t: Term) -> Term:
    return _terms(("h", t))


def p(a: Term, b: Term) -> Term:
    return _terms(("p", a, b))


def node(t: Term) -> Tuple:
    """The term as ``(tag, *children)``, children as ids (a name's is its label)."""
    return _nodes[t]


def substitute(t: Term, names: Dict[Term, Term]) -> Term:
    """``t`` with every subterm in ``names`` replaced by its image: a node
    is looked up before its children, so a whole term is replaced as one,
    and its image is not descended into."""
    if t in names:
        return names[t]
    tag, *children = _nodes[t]
    if tag == "n":
        return t
    return _terms((tag, *(substitute(c, names) for c in children)))


def derivable(term: Term, known: FrozenSet[Term], depth: int) -> bool:
    """Can the adversary build ``term`` with at most ``depth`` compositions
    over ``known``?  ``known`` holds no pair whose parts it lacks, as a set
    of names does: pairs are never split here."""
    if term in known:
        return True
    if depth <= 0:
        return False
    tag, *children = _nodes[term]
    if tag == "n":
        return False  # fresh names cannot be invented
    # a hash needs its argument, a pair both components
    return all(derivable(c, known, depth - 1) for c in children)
