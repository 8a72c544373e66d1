"""One-way unification of trap patterns against actions, each a flat
tuple of terms, (subject, *args, target), or (*args, target) for an
occurs-in template, in one pass.

The pattern side comes from an aspect cut, an obligation cut or an
occurs-in template and may contain wildcards.  Variables on either
side are bound: a constant on the pattern side grounds a variable on
the action side and vice versa.
"""
from __future__ import annotations

from typing import Optional

from .model import Const, Substitution, Wildcard, subst_key, subst_term


def findsubs(pattern: tuple, action: tuple) -> Optional[Substitution]:
    """Unify two flat tuples of terms pair by pair, reading each pair
    under the bindings made before it: a wildcard on the pattern side
    matches any term and one on the action side no other, constants
    must be equal, and a variable meeting a constant or a variable is
    bound to it, in that order.  None on a mismatch or on tuples of
    different lengths; the caller compares the capabilities."""
    if len(pattern) != len(action):
        return None
    pairs = []
    for p, a in zip(pattern, action):
        # a binding never changes a constant or a wildcard, and never
        # makes a wildcard
        if p.__class__ is Wildcard:
            continue
        if a.__class__ is Wildcard:
            return None
        for key, val in pairs:
            if p.__class__ is not Const:
                p = subst_term(p, key, val)
            if a.__class__ is not Const:
                a = subst_term(a, key, val)
        if p.__class__ is not Const:
            pairs.append((subst_key(p), a))
        elif a.__class__ is not Const:
            pairs.append((subst_key(a), p))
        elif p.name != a.name:
            return None
    return Substitution(tuple(pairs))
