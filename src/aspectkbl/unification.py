"""One-way unification of trap patterns against actions.

The pattern side comes from an aspect cut or an obligation cut and may
contain wildcards; the action side never does.  Variables on either
side are bound: a constant on the pattern side grounds a variable on
the action side and vice versa.  Substitutions are ordered and every
step is applied to the remaining work before continuing.
"""
from __future__ import annotations

from typing import Optional

from .model import (BindVar, Const, Cut, Label, LabelPattern, LocatedAction,
                    Substitution, Term, Var, Wildcard, subst_key)


def unify(t1: Term, t2: Term) -> Optional[Substitution]:
    """Unify one pattern term against one action term.

    Returns the identity for matching constants and for a wildcard on
    the pattern side, a single binding when a variable meets a
    non-variable or another variable, and None on mismatch.
    """
    if isinstance(t1, Wildcard):
        return Substitution()
    if isinstance(t1, Const):
        if isinstance(t2, Const):
            return Substitution() if t1.name == t2.name else None
        if isinstance(t2, (Var, BindVar)):
            return Substitution(((subst_key(t2), t1),))
        return None
    if isinstance(t1, (Var, BindVar)):
        if isinstance(t2, (Const, Var, BindVar)):
            return Substitution(((subst_key(t1), t2),))
        return None
    return None


def extract(obj):
    """Flatten a cut, label pattern, located action or ground label
    into the (subject, args, target) triple findsubs operates on."""
    if isinstance(obj, Cut):
        return obj.subject, obj.action.args, obj.action.target
    if isinstance(obj, LabelPattern):
        return obj.subject, obj.args, obj.target
    if isinstance(obj, LocatedAction):
        return Const(obj.source), obj.action.args, obj.action.target
    if isinstance(obj, Label):
        return (Const(obj.subject), tuple(Const(a) for a in obj.args),
                Const(obj.target))
    raise TypeError(f"cannot extract from {type(obj).__name__}")


def findsubs(pattern, action) -> Optional[Substitution]:
    """Unify (subject, args, target) triples term by term, left to
    right: the subjects, each argument, then the targets, each pair
    under the substitution built so far.  Fails when the argument
    lists differ in length.  Capabilities must be checked equal by the
    caller."""
    psub, pargs, ptgt = pattern
    asub, aargs, atgt = action
    if len(pargs) != len(aargs):
        return None
    theta = Substitution()
    for p, a in zip((psub, *pargs, ptgt), (asub, *aargs, atgt)):
        step = unify(theta.apply_term(p), theta.apply_term(a))
        if step is None:
            return None
        theta = theta.then(step)
    return theta
