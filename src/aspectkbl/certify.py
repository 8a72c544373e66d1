"""Per-action static certification of obligations.

Instead of exploring the state space, every action occurring
syntactically in the network is judged on its own:

  CertifiedIrrelevant    the obligation's pattern can never match a
                         firing of this action
  CertifiedDenied        the policies can never let this action fire
  CertifiedByEntailment  whenever the action fires, the obligation's
                         predicate is satisfied
  NotCertified           none of the above could be established

The network is certified when no action is NotCertified.  The
analysis is sound but incomplete: a certified network satisfies the
obligation on every run, a NotCertified action only means the fast
route gave up and the exhaustive checker should decide.

Truth of a test atom changes over time, so the static route abstracts
a policy to the set of truth values it may take on any run: a test
atom that holds initially and is not removable by any input action is
always tt; one that fails initially and is not addable by any output
action is always ff; anything else gets both values.  Location
entries are never created at fresh locations and constants never
appear out of thin air, which keeps these approximations sound.

When an aspect's trap applies to every firing of the action, its
condition definitely holds and its recommendation is a ground test
atom combined into the policy purely by knowledge joins, then the
action can only fire in states where that test succeeds.  Such atoms
are collected as constraints and predicates that follow from them
are certified by entailment.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .belnap import BINARY_OPS, BOT, FF, TT, grant, join_k, neg
from .model import (Action, AspectPol, CAP_LETTER, CombinePol, Const, EBin,
                    EEqual, EFalse, ENot, EOccursIn, ETest, ETrue, FalsePol,
                    Net, NotPol, Obligation, OUT, IN, PAnd, PEqual, PExists,
                    PFalse, PForall, PGeq, PNot, POr, PTest, PTestPost, PTrue,
                    ReplicationPresent, Substitution, TruePol, canonicalize,
                    has_replication, loc_set, take_actions)
from .semantics import (check_cut, data_index, interp_test, occurs_in,
                        policies_by_location)
from .unification import extract, findsubs

IRRELEVANT = "CertifiedIrrelevant"
DENIED = "CertifiedDenied"
ENTAILED = "CertifiedByEntailment"
NOT_CERTIFIED = "NotCertified"

_BOTH = frozenset((TT, FF))


def _may_equal(t, name: str) -> bool:
    # could this template position hold the constant at some point
    return not isinstance(t, Const) or t.name == name


class MutationInfo:
    """Which data tuples the network holds at the start, and which its
    actions may add or remove."""

    def __init__(self, net: Net):
        self.initial = data_index(net)      # the tuples present at the start
        acts = [la.action for la in take_actions(net)]
        self._outs = [a for a in acts if a.cap == OUT]
        self._ins = [a for a in acts if a.cap == IN]

    def _may_touch(self, acts, at: str, values) -> bool:
        for a in acts:
            if len(a.args) != len(values):
                continue
            if not _may_equal(a.target, at):
                continue
            if all(_may_equal(t, v) for t, v in zip(a.args, values)):
                return True
        return False

    def may_add(self, at: str, values) -> bool:
        return self._may_touch(self._outs, at, values)

    def may_remove(self, at: str, values) -> bool:
        return self._may_touch(self._ins, at, values)


# ---------------------------------------------------------------------------
# abstract values: the set of truth values an expression may take

def _test_values(mut, at, values):
    if interp_test(values, at, mut.initial):
        return frozenset((TT,)) if not mut.may_remove(at, values) else _BOTH
    return frozenset((FF,)) if not mut.may_add(at, values) else _BOTH


def abstract_expr(e, net: Net, mut: MutationInfo, cont_env: dict) -> frozenset:
    if isinstance(e, ETrue):
        return frozenset((TT,))
    if isinstance(e, EFalse):
        return frozenset((FF,))
    if isinstance(e, ENot):
        return frozenset(neg(v) for v in abstract_expr(e.body, net, mut, cont_env))
    if isinstance(e, EBin):
        op = BINARY_OPS[e.op]
        ls = abstract_expr(e.left, net, mut, cont_env)
        rs = abstract_expr(e.right, net, mut, cont_env)
        return frozenset(op(a, b) for a in ls for b in rs)
    if isinstance(e, EEqual):
        if isinstance(e.left, Const) and isinstance(e.right, Const):
            return frozenset((TT if e.left.name == e.right.name else FF,))
        return _BOTH
    if isinstance(e, ETest):
        if all(isinstance(t, Const) for t in e.args) and isinstance(e.at, Const):
            return _test_values(mut, e.at.name,
                                tuple(t.name for t in e.args))
        return _BOTH
    if isinstance(e, EOccursIn):
        proc = cont_env.get(e.var)
        if proc is None or occurs_in(e.action, proc):
            return _BOTH
        # grounding a template only removes matches, never adds one
        return frozenset((FF,))
    raise TypeError(f"not an expression: {e!r}")


def _plain_key(key: str) -> bool:
    return not key.startswith(("$", "#", "!"))


def _constraint_atom(e) -> Optional[tuple]:
    if isinstance(e, ETest) and isinstance(e.at, Const) \
            and all(isinstance(t, Const) for t in e.args):
        return ("test", e.at.name, tuple(t.name for t in e.args))
    return None


def _abs_aspect(asp, subject, action, cont, net, mut, positive, cons):
    res = check_cut(asp.cut, subject, action, cont)
    if res is None:
        return frozenset((BOT,))
    th1, env = res
    # bindings of the action's own variables mean the trap only catches
    # some of the instantiations this action can fire with
    conditional = any(_plain_key(k) for k, _ in th1.pairs)
    cond_set = abstract_expr(th1.apply_expr(asp.cond), net, mut, env)
    if TT not in cond_set:
        return frozenset((BOT,))
    must_cond = cond_set == frozenset((TT,))
    out = set(abstract_expr(th1.apply_expr(asp.rec), net, mut, env))
    if conditional or not must_cond:
        out.add(BOT)
    elif positive:
        atom = _constraint_atom(th1.apply_expr(asp.rec))
        if atom is not None:
            cons.append(atom)
    return frozenset(out)


def _abs_policy(pol, subject, action, cont, net, mut, positive, cons):
    if isinstance(pol, TruePol):
        return frozenset((TT,))
    if isinstance(pol, FalsePol):
        return frozenset((FF,))
    if isinstance(pol, NotPol):
        inner = _abs_policy(pol.body, subject, action, cont, net, mut,
                            False, [])
        return frozenset(neg(v) for v in inner)
    if isinstance(pol, CombinePol):
        keep = positive and pol.op == "oplus"
        sink = cons if keep else []
        op = BINARY_OPS[pol.op]
        ls = _abs_policy(pol.left, subject, action, cont, net, mut, keep, sink)
        rs = _abs_policy(pol.right, subject, action, cont, net, mut, keep, sink)
        return frozenset(op(a, b) for a in ls for b in rs)
    if isinstance(pol, AspectPol):
        return _abs_aspect(pol.aspect, subject, action, cont, net, mut,
                           positive, cons)
    raise TypeError(f"not a policy: {pol!r}")


@dataclass(frozen=True)
class MightGrant:
    can_grant: bool
    constraints: tuple       # test atoms that must hold at any firing
    values: frozenset        # every truth value this side may produce


def might_grant(pol, act, net: Net, mut: Optional[MutationInfo] = None) -> MightGrant:
    """Abstract verdict of one policy side for a located action:
    whether it could ever let the action fire, which test atoms are
    guaranteed at any firing, and the set of values it may take."""
    if mut is None:
        mut = MutationInfo(net)
    cons: list = []
    vals = _abs_policy(pol, act.source, act.action, act.continuation, net,
                       mut, True, cons)
    return MightGrant(any(grant(v) for v in vals), tuple(cons), vals)


# ---------------------------------------------------------------------------
# static predicate truth

def static_pred(pred, net: Net, mut: MutationInfo, domain):
    """Kleene pair (definitely true, possibly true) over every
    reachable transition the enclosing action could produce."""
    if isinstance(pred, PTrue):
        return True, True
    if isinstance(pred, PFalse):
        return False, False
    if isinstance(pred, PNot):
        must, may = static_pred(pred.body, net, mut, domain)
        return not may, not must
    if isinstance(pred, PAnd):
        l = static_pred(pred.left, net, mut, domain)
        r = static_pred(pred.right, net, mut, domain)
        return l[0] and r[0], l[1] and r[1]
    if isinstance(pred, POr):
        l = static_pred(pred.left, net, mut, domain)
        r = static_pred(pred.right, net, mut, domain)
        return l[0] or r[0], l[1] or r[1]
    if isinstance(pred, PForall):
        # constants never appear out of thin air, so every runtime
        # quantifier domain is a subset of the initial one
        must = all(static_pred(_bind(pred.var, l, pred.body), net, mut,
                               domain)[0] for l in domain)
        return must, True
    if isinstance(pred, PExists):
        may = any(static_pred(_bind(pred.var, l, pred.body), net, mut,
                              domain)[1] for l in domain)
        return False, may
    if isinstance(pred, PEqual):
        if isinstance(pred.left, Const) and isinstance(pred.right, Const):
            v = pred.left.name == pred.right.name
            return v, v
        return False, True
    if isinstance(pred, PGeq):
        if isinstance(pred.left, Const) and isinstance(pred.right, Const) \
                and pred.left.name.isdigit() and pred.right.name.isdigit():
            v = int(pred.left.name) >= int(pred.right.name)
            return v, v
        return False, True
    if isinstance(pred, (PTest, PTestPost)):
        if not all(isinstance(t, Const) for t in pred.args) \
                or not isinstance(pred.at, Const):
            return False, True
        vals = tuple(t.name for t in pred.args)
        here = interp_test(vals, pred.at.name, mut.initial)
        must = here and not mut.may_remove(pred.at.name, vals)
        may = here or mut.may_add(pred.at.name, vals)
        return must, may
    raise TypeError(f"not a predicate: {pred!r}")


def _bind(var: str, loc: str, body):
    return Substitution(((var, Const(loc)),)).apply_pred(body)


def entailed(pred, atoms: set) -> bool:
    """Does the predicate follow from the collected constraint atoms."""
    if isinstance(pred, PTrue):
        return True
    if isinstance(pred, PAnd):
        return entailed(pred.left, atoms) and entailed(pred.right, atoms)
    if isinstance(pred, POr):
        return entailed(pred.left, atoms) or entailed(pred.right, atoms)
    if isinstance(pred, PEqual):
        return (isinstance(pred.left, Const) and isinstance(pred.right, Const)
                and pred.left.name == pred.right.name)
    if isinstance(pred, PTest):
        if all(isinstance(t, Const) for t in pred.args) \
                and isinstance(pred.at, Const):
            return ("test", pred.at.name,
                    tuple(t.name for t in pred.args)) in atoms
    return False


# ---------------------------------------------------------------------------
# the per-action pipeline

@dataclass(frozen=True)
class ActionReport:
    source: str
    action: Action
    outcome: str
    theta0: Optional[Substitution] = None
    constraints: tuple = ()
    side_values: tuple = ()       # (source set, target set) when computed


@dataclass(frozen=True)
class StaticVerdict:
    certified: bool
    actions: tuple


def check_single_action(obl: Obligation, net: Net, act,
                        pols: Optional[dict] = None,
                        mut: Optional[MutationInfo] = None,
                        domain: Optional[list] = None) -> ActionReport:
    if pols is None:
        pols = policies_by_location(net)
    if mut is None:
        mut = MutationInfo(net)
    if domain is None:
        domain = sorted(loc_set(net))
    if CAP_LETTER[act.action.cap] != obl.cut.cap:
        return ActionReport(act.source, act.action, IRRELEVANT)
    th0 = findsubs(extract(obl.cut), extract(act))
    if th0 is None:
        return ActionReport(act.source, act.action, IRRELEVANT)
    act0 = th0.apply_located(act)
    tgt = act0.action.target
    if not isinstance(tgt, Const):
        return ActionReport(act.source, act.action, NOT_CERTIFIED, th0)
    if tgt.name not in pols:
        # entries are never created at fresh locations, so an action
        # aimed at a location without one can never fire
        return ActionReport(act.source, act.action, IRRELEVANT, th0)
    src = might_grant(act.policy, act0, net, mut)
    tgt_side = might_grant(pols[tgt.name], act0, net, mut)
    combined = {join_k(a, b) for a in src.values for b in tgt_side.values}
    sides = (src.values, tgt_side.values)
    if not any(grant(v) for v in combined):
        return ActionReport(act.source, act.action, DENIED, th0,
                            side_values=sides)
    pred0 = th0.apply_pred(obl.pred)
    constraints = src.constraints + tgt_side.constraints
    if static_pred(pred0, net, mut, domain)[0] \
            or entailed(pred0, set(constraints)):
        return ActionReport(act.source, act.action, ENTAILED, th0,
                            constraints=constraints, side_values=sides)
    return ActionReport(act.source, act.action, NOT_CERTIFIED, th0,
                        constraints=constraints, side_values=sides)


def check_network(net: Net, obl: Obligation) -> StaticVerdict:
    """Certify every syntactic action of the network, without building
    any part of the transition system."""
    if has_replication(net):
        raise ReplicationPresent(
            "replication is outside the checkable fragment")
    net = canonicalize(net)
    pols = policies_by_location(net)
    mut = MutationInfo(net)
    domain = sorted(loc_set(net))
    reports = tuple(check_single_action(obl, net, act, pols, mut, domain)
                    for act in take_actions(net))
    certified = all(r.outcome != NOT_CERTIFIED for r in reports)
    return StaticVerdict(certified, reports)


def constraint_text(atom: tuple) -> str:
    kind, at, values = atom
    return f"{kind}({', '.join(values)})@{at}"


def report_json(report: StaticVerdict, explain: bool = False) -> dict:
    from .parser import render_action
    actions = []
    for r in report.actions:
        entry = {
            "source_loc": r.source,
            "action_text": render_action(r.action),
            "outcome": r.outcome,
        }
        if r.theta0 is not None:
            entry["theta0"] = repr(r.theta0)
        entry["constraints"] = [constraint_text(c) for c in r.constraints]
        if explain and r.side_values:
            src, tgt = r.side_values
            entry["source_values"] = sorted(v.text for v in src)
            entry["target_values"] = sorted(v.text for v in tgt)
        actions.append(entry)
    return {"certified": report.certified, "actions": actions}
