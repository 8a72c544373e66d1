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

The certifier is the explorer's evaluator, `semantics.policy_values`
and `semantics.pred_values`, run in an abstract value domain: an
abstract interpretation of the same semantics.  The explorer runs it
in one state, where every value set is a singleton.  Here the domain
is `MutationInfo`, whose leaves take every value they may have in any
reachable state, since the truth of a test atom changes over time.
Location entries are never created at fresh locations and constants
never appear out of thin air, so each leaf's set holds its value in
every reachable state, and as each operator is lifted pointwise, so
does the set of every policy and predicate.

When an aspect's trap applies to every firing of the action, its
condition definitely holds and its recommendation is a ground test
atom combined into the policy purely by knowledge joins, then the
action can only fire in states where that test succeeds.  These sure
atoms, reported as constraints, refine the domain in which the
action's predicate is read: a `test` of one reads tt.  That is sound
because policies and `test` read the state before the step, where a
sure atom holds at every firing.  `test'` reads the state after it,
which the action itself may change (an in may take the very tuple its
guard tested), so `test'` is not refined.

The domain notes every test atom it is asked, as a `semantics.template`,
and `check_network` returns it with its verdict.  The partial-order
reduction of exhaustive.py, given that verdict, notes in a copy of the
domain with an `asked` of its own which tuples an action's policies
and the obligation's predicate may read, so the certifier and the
reduced search share this one abstract domain, and a check certifies
once.  Nothing reads the verdict's own `asked`: it holds what the
judgements `check_network` made asked, and a renamed report (below)
asks nothing.

Role-based networks run one process at many locations, and the parser
makes entries whose bodies read the same share one body node.  So the
work that does not depend on where an action sits is done once per
distinct body and action object: `take_actions` walks each distinct
body once, the domain takes the out and in templates of each distinct
action once, and `report_json` and `report_text` render each distinct
action's text once.
The range of the predicate's quantifiers, the network's location
constants, is collected only when the predicate quantifies, and a net
that `canonicalize` made, as `parse_net` returns it, is not sorted
again.

A location binds the pattern's subject, so the same action is judged
anew at each location; but principals with the same role are
interchangeable, and each class of them is judged once (Ip and Dill,
"Better Verification through Symmetry", FMSD 1996; Emerson and Sistla,
"Symmetry and Model Checking", FMSD 1996).  A candidate is the
location of a process entry that no policy, no process body and
neither part of the obligation names.  Two candidates c and d are
interchangeable when the entries naming c, each with c blanked, and
those naming d, each with d blanked, are equal as multisets; an entry
naming both would stand in the first with d and could not stand in the
second, so no such pair is grouped.  Swapping c and d then maps the
canonical net onto itself and fixes every policy, every body and the
obligation.  Every step of the judgement compares constants only by
equality: unification, the templates of `MutationInfo`, the sure atoms
and both evaluators.  So judging an action at d gives the report of
the same action at c with the two names swapped in its source, its
`theta0` and its constraints.  Of the candidates, the report at c
names c alone: its names come from c, the action's body, the policies
and the obligation, and no candidate is named in the last three.  So
`check_network` notes once per report at c which `theta0` pairs and
which constraint atoms name c, and a member d's report rebuilds only
those, with one `Const` for d per report, and the verdict keeps the
index of the report each renames.  `report_text` writes each report
at c with `json_text`, and once more with a placeholder for c in
those slots and the source, splits that text at the placeholder and
joins the pieces with d's escaped name, so a class's JSON costs two
`json_text` calls per report at c and one join per member.
The renamed report asks nothing, so the verdict's `asked` holds fewer
atoms than judging each action on its own would note; nothing reads
them.  One guard keeps the plain judgement of every action: a
predicate that quantifies, whose `exists` and `forall` stop early in
the order of the names and so ask atoms the names choose.  Numerals
are never candidates, since `geq` reads their value.  Any refinement
of the certifier must keep to this: compare constants only by
equality, or keep apart the constants it reads otherwise, as numerals
are kept apart.
"""
from __future__ import annotations

from json.encoder import encode_basestring_ascii
from typing import NamedTuple, Optional

from .belnap import FF, GRANTS, LIFTED, TT, names
from .model import (Action, CAP_LETTER, Const, ETest, Net, Obligation, OUT, IN,
                    ReplicationPresent, Substitution, canonicalize,
                    has_replication, loc_set, policies_by_location,
                    take_actions)
from .parser import render_action
from .semantics import (ANY, data_index, ground_atom, json_text, meets,
                        numeral, occurs_in, policy_values, pred_values,
                        quantified, template, truth)
from .unification import findsubs

IRRELEVANT = "CertifiedIrrelevant"
DENIED = "CertifiedDenied"
ENTAILED = "CertifiedByEntailment"
NOT_CERTIFIED = "NotCertified"


class MutationInfo:
    """Which data tuples the network holds at the start, and which its
    actions may add or remove.

    This is the certifier's value domain.  A test may take any value
    its tuple can have on some run: tt when the tuple is present at the
    start and no input may remove it, ff when it is absent and no
    output may add it, and else both.  A term that is not a constant
    stands for a value not known before the run, so an atom over one
    takes both values, and a refuted occurs-in stays refuted.  The
    domain `refined` by the sure test atoms of an action reads tt for
    a `test` of one of them, though not for a `test'`.

    Every test atom the domain is asked is noted in `asked`, as its
    `template`, so an evaluation in it names every atom the concrete
    evaluation may read.  A refined domain notes into the same set.
    """

    __slots__ = ("initial", "sure", "asked", "actions", "_outs", "_ins")
    exact = False

    def __init__(self, net: Net):
        self.initial = data_index(net)      # the tuples present at the start
        self.sure = frozenset()             # tuples present at every firing
        self.asked: set = set()             # the test atoms asked so far
        self.actions = take_actions(net)
        # the (location, tuple) templates the outs and the ins write,
        # taken once per action object, which entries sharing a body share
        distinct = {id(la.action): la.action for la in self.actions}.values()
        self._outs = {template(a.args, a.target)
                      for a in distinct if a.cap == OUT}
        self._ins = {template(a.args, a.target)
                     for a in distinct if a.cap == IN}

    def sharing(self, sure: frozenset, asked: set) -> "MutationInfo":
        """The domain over the same tuples and actions, with sure for
        the tuples present at every firing, noting into asked."""
        known = object.__new__(MutationInfo)
        known.initial, known.actions = self.initial, self.actions
        known._outs, known._ins = self._outs, self._ins
        known.sure, known.asked = sure, asked
        return known

    def refined(self, atoms) -> "MutationInfo":
        """The domain at the firings of an action where the test atoms,
        as `might_grant` collects them, hold."""
        return self.sharing(frozenset(atoms), self.asked)

    def may_add(self, at: str, values) -> bool:
        return meets(self._outs, ((at, values),))

    def may_remove(self, at: str, values) -> bool:
        return meets(self._ins, ((at, values),))

    def equal(self, left, right) -> int:
        if isinstance(left, Const) and isinstance(right, Const):
            return truth(left.name == right.name)
        return TT | FF

    def geq(self, left, right) -> int:
        l, r = numeral(left), numeral(right)
        if l is None or r is None:
            return TT | FF
        return truth(l >= r)

    def test(self, args, at, post=None) -> int:
        atom = template(args, at)
        self.asked.add(atom)
        if atom[0] is ANY or ANY in atom[1]:
            return TT | FF
        if not post and atom in self.sure:
            return TT
        if atom in self.initial:
            return TT | FF if self.may_remove(*atom) else TT
        return TT | FF if self.may_add(*atom) else FF

    def occurs(self, action, continuation) -> int:
        if occurs_in(action, continuation):
            return TT | FF
        # grounding a template only removes matches, never adds one
        return FF


class MightGrant(NamedTuple):
    constraints: tuple       # (location, tuple) atoms sure at any firing
    values: int              # the set of every value this side may produce


def might_grant(pol, act, mut: MutationInfo) -> MightGrant:
    """Abstract verdict of one policy side for a located action: the
    test atoms guaranteed at any firing, and the set of values it may
    take."""
    sure: list = []
    values = policy_values(pol, act.source, act.action, act.continuation, mut,
                           sure)
    constraints = tuple(filter(None, (ground_atom(e.args, e.at) for e in sure
                                      if isinstance(e, ETest))))
    return MightGrant(constraints, values)


# ---------------------------------------------------------------------------
# the per-action pipeline

class ActionReport(NamedTuple):
    source: str
    action: Action
    outcome: str
    theta0: Optional[Substitution] = None
    constraints: tuple = ()
    side_values: tuple = ()       # (source set, target set) when computed


class StaticVerdict(NamedTuple):
    certified: bool
    actions: tuple
    domain: MutationInfo     # the domain the actions were judged in
    renamed: tuple = ()      # per report, the index of the report it
                             # renames or None; () when none does


def check_single_action(obl: Obligation, act, pols: dict, mut: MutationInfo,
                        domain: list) -> ActionReport:
    """Judge one located action; pols maps each location to its policy
    and domain holds the location constants of the network."""
    if CAP_LETTER[act.action.cap] != obl.cut.cap:
        return ActionReport(act.source, act.action, IRRELEVANT)
    th0 = findsubs((obl.cut.subject, *obl.cut.args, obl.cut.target),
                   (Const(act.source), *act.action.args, act.action.target))
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
    src = might_grant(act.policy, act0, mut)
    tgt_side = might_grant(pols[tgt.name], act0, mut)
    sides = (src.values, tgt_side.values)
    if not LIFTED["oplus"][src.values][tgt_side.values] & GRANTS:
        return ActionReport(act.source, act.action, DENIED, th0,
                            side_values=sides)
    constraints = src.constraints + tgt_side.constraints
    values = pred_values(th0.apply(obl.pred), mut.refined(constraints),
                         domain)
    return ActionReport(act.source, act.action,
                        NOT_CERTIFIED if values & FF else ENTAILED, th0,
                        constraints=constraints, side_values=sides)


def interchangeable(net: Net, obl: Obligation) -> dict:
    """Each location of a process entry that may take the place of a
    smaller one, mapped to the least name of its class: two candidates,
    constants that no policy, no body and no part of the obligation
    names and that are not numerals, are interchangeable when the
    entries naming each, the name blanked, are equal as multisets."""
    cut = obl.cut
    named = set(obl.pred.consts)
    named.update([t.name for t in (cut.subject, *cut.args, cut.target)
                  if t.__class__ is Const])
    seen, sites = set(), set()     # ids of the nodes read; process locations
    for e in net.entries:
        pol, body = e.policy, e.body
        if id(pol) not in seen:
            seen.add(id(pol))
            named |= pol.consts
        if body.__class__ is not tuple:
            sites.add(e.location)
            if id(body) not in seen:
                seen.add(id(body))
                named |= body.consts
    # `geq` reads the value of a numeral, so numerals are kept apart
    candidates = {c for c in sites - named
                  if not (c.isascii() and c.isdigit())}
    if len(candidates) < 2:
        return {}
    blanked: dict = {c: [] for c in candidates}
    for e in net.entries:
        loc, kind, body, pol = e.sort_key
        if kind == "proc":
            if loc in candidates:
                blanked[loc].append((None, kind, body, pol))
            continue
        hits = candidates.intersection(e.body)
        if loc in candidates:
            hits.add(loc)
        for c in hits:
            blanked[c].append((None if loc == c else loc, kind,
                               tuple([None if v == c else v for v in e.body]),
                               pol))
    classes: dict = {}          # signature -> the least candidate with it
    least: dict = {}
    for c in sorted(candidates):
        # any fixed order of a multiset's items compares multisets
        rep = classes.setdefault(tuple(sorted(blanked[c], key=hash)), c)
        if rep != c:
            least[c] = rep
    return least


def _naming(r: ActionReport, name: str) -> tuple:
    """The positions of the theta0 pairs and of the constraint atoms of
    r that name name."""
    th0 = () if r.theta0 is None else tuple([
        k for k, (_, t) in enumerate(r.theta0.pairs)
        if t.__class__ is Const and t.name == name])
    return th0, tuple([k for k, (at, values) in enumerate(r.constraints)
                       if at == name or name in values])


def _renamed(r: ActionReport, th0_at: tuple, constraints_at: tuple,
             rep: str, source: str) -> ActionReport:
    """The report r of an action at rep, for the same action at source:
    the theta0 pairs and constraint atoms at the positions given, those
    that name rep, name source instead."""
    th0, constraints = r.theta0, r.constraints
    if th0_at:
        const = Const(source)
        pairs = list(th0.pairs)
        for k in th0_at:
            pairs[k] = pairs[k][0], const
        th0 = Substitution(tuple(pairs))
    if constraints_at:
        constraints = list(constraints)
        for k in constraints_at:
            at, values = constraints[k]
            constraints[k] = (source if at == rep else at,
                              tuple([source if v == rep else v
                                     for v in values]))
        constraints = tuple(constraints)
    return ActionReport(source, r.action, r.outcome, th0, constraints,
                        r.side_values)


def check_network(net: Net, obl: Obligation) -> StaticVerdict:
    """Certify every syntactic action of the network, without building
    any part of the transition system.  An action of a location that
    is `interchangeable` with a smaller one takes the report of the
    same action there, renamed."""
    if has_replication(net):
        raise ReplicationPresent(
            "replication is outside the checkable fragment")
    net = canonicalize(net)
    mut = MutationInfo(net)
    pols = policies_by_location(net)
    if quantified(obl.pred):
        domain, least = sorted(loc_set(net)), {}
    else:
        # a predicate without quantifiers never reads the range
        domain, least = (), interchangeable(net, obl)
    leaders = set(least.values())
    # (location, action, continuation) -> the report, and the positions
    # of its theta0 pairs and constraint atoms that name the location
    judged: dict = {}
    reports, renamed = [], []
    for act in mut.actions:
        source = act.source
        rep = least.get(source)
        got = rep and judged.get((rep, id(act.action), id(act.continuation)))
        if got:
            k, r, th0_at, constraints_at = got
            report = _renamed(r, th0_at, constraints_at, rep, source)
        else:
            k, report = None, check_single_action(obl, act, pols, mut, domain)
            if source in leaders:
                judged[source, id(act.action), id(act.continuation)] = \
                    len(reports), report, *_naming(report, source)
        reports.append(report)
        renamed.append(k)
    certified = all(r.outcome != NOT_CERTIFIED for r in reports)
    return StaticVerdict(certified, tuple(reports), mut, tuple(renamed))


def constraint_text(atom: tuple) -> str:
    at, values = atom
    return f"test({', '.join(values)})@{at}"


def _entry(r: ActionReport, texts: dict, explain: bool) -> dict:
    """One report's document; texts maps an action's id to its text."""
    text = texts.get(id(r.action))
    if text is None:
        text = texts[id(r.action)] = render_action(r.action)
    entry = {"source_loc": r.source, "action_text": text, "outcome": r.outcome}
    if r.theta0 is not None:
        entry["theta0"] = repr(r.theta0)
    entry["constraints"] = [constraint_text(c) for c in r.constraints]
    if explain and r.side_values:
        src, tgt = r.side_values
        entry["source_values"] = names(src)
        entry["target_values"] = names(tgt)
    return entry


def report_json(report: StaticVerdict, explain: bool = False) -> dict:
    """The static report as a document of dicts, for library callers;
    `report_text` writes its JSON text."""
    texts: dict = {}
    return {"certified": report.certified,
            "actions": [_entry(r, texts, explain) for r in report.actions]}


PLACEHOLDER = "\0"           # a name no parsed network holds


def report_text(verdict: StaticVerdict, explain: bool = False,
                newline: str = "\n") -> str:
    """The text `json_text(report_json(verdict, explain), newline)`
    gives.  A renamed report joins by the member's name its
    representative's text with PLACEHOLDER in the slots `_naming`
    finds, split at the placeholder; when the pieces are not one more
    than the slots (a name holds it), its own text."""
    mark = encode_basestring_ascii(PLACEHOLDER)[1:-1]
    texts: dict = {}
    templates: dict = {}         # index of a report -> its split text, or ()
    inner, item = newline + "  ", newline + "    "
    parts = [f'{{{inner}"actions": ']
    sep = "[" + item
    renamed = verdict.renamed or [None] * len(verdict.actions)
    for r, k in zip(verdict.actions, renamed):
        parts.append(sep)
        sep = "," + item
        if k is not None:
            split = templates.get(k)
            if split is None:
                rep = verdict.actions[k]
                th0_at, constraints_at = _naming(rep, rep.source)
                split = json_text(_entry(
                    _renamed(rep, th0_at, constraints_at, rep.source,
                             PLACEHOLDER), texts, explain), item).split(mark)
                slots = 1 + len(th0_at) + sum(
                    (at == rep.source) + values.count(rep.source)
                    for at, values in map(rep.constraints.__getitem__,
                                          constraints_at))
                split = templates[k] = split if len(split) == slots + 1 else ()
            if split:
                parts.append(encode_basestring_ascii(r.source)[1:-1]
                             .join(split))
                continue
        parts.append(json_text(_entry(r, texts, explain), item))
    parts.append(f'{inner}]' if verdict.actions else "[]")
    parts.append(f',{inner}"certified": '
                 f'{"true" if verdict.certified else "false"}{newline}}}')
    return "".join(parts)
