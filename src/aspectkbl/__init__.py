"""Verification toolkit for policy-governed tuple-space networks.

Networks place processes and data tuples at named locations, each
guarded by a four-valued policy built from trap-pattern aspects.
Obligations state that every matching transition satisfies a
predicate.  Two checkers are provided: an exhaustive one over the
reachable transition system and a fast per-action static certifier
that never explores any state.
"""

from importlib import resources

from .belnap import BOT, FF, TT, TOP, VALUES
from .model import (Action, AkblError, Aspect, AspectPol, BindVar, Const, Cut,
                    Diagnostic, EBin, ETrue, EvaluationError, Label,
                    LabelPattern, LimitExceeded, LocatedAction, Net, NetEntry,
                    Nil, Obligation, Par, Repl, ReplicationPresent,
                    Substitution, Sum, Var, Wildcard, canonicalize,
                    has_replication, loc_set, take_actions, validate)
from .unification import findsubs
from .parser import (ParseError, parse_net, parse_obligation, parse_policy,
                     render_expr, render_net, render_obligation)
from .semantics import (LTS, build_lts, data_index, dot_export, json_export,
                        match, occurs_in, step_candidates)
from .exhaustive import Verdict, Witness, check_lts, sat_obl, unify_label
from .certify import (ActionReport, MutationInfo, StaticVerdict, check_network,
                      check_single_action, might_grant, report_json)

__version__ = "0.1.0"


def corpus_path(name: str):
    """Path of a bundled example network or obligation file."""
    return resources.files(__name__) / "corpus" / name


def corpus_text(name: str) -> str:
    return corpus_path(name).read_text()
