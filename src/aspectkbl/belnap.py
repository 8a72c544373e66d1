"""Four-valued logic with twin orderings, on value sets.

The four values are BOT (no information), TT, FF and TOP (conflicting
information).  Two partial orders structure them: the knowledge order
(BOT least, TOP greatest, TT and FF incomparable) and the truth order
(FF least, TT greatest, BOT and TOP incomparable).  The binary
operators are lubs and glbs in one of the two orders, written as
explicit 16-entry tables on single values; the test suite re-derives
every entry from the order relations.

A value set is a nonempty set of the four values, the values an
expression may take, coded as a 4-bit mask.  BOT, TT, FF and TOP are
the singleton masks 1, 2, 4 and 8, so a single value is its own
singleton set.  Every operator is lifted to value sets pointwise: s op
t holds a op b for every a in s and b in t.
"""
from __future__ import annotations

BOT, TT, FF, TOP = 1, 2, 4, 8

VALUES = (BOT, TT, FF, TOP)

_NAMES = {BOT: "bot", TT: "tt", FF: "ff", TOP: "top"}

# lub in the knowledge order
_JOIN_K = {
    (BOT, BOT): BOT, (BOT, TT): TT,  (BOT, FF): FF,  (BOT, TOP): TOP,
    (TT, BOT): TT,  (TT, TT): TT,  (TT, FF): TOP, (TT, TOP): TOP,
    (FF, BOT): FF,  (FF, TT): TOP, (FF, FF): FF,  (FF, TOP): TOP,
    (TOP, BOT): TOP, (TOP, TT): TOP, (TOP, FF): TOP, (TOP, TOP): TOP,
}

# glb in the knowledge order
_MEET_K = {
    (BOT, BOT): BOT, (BOT, TT): BOT, (BOT, FF): BOT, (BOT, TOP): BOT,
    (TT, BOT): BOT, (TT, TT): TT,  (TT, FF): BOT, (TT, TOP): TT,
    (FF, BOT): BOT, (FF, TT): BOT, (FF, FF): FF,  (FF, TOP): FF,
    (TOP, BOT): BOT, (TOP, TT): TT,  (TOP, FF): FF,  (TOP, TOP): TOP,
}

# lub in the truth order
_JOIN_T = {
    (BOT, BOT): BOT, (BOT, TT): TT,  (BOT, FF): BOT, (BOT, TOP): TT,
    (TT, BOT): TT,  (TT, TT): TT,  (TT, FF): TT,  (TT, TOP): TT,
    (FF, BOT): BOT, (FF, TT): TT,  (FF, FF): FF,  (FF, TOP): TOP,
    (TOP, BOT): TT,  (TOP, TT): TT,  (TOP, FF): TOP, (TOP, TOP): TOP,
}

# glb in the truth order
_MEET_T = {
    (BOT, BOT): BOT, (BOT, TT): BOT, (BOT, FF): FF,  (BOT, TOP): FF,
    (TT, BOT): BOT, (TT, TT): TT,  (TT, FF): FF,  (TT, TOP): TOP,
    (FF, BOT): FF,  (FF, TT): FF,  (FF, FF): FF,  (FF, TOP): FF,
    (TOP, BOT): FF,  (TOP, TT): TOP, (TOP, FF): FF,  (TOP, TOP): TOP,
}

_NEG = {BOT: BOT, TT: FF, FF: TT, TOP: TOP}

# The values at most tt in knowledge: an access decision grants when
# its value is one of them.
GRANTS = BOT | TT

# b when a is at most tt in knowledge, else tt
_IMPLIES = {(a, b): b if a & GRANTS else TT for a in VALUES for b in VALUES}

# the first operand unless it carries no information
_PREF = {(a, b): b if a == BOT else a for a in VALUES for b in VALUES}


def members(s: int) -> tuple:
    """The single values of a value set."""
    return tuple(v for v in VALUES if s & v)


def names(s: int) -> list:
    """The sorted surface spellings of a value set's members: bot, ff,
    top, tt."""
    return sorted(_NAMES[v] for v in members(s))


def _lift(op: dict) -> tuple:
    # a set past a singleton is its lowest member joined to the rest
    table = [[0] * 16]
    for s in range(1, 16):
        rest = s & s - 1
        if rest:
            row = [a | b for a, b in zip(table[s ^ rest], table[rest])]
        else:
            row = [0] * 16
            for t in range(1, 16):
                low = t & -t
                row[t] = row[t ^ low] | (row[low] if t != low else op[s, t])
        table.append(row)
    return tuple(map(tuple, table))


# negation is one-to-one, so the images of distinct members add up
NEG_SETS = tuple(sum(_NEG[v] for v in members(s)) for s in range(16))
# keyed by the operators' spelled names in policy source text
LIFTED = {name: _lift(op) for name, op in (
    ("oplus", _JOIN_K), ("otimes", _MEET_K), ("or", _JOIN_T),
    ("and", _MEET_T), ("implies", _IMPLIES), ("pref", _PREF))}
