"""Four-valued logic with twin orderings.

The four values are BOT (no information), TT, FF and TOP (conflicting
information).  Two partial orders structure them: the knowledge order
(BOT least, TOP greatest, TT and FF incomparable) and the truth order
(FF least, TT greatest, BOT and TOP incomparable).  The binary
operators are lubs and glbs in one of the two orders and are stored as
explicit 16-entry tables; the test suite re-derives every entry from
the order relations.

A value set is a nonempty set of the four values, the values an
expression may take.  It is coded as a 4-bit mask with bit `1 << tag`
for each member, so a single value is a singleton, and every operator
is lifted to value sets pointwise: s op t holds a op b for every a in
s and b in t.
"""
from __future__ import annotations


class FourValue:
    __slots__ = ("tag", "name")

    def __init__(self, tag: int, name: str):
        self.tag = tag
        self.name = name

    def __repr__(self):
        return self.name

    @property
    def text(self) -> str:
        """Surface spelling used by the CLI: tt, ff, bot, top."""
        return self.name


BOT = FourValue(0, "bot")
TT = FourValue(1, "tt")
FF = FourValue(2, "ff")
TOP = FourValue(3, "top")

VALUES = (BOT, TT, FF, TOP)

def leq_k(a: FourValue, b: FourValue) -> bool:
    """Knowledge order: BOT below everything, TOP above everything."""
    return a is b or a is BOT or b is TOP


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


def join_k(a: FourValue, b: FourValue) -> FourValue:
    return _JOIN_K[(a, b)]


def meet_k(a: FourValue, b: FourValue) -> FourValue:
    return _MEET_K[(a, b)]


def join_t(a: FourValue, b: FourValue) -> FourValue:
    return _JOIN_T[(a, b)]


def meet_t(a: FourValue, b: FourValue) -> FourValue:
    return _MEET_T[(a, b)]


def neg(a: FourValue) -> FourValue:
    """Swap TT and FF, fix BOT and TOP."""
    return _NEG[a]


def implies(a: FourValue, b: FourValue) -> FourValue:
    """Return b when a holds at most at level tt in knowledge, else TT."""
    return b if leq_k(a, TT) else TT


def priority(a: FourValue, b: FourValue) -> FourValue:
    """First projection unless the first operand carries no information."""
    return b if a is BOT else a


def grant(a: FourValue) -> bool:
    """An access decision grants when the value is below tt in knowledge."""
    return leq_k(a, TT)


# Spelled operator names as they appear in policy source text.
BINARY_OPS = {
    "oplus": join_k,
    "otimes": meet_k,
    "or": join_t,
    "and": meet_t,
    "implies": implies,
    "pref": priority,
}


# ---------------------------------------------------------------------------
# value sets

def vset(*values: FourValue) -> int:
    """The value set of the given values."""
    return sum(1 << v.tag for v in set(values))


def members(s: int) -> frozenset:
    return frozenset(v for v in VALUES if s >> v.tag & 1)


def only(s: int) -> FourValue:
    """The member of a singleton value set."""
    return VALUES[s.bit_length() - 1]


def _lift(op) -> tuple:
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
                row[t] = row[t ^ low] | (row[low] if t != low else
                                         1 << op(only(s), only(t)).tag)
        table.append(row)
    return tuple(map(tuple, table))


GRANTS = vset(*filter(grant, VALUES))   # the values that let an action fire
NEG_SETS = tuple(vset(*map(neg, members(s))) for s in range(16))
LIFTED = {name: _lift(op) for name, op in BINARY_OPS.items()}
