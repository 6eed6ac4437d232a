"""Overpartitions, the D_k admissibility rule, its sweep, and specializations.

An overpartition is a partition in which the last occurrence of any part
value may be overlined.  It is stored per distinct value as
(value, multiplicity, overlined), so "v has a non-overlined occurrence" is
local: multiplicity(v) >= 2, or multiplicity(v) == 1 and v is not overlined.

D_k is counted by the transfer-matrix sweep (`dk_sweep`, on
`partitions.sweep`), whose state before value v is the distance to the
last overlined value, capped at k: `count_Dk_table` reads its last states
(and `partitions.count_C_table` runs its moves, specialized), and the bounded
counts its states after each value j, R_j from state k and P_j from them
all.  Its rows are packed in the R_j stream's width, so the proof
machinery's bounded stage reads every j off one sweep at the stream's
q-order and compares the rows as integers; `count_pj` and `count_rj` run
one sweep to a single j.  Counting enumerates nothing, so
no weight limit applies to it.

Witness lists enumerate.  An admissible object is a bitmask over its
partition's distinct values (bit idx overlines the idx-th largest), and
only admissible objects are formed: the rule looks only upward from an
overlined value, so a partition's objects are its largest-first prefix's
plus those that overline the new value.  `_walk_to` carries, down one walk
headed for weight n, each node's objects as strings in ascending mask
order with the smallest overlined value of each, which is all the rule
reads; `_overlinable` is the rule at a new value that occurs once.  So
`d_strings` yields each object's string as the walk reaches its leaf, and
`d_witnesses` parses the strings it keeps (`Overpartition.parse`, the
inverse of `Overpartition.__str__`).  `is_Dk_admissible` over
`enumerate_overpartitions` stays the definition the strings and the sweep
are tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, groupby
from typing import Iterator

from . import packed
from .partitions import (
    ANY, OVER, SKIP, check_params, enumerate_partitions, final_states, state_total, sweep,
)


@dataclass(frozen=True)
class Overpartition:
    """entries: ((value, multiplicity, overlined), ...) with values strictly decreasing."""

    entries: tuple

    def __post_init__(self):
        values = [v for v, _, _ in self.entries]
        if values != sorted(values, reverse=True) or len(set(values)) != len(values):
            raise ValueError("entry values must be strictly decreasing")
        for v, mult, _ in self.entries:
            if v < 1 or mult < 1:
                raise ValueError("values and multiplicities must be positive")

    @property
    def weight(self) -> int:
        return sum(v * mult for v, mult, _ in self.entries)

    @property
    def overline_count(self) -> int:
        return sum(1 for _, _, over in self.entries if over)

    @property
    def overlined_values(self) -> frozenset:
        return frozenset(v for v, _, over in self.entries if over)

    def has_nonoverlined_occurrence(self, v: int) -> bool:
        for value, mult, over in self.entries:
            if value == v:
                return mult >= 2 or not over
        return False

    def __str__(self) -> str:
        """Parts largest first, joined by '+', with '~' after the last copy
        of each overlined value; '0' for the empty overpartition."""
        pieces = []
        for v, mult, over in self.entries:
            pieces += [str(v)] * (mult - 1 if over else mult)
            if over:
                pieces.append(f"{v}~")
        return "+".join(pieces) or "0"

    @classmethod
    def parse(cls, text: str) -> Overpartition:
        """The overpartition str() prints as text."""
        entries = []
        for token in () if text == "0" else text.split("+"):
            over = token.endswith("~")
            v = int(token[:-1] if over else token)
            if entries and entries[-1][0] == v and not entries[-1][2]:
                entries[-1] = (v, entries[-1][1] + 1, over)
            else:
                entries.append((v, 1, over))
        return cls(tuple(entries))


def enumerate_overpartitions(n: int) -> Iterator[Overpartition]:
    """Yield every overpartition of n exactly once.

    Deterministic order: underlying partitions in lex-decreasing order,
    then overline subsets by increasing bitmask over the distinct values
    (bit idx overlines the idx-th largest).
    """
    for parts in enumerate_partitions(n):
        groups = [(v, len(list(g))) for v, g in groupby(parts)]
        for mask in range(1 << len(groups)):
            yield Overpartition(tuple(
                (v, mult, bool(mask >> idx & 1)) for idx, (v, mult) in enumerate(groups)
            ))


def _overlinable(strings: list, lows: list, b: int, above: int, k: int) -> list:
    """The D_k rule at a new smallest value b that occurs once: those of a
    node's strings whose objects may also overline b, in their order.

    above is the value just above b, and lows[idx] the smallest overlined
    value of strings[idx]; the walk passes n + k for each where there is
    none, so neither bars b.  b may be overlined only if no part lies in
    b+1..b+k-2, and then only beside objects whose smallest overlined value
    is at least b+k.  Together these are is_Dk_admissible's rules: a part
    in b+1..b+k-2 is plain or, overlined, too close to b.  They look only
    upward from an overlined value, so a new, smaller value spoils no
    object of the node.
    """
    if above < b + k - 1:
        return []
    far = b + k
    return [s for s, low in zip(strings, lows) if low >= far]


def d_strings(n: int, k: int) -> Iterator[str]:
    """The strings of the D_k-admissible overpartitions of n, one at a time
    as _walk_to reaches them, in the order of enumerate_overpartitions.  The
    parameters are checked at the call, before the first string."""
    check_params(k, n=n)
    return chain.from_iterable(_walk_to(n, k))


def _walk_to(n: int, k: int) -> Iterator[list]:
    """For each partition of n, in lex-decreasing order, the strings of its
    D_k-admissible overpartitions in ascending mask order.

    One depth-first walk headed for weight n.  Each node carries its
    objects' strings so far, in ascending mask order, and the smallest
    overlined value of each (n + k for none), which is all the rule reads.
    A child adds a new smallest value v with multiplicity c; its strings
    are built when it is popped: each of its parent's takes the new
    group's piece "+v+...+v".  When c = 1, those the rule keeps
    (_overlinable) also take "+v~", appended after the plain ones, since
    their masks carry the new, highest bit.  The value 1 is taken only as
    the whole remainder; a node whose smallest value is at least 2 can
    always be finished with 1s, so no node that cannot reach n is walked.
    Children are pushed v ascending, then c ascending, so the largest is
    walked first.  The callers check k and n.
    """
    rule = _overlinable
    top = n + k
    # (weight, smallest value, the value above it when it occurs once
    # (else 0), the parent's strings and their lows, the new piece); the
    # root's bound top lets its children take any value up to n, and its
    # one string is "0" only when it is itself the partition of n
    stack = [(0, top, 0, ["" if n else "0"], [top], "")]
    pop, push = stack.pop, stack.append  # bound once: this loop runs once per node
    while stack:
        weight, last, above, base, lows, piece = pop()
        strings = [s + piece for s in base]
        if above:
            over = rule(base, lows, last, above, k)
            if over:
                piece += "~"
                strings += [s + piece for s in over]
                lows = lows + [last] * len(over)
        room = n - weight
        if not room:
            yield strings
            continue
        sep = "+" if weight else ""
        if last > 1:
            # pushed before the larger values, so walked after them: the 1s
            # come last in lex-decreasing order
            push((n, 1, last if room == 1 else 0, strings, lows, sep + "1+" * (room - 1) + "1"))
        for v in range(2, min(last - 1, room) + 1):
            digits = str(v)
            part = sep + digits
            push((weight + v, v, last, strings, lows, part))
            # a repeated value is never overlined; each further copy
            # appends "+v" to the piece
            more = "+" + digits
            for c in range(2, room // v + 1):
                part += more
                push((weight + c * v, v, 0, strings, lows, part))


def is_Dk_admissible(o: Overpartition, k: int) -> bool:
    """The two forbidden-neighbour rules of the overpartition identity.

    For every overlined value b: (a) none of b, b+1, ..., b+k-2 appears as
    a non-overlined part, and (b) none of b+1, ..., b+k-1 is overlined.
    An overlined b alone is legal; b together with a second, plain copy of
    b is not (the plain copy is a non-overlined appearance of b).
    """
    check_params(k)
    over = o.overlined_values
    for b in over:
        for v in range(b, b + k - 1):
            if o.has_nonoverlined_occurrence(v):
                return False
        for v in range(b + 1, b + k):
            if v in over:
                return False
    return True


def d_witnesses(m: int, n: int, k: int) -> list:
    """Admissible overpartitions of n with exactly m overlined values, in
    the order of enumerate_overpartitions, read from the walk's strings."""
    return [Overpartition.parse(s) for s in d_strings(n, k) if s.count("~") == m]


def _dk_moves(k: int):
    """The D_k rule as sweep moves.  Before value v the state is
    d = min(v - b, k), b the largest overlined value below v (d = k when
    there is none).  Plain copies of v need d >= k-1, and an overlined v
    needs d = k and leaves d = 1: together is_Dk_admissible's two rules."""

    def moves(v: int, d: int) -> tuple:
        plain = (ANY if d >= k - 1 else SKIP, min(d + 1, k))
        return (plain, (OVER, 1)) if d == k else (plain,)

    return moves


def overpartition_parts(q_order: int) -> tuple:
    """(plain, distinct) parts of the R_j stream's slot bound: every D_k
    count, and so every a-row of R_j, is at most the overpartitions'
    (-q; q)_inf / (q; q)_inf."""
    return range(1, q_order + 1), range(1, q_order + 1)


def dk_sweep(n_max: int, k: int, m_max: int, j_max: int | None = None) -> Iterator[dict]:
    """The D_k sweep over the values 1..j_max (default n_max), weights
    <= n_max and a-rows 0..m_max.  After value j, state k counts R_j's
    objects (no overlined value in j-k+2..j) and all states P_j's.  Every
    count is at most an overpartition count, so the rows are packed in the
    R_j stream's width at q-order n_max."""
    check_params(k, n_max=n_max, m_max=m_max, j_max=j_max)
    width = packed.slot_width(n_max, *overpartition_parts(n_max))
    return sweep(n_max, k, _dk_moves(k), width, j_max, m_max, name=f"the D_{k} sweep")


def count_Dk_table(n_max: int, k: int, m_max: int | None = None) -> list:
    """table[m][n] = D_k(m, n) for m <= m_max (default n_max), n <= n_max,
    from the sweep."""
    m_max = n_max if m_max is None else m_max
    return packed.read_rows(state_total(final_states(dk_sweep(n_max, k, m_max))))


def count_pj(m: int, n: int, j: int, k: int) -> int:
    """Admissible overpartitions of n with m overlines and all parts <= j:
    one sweep to value j at weight n."""
    check_params(k, j=j)
    return packed.read_rows(state_total(final_states(dk_sweep(n, k, m, j))))[m][n] if m >= 0 else 0


def count_rj(m: int, n: int, j: int, k: int) -> int:
    """As count_pj, but additionally no overlined value in {j-k+2, ..., j}."""
    check_params(k, j=j)
    return packed.read_rows(final_states(dk_sweep(n, k, m, j))[k])[m][n] if m >= 0 else 0


def specialize_overpartition(o: Overpartition, i: int, k: int) -> tuple:
    """Relabel an admissible overpartition into an ordinary partition.

    Each non-overlined occurrence of value j becomes an even part 2j; each
    overlined value j becomes the odd part 2j + 2i - 1.  The result is the
    partition counted on the difference-condition side at parameters (i, k).
    """
    check_params(k, i)
    if not is_Dk_admissible(o, k):
        raise ValueError("overpartition is not admissible for this k")
    parts = []
    for v, mult, over in o.entries:
        plain = mult - 1 if over else mult
        parts.extend([2 * v] * plain)
        if over:
            parts.append(2 * v + 2 * i - 1)
    return tuple(sorted(parts, reverse=True))
