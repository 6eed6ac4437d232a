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
only admissible masks are formed: the rule looks only upward from an
overlined value, so a partition's masks are its largest-first prefix's
plus those that overline the new value.  `_overline_step` is that
one-group step, and `_walk_to` carries it down one walk headed for
weight n.  The walk also carries each partition's text, built once per
node from its parent's, so `d_strings` yields each object's string as
the walk reaches its leaf.  The masks are closed under dropping the
highest bit (the smallest overlined value), so `_mark`, the one string
rule, forms each mask's string from that smaller mask's by one '~';
`Overpartition.__str__` passes it its own mask's chain.  Objects are built
only where a caller asks for them (`d_witnesses`).  `is_Dk_admissible` over
`enumerate_overpartitions` stays the definition the masks, the strings
and the sweep are tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
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
        # chain: the masks of the overlines so far, each its predecessor
        # plus one higher bit
        text, ends, chain = "", [], [0]
        for idx, (v, mult, over) in enumerate(self.entries):
            text += ("+" if text else "") + "+".join([str(v)] * mult)
            ends.append(len(text))
            if over:
                chain.append(chain[-1] | 1 << idx)
        return _mark(text, ends, chain)[chain[-1]]


def _groups(parts: tuple) -> tuple:
    """((value, multiplicity), ...) of a partition, values strictly decreasing."""
    return tuple((v, len(list(g))) for v, g in groupby(parts))


def _mark(text: str, ends: list, masks: list) -> dict:
    """The one string rule: {mask: string} for the overline masks of one
    partition, from its text (parts largest first, joined by '+') and the
    end offset of each group's "v+v+...+v" (bit idx overlines group idx).
    A string has '~' after the last occurrence of each overlined value, and
    mask 0's is the text itself, '0' for the empty partition.

    masks is ascending, from 0, and holds each mask's rest, the mask with
    its highest bit idx dropped (admissible masks do: the D_k rules look
    only upward from an overlined value).  So a mask's string is its
    rest's, already formed, with one '~' inserted at ends[idx] plus the
    rest's overline count, the marks that lie before that offset."""
    marked = {0: text or "0"}
    for mask in masks[1:]:
        idx = mask.bit_length() - 1
        rest = mask ^ 1 << idx
        before = marked[rest]
        at = ends[idx] + rest.bit_count()
        marked[mask] = f"{before[:at]}~{before[at:]}"
    return marked


def _build(groups: list, mask: int) -> Overpartition:
    return Overpartition(
        tuple((v, mult, bool((mask >> idx) & 1)) for idx, (v, mult) in enumerate(groups))
    )


def enumerate_overpartitions(n: int) -> Iterator[Overpartition]:
    """Yield every overpartition of n exactly once.

    Deterministic order: underlying partitions in lex-decreasing order,
    then overline subsets by increasing bitmask over the distinct values.
    """
    for parts in enumerate_partitions(n):
        groups = _groups(parts)
        for mask in range(1 << len(groups)):
            yield _build(groups, mask)


def _overline_step(masks: list, groups: tuple, k: int) -> list:
    """The one-group step of the D_k rule: the admissible masks of groups,
    from masks, those of groups[:-1].

    groups is ((value, multiplicity), ...) with values strictly decreasing,
    and bit idx overlines groups[idx].  Adding a new smallest value keeps
    every mask of the prefix admissible (the rules look only upward from an
    overlined value).  The new value b may itself be overlined only if it
    occurs once and no part lies in b+1..b+k-2, and then only beside masks
    whose smallest overlined value is at least b+k.  Together these are
    is_Dk_admissible's rules: a part in b+1..b+k-2 is plain or, overlined,
    too close to b.  masks is returned as is when nothing is added; it is
    shared, never changed in place.
    """
    idx = len(groups) - 1
    b, mult = groups[idx]
    if mult > 1 or (idx and groups[idx - 1][0] < b + k - 1):
        return masks
    # every mask of the prefix lies below bit idx, so appending keeps the
    # list ascending; a mask's highest set bit is its smallest overlined value
    return masks + [
        mask | (1 << idx)
        for mask in masks
        if not mask or groups[mask.bit_length() - 1][0] >= b + k
    ]


def d_strings(n: int, k: int) -> Iterator[str]:
    """The strings of the D_k-admissible overpartitions of n, one at a time
    as _walk_to reaches them, in the order of enumerate_overpartitions: each
    partition's text is built once along the walk, and each mask's string
    from its rest's (_mark).  The parameters are checked at the call, before
    the first string."""
    check_params(k, n=n)
    return (
        string for _, masks, text, ends in _walk_to(n, k)
        for string in _mark(text, ends, masks).values()
    )


def _walk_to(n: int, k: int) -> Iterator[tuple]:
    """(groups, masks, text, ends) of every partition of n, in
    lex-decreasing order: groups is ((value, multiplicity), ...) with values
    strictly decreasing, masks its D_k-admissible overline masks, ascending,
    text the partition's string and ends the end offset of each group's
    "v+v+...+v" in it.

    One depth-first walk headed for weight n: a child adds a new smallest
    value v with multiplicity c to its parent and takes its masks from the
    parent's through the one-group step, so the rule is applied once per
    group.  A child's text is its parent's, '+', and the new group's.  The
    value 1 is taken only as the whole remainder; a node whose smallest
    value is at least 2 can always be finished with 1s, so no node that
    cannot reach n is walked.  Children are pushed v ascending, then c
    ascending, so the largest is walked first.  The callers check k and n.
    """
    step = _overline_step
    # (weight, groups, smallest value so far, masks, text, ends); the
    # root's bound n + 1 lets its children take any value up to n
    stack = [(0, (), n + 1, [0], "", ())]
    pop, push = stack.pop, stack.append  # bound once: this loop runs once per node
    while stack:
        weight, groups, last, masks, text, ends = pop()
        room = n - weight
        if not room:
            yield groups, masks, text, ends
            continue
        head = text + "+" if text else ""
        if last > 1:
            # pushed before the larger values, so walked after them: the 1s
            # come last in lex-decreasing order
            child = groups + ((1, room),)
            t = head + "1+" * (room - 1) + "1"
            push((n, child, 1, step(masks, child, k), t, ends + (len(t),)))
        for v in range(2, min(last - 1, room) + 1):
            child = groups + ((v, 1),)
            digits = str(v)
            t = head + digits
            push((weight + v, child, v, step(masks, child, k), t, ends + (len(t),)))
            # the step never overlines a repeated value, so c >= 2 keeps
            # masks; each further copy appends "+v" to the text
            part = "+" + digits
            for c in range(2, room // v + 1):
                t += part
                push((weight + c * v, groups + ((v, c),), v, masks, t, ends + (len(t),)))


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
    the order of enumerate_overpartitions."""
    check_params(k, n=n)
    return [
        _build(groups, mask)
        for groups, masks, _, _ in _walk_to(n, k)
        for mask in masks
        if mask.bit_count() == m
    ]


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
