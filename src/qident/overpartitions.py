"""Overpartition enumeration, the D_k admissibility rule, and specializations.

An overpartition is a partition in which the last occurrence of any part
value may be overlined.  It is stored per distinct value as
(value, multiplicity, overlined); because only the last occurrence can
carry the overline, "value v has a non-overlined occurrence" is decidable
locally: multiplicity(v) >= 2, or multiplicity(v) == 1 and v is not
overlined.

The D_k rule is local to each underlying partition, so admissible objects
are listed per partition as bitmasks over its distinct values (bit idx
overlines the idx-th largest value), and only admissible masks are ever
formed.  The rule looks only upward from an overlined value, so a smaller
new value never spoils a mask: a partition's masks are its largest-first
prefix's masks plus those that overline the new value.  `_overline_step`
is that one-group step, the one place the rule is written for masks;
`admissible_masks` folds it over one partition's groups.

`admissible_walk(N, k, max_part)` is one depth-first walk over the
partitions of weight <= N, grouped by distinct value, that carries each
node's masks to its children through the step, so k is checked once per
walk and no partition is regrouped or re-masked.  Without a rule on the
underlying partition every node is a partition of its own weight, so
`count_bounded` tallies every weight n <= N from that one walk, and every
other counter (`count_Dk_table`, `count_pj`, `count_rj`) reads its table.
Witness lists run the same loop headed for weight n alone
(`masks_of_weight`, and `admissible_pairs` over it): the value 1 is taken
only as the whole remainder, so no node that cannot reach n is walked, and
only the weight-n nodes are yielded.  They are printed per partition:
`format_overpartitions(groups, masks)` builds each group's string once and
marks the overlined groups of each mask; `format_overpartition` (one mask)
and `Overpartition.__str__` delegate to it, so there is one string rule.
Objects are built only where a caller asks for them
(`admissible_overpartitions`, `d_witnesses`, which builds only the masks
with m overlines).
`is_Dk_admissible` stays the definition that the masks are tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, groupby
from math import isqrt
from typing import Iterator

from .partitions import check_params, enumerate_partitions


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
        groups = [(v, mult) for v, mult, _ in self.entries]
        mask = sum(1 << idx for idx, (_, _, over) in enumerate(self.entries) if over)
        return format_overpartition(groups, mask)


def _groups(parts: tuple) -> tuple:
    """((value, multiplicity), ...) of a partition, values strictly decreasing."""
    return tuple((v, len(list(g))) for v, g in groupby(parts))


def format_overpartitions(groups: list, masks: list) -> list:
    """The one string form of overpartitions, one per mask, from their
    shared groups [(value, multiplicity), ...] and overline masks (bit idx
    overlines groups[idx]): parts largest first, joined by '+', the last
    occurrence of an overlined value v written v~; '0' for the empty
    overpartition.  Each group's plain string is built once for all masks,
    and a mask only marks its overlined groups."""
    plain = ["+".join([str(v)] * mult) for v, mult in groups]
    out = []
    for mask in masks:
        pieces = plain.copy()
        while mask:
            idx = mask.bit_length() - 1
            pieces[idx] += "~"
            mask ^= 1 << idx
        out.append("+".join(pieces) or "0")
    return out


def format_overpartition(groups: list, mask: int) -> str:
    """The string of one overpartition: format_overpartitions on one mask."""
    return format_overpartitions(groups, [mask])[0]


def _build(groups: list, mask: int) -> Overpartition:
    return Overpartition(
        tuple((v, mult, bool((mask >> idx) & 1)) for idx, (v, mult) in enumerate(groups))
    )


def enumerate_overpartitions(n: int, max_part: int | None = None) -> Iterator[Overpartition]:
    """Yield every overpartition of n (parts <= max_part) exactly once.

    Deterministic order: underlying partitions in lex-decreasing order,
    then overline subsets by increasing bitmask over the distinct values.
    """
    for parts in enumerate_partitions(n, max_part):
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


def admissible_masks(groups: list, k: int) -> list:
    """The D_k-admissible overline masks of one partition, ascending: the
    one-group step folded over its groups [(value, multiplicity), ...]."""
    check_params(k)
    masks = [0]
    for idx in range(len(groups)):
        masks = _overline_step(masks, groups[: idx + 1], k)
    return masks


def admissible_walk(
    n_max: int, k: int, max_part: int | None = None, *, _exact: bool = False
) -> Iterator[tuple]:
    """(weight, groups, masks) for every partition of weight <= n_max with
    parts <= max_part, in depth-first pre-order: groups is ((value,
    multiplicity), ...) with values strictly decreasing, and masks its
    D_k-admissible overline masks, ascending, as admissible_masks gives them.

    A child adds a new smallest value v with multiplicity c to its parent
    and takes its masks from the parent's through the one-group step, so
    the rule is applied once per group, not once per partition, and k is
    checked once per walk.  Children are pushed v ascending, then c
    ascending, so the largest is walked first and the partitions of any one
    weight come out in lex-decreasing order.

    With _exact, the walk heads only for weight n_max (masks_of_weight): it
    yields only the nodes of that weight, and takes the value 1 only as the
    whole remainder (1, n_max - weight).  A node whose smallest value is at
    least 2 can always be finished with 1s, so this prunes exactly the
    nodes that cannot reach n_max, and the weight-n_max nodes keep their
    order.
    """
    check_params(k, n_max=n_max)
    cap = n_max if max_part is None else min(max_part, n_max)
    step = _overline_step
    # a node is yielded when its remaining weight is at most floor, and
    # values below low are not walked one multiplicity at a time
    floor, low = (0, 2) if _exact else (n_max, 1)
    # (weight, groups, smallest value so far, masks); the root's bound
    # cap + 1 lets its children take any value up to cap
    stack = [(0, (), cap + 1, [0])]
    pop, push = stack.pop, stack.append  # bound once: this loop runs once per node
    while stack:
        weight, groups, last, masks = pop()
        room = n_max - weight
        if room <= floor:
            yield weight, groups, masks
        if _exact and room and last > 1:
            # pushed before the larger values, so walked after them: the 1s
            # come last in lex-decreasing order
            child = groups + ((1, room),)
            push((n_max, child, 1, step(masks, child, k)))
        for v in range(low, min(last - 1, room) + 1):
            child = groups + ((v, 1),)
            push((weight + v, child, v, step(masks, child, k)))
            # the step never overlines a repeated value, so c >= 2 keeps masks
            for c in range(2, room // v + 1):
                push((weight + c * v, groups + ((v, c),), v, masks))


def masks_of_weight(n: int, k: int, max_part: int | None = None) -> Iterator[tuple]:
    """(groups, masks) of every partition of n with parts <= max_part, in
    lex-decreasing order, with its D_k-admissible overline masks ascending:
    the walk of admissible_walk headed for weight n alone."""
    check_params(k)
    return ((groups, masks) for _, groups, masks in admissible_walk(n, k, max_part, _exact=True))


def admissible_pairs(n: int, k: int, max_part: int | None = None) -> Iterator[tuple]:
    """(groups, mask) of every D_k-admissible overpartition of n (parts <=
    max_part), in the order of enumerate_overpartitions; no object is built."""
    return ((groups, mask) for groups, masks in masks_of_weight(n, k, max_part) for mask in masks)


def admissible_overpartitions(
    n: int, k: int, max_part: int | None = None
) -> Iterator[Overpartition]:
    """The D_k-admissible overpartitions of n (parts <= max_part), in the
    order of enumerate_overpartitions."""
    return (_build(groups, mask) for groups, mask in admissible_pairs(n, k, max_part))


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
    """Admissible overpartitions of n with exactly m overlined values."""
    return [
        _build(groups, mask) for groups, mask in admissible_pairs(n, k) if mask.bit_count() == m
    ]


def count_Dk_table(n_max: int, k: int, m_max: int | None = None) -> list:
    """table[m][n] = D_k(m, n) for m <= m_max (default n_max), n <= n_max."""
    if m_max is None:
        m_max = n_max
    # with j = n no part is out of bound, so p[n][n] counts all of D_k at weight n
    p = count_bounded(n_max, n_max, k, m_max)[1]
    return [[p[n][n][m] for n in range(n_max + 1)] for m in range(m_max + 1)]


def count_bounded(n_max: int, j_max: int, k: int, m_max: int) -> tuple:
    """The bounded counts of every weight n <= n_max and bound j <= j_max,
    from one walk.

    Returns (r, p) with r[n][j][m] = count_rj(m, n, j, k) and
    p[n][j][m] = count_pj(m, n, j, k) for 0 <= n <= n_max, 0 <= j <= j_max,
    0 <= m <= m_max.  admissible_walk(n_max, k, max_part=j_max) visits every
    partition of weight <= n_max with parts <= j_max once, with its
    admissible masks.  An admissible overpartition with largest part L is
    counted in p[n][j] for every j >= L, and in r[n][j] for every
    j >= max(L, b + k - 1), where b is its largest overlined value (every
    j >= L if none is).  A value b below L is overlined only with a part of
    at least b + k - 1 above it, so that bound is L + k - 1 when L itself is
    overlined (mask bit 0) and L otherwise: the walk tallies each mask by
    (n, L, m) and that one bit.
    """
    check_params(k, n_max=n_max, j_max=j_max)
    # a mask's popcount is at most the number of distinct parts d, and
    # d(d+1)/2 <= n_max, so rows of this width take every m; they are cut
    # to m_max + 1 below
    width = max(m_max, (isqrt(8 * n_max + 1) - 1) // 2) + 1
    # by_top[t][n][L][m]: objects of weight n, largest part L and m
    # overlines, whose part L is overlined (t = 1) or not (t = 0)
    by_top = [
        [[[0] * width for _ in range(j_max + 1)] for _ in range(n_max + 1)] for _ in range(2)
    ]
    for weight, groups, masks in admissible_walk(n_max, k, max_part=j_max):
        largest = groups[0][0] if groups else 0
        rows = (by_top[0][weight][largest], by_top[1][weight][largest])
        for mask in masks:
            rows[mask & 1][mask.bit_count()] += 1
    plain, top = by_top
    zeros = [0] * width
    # the rows summed down the j axis count the objects of weight n whose
    # smallest counting bound is exactly j
    p = [_accumulate(_add(plain[n][j], top[n][j], m_max) for j in range(j_max + 1))
         for n in range(n_max + 1)]
    r = [_accumulate(_add(plain[n][j], top[n][j - k + 1] if j >= k - 1 else zeros, m_max)
                     for j in range(j_max + 1)) for n in range(n_max + 1)]
    return r, p


def _add(row: list, other: list, m_max: int) -> list:
    """Entries 0..m_max of row + other."""
    return [a + b for a, b in zip(row[: m_max + 1], other)]


def _accumulate(first) -> list:
    """Running sums down the j axis: row j totals rows 0..j of first."""
    return list(accumulate(first, lambda total, row: [a + b for a, b in zip(total, row)]))


def count_pj(m: int, n: int, j: int, k: int) -> int:
    """Admissible overpartitions of n with m overlines and all parts <= j."""
    check_params(k, j=j)
    return count_bounded(n, j, k, m)[1][n][j][m] if m >= 0 else 0


def count_rj(m: int, n: int, j: int, k: int) -> int:
    """As count_pj, but additionally no overlined value in {j-k+2, ..., j}."""
    check_params(k, j=j)
    return count_bounded(n, j, k, m)[0][n][j][m] if m >= 0 else 0


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
