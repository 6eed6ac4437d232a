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
formed.  The counters tally those masks directly, and witness lists are
printed from them: `format_overpartition` writes an object's string from
its (groups, mask), and `Overpartition.__str__` delegates to it.  Objects
are built only where a caller asks for them (`admissible_overpartitions`,
`d_witnesses`, which builds only the masks with m overlines).
`is_Dk_admissible` stays the definition that the masks are tested against.

Without a rule on the underlying partition, every node of the prefix walk
`partitions_up_to(N)` is a partition of its own weight, so `count_bounded`
tallies every weight n <= N from that one walk, and every other counter
(`count_Dk_table`, `count_pj`, `count_rj`) reads its table.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import Iterator

from .partitions import check_params, enumerate_partitions, partitions_up_to


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


def _groups(parts: tuple) -> list:
    """[(value, multiplicity), ...] of a partition, values strictly decreasing."""
    return [(v, len(list(g))) for v, g in groupby(parts)]


def format_overpartition(groups: list, mask: int) -> str:
    """The one string form of an overpartition, from its groups
    [(value, multiplicity), ...] and overline mask (bit idx overlines
    groups[idx]): parts largest first, joined by '+', the last occurrence
    of an overlined value v written v~; '0' for the empty overpartition."""
    pieces = []
    for idx, (v, mult) in enumerate(groups):
        pieces += [str(v)] * mult
        if mask >> idx & 1:
            pieces[-1] += "~"
    return "+".join(pieces) if pieces else "0"


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


def admissible_masks(groups: list, k: int) -> list:
    """The D_k-admissible overline masks of one partition, ascending.

    groups is [(value, multiplicity), ...] with values strictly decreasing;
    bit idx overlines groups[idx].  A value b may be overlined only if it
    occurs once and no part lies in b+1..b+k-2, and two overlined values
    differ by at least k.  Together these are is_Dk_admissible's rules: a
    part in b+1..b+k-2 is plain or, overlined, too close to b.
    """
    check_params(k)
    masks = [0]
    for idx, (b, mult) in enumerate(groups):
        if mult > 1 or (idx and groups[idx - 1][0] < b + k - 1):
            continue
        # every mask so far lies below bit idx, so appending keeps the list
        # ascending; its highest set bit is its smallest overlined value
        masks += [
            mask | (1 << idx)
            for mask in masks
            if not mask or groups[mask.bit_length() - 1][0] >= b + k
        ]
    return masks


def admissible_pairs(n: int, k: int, max_part: int | None = None) -> Iterator[tuple]:
    """(groups, mask) of every D_k-admissible overpartition of n (parts <=
    max_part), in the order of enumerate_overpartitions; no object is built."""
    check_params(k)
    return (
        (groups, mask)
        for groups in map(_groups, enumerate_partitions(n, max_part))
        for mask in admissible_masks(groups, k)
    )


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
    0 <= m <= m_max.  The walk partitions_up_to(n_max, max_part=j_max)
    visits every partition of weight <= n_max with parts <= j_max once.  An
    admissible overpartition with largest part L is counted in p[n][j] for
    every j >= L, and in r[n][j] for every j >= max(L, b + k - 1), where b
    is its largest overlined value (in r[n][j] for every j >= L if none is).
    """
    check_params(k, n_max=n_max, j_max=j_max)
    # *_first[n][j][m]: objects of weight n whose smallest counting bound is exactly j
    r_first = [[[0] * (m_max + 1) for _ in range(j_max + 1)] for _ in range(n_max + 1)]
    p_first = [[[0] * (m_max + 1) for _ in range(j_max + 1)] for _ in range(n_max + 1)]
    for parts in partitions_up_to(n_max, max_part=j_max):
        groups = _groups(parts)
        weight = sum(parts)
        largest = parts[0] if parts else 0
        for mask in admissible_masks(groups, k):
            m = mask.bit_count()
            if m > m_max:
                continue
            r_from = largest
            if mask:
                # the lowest set bit overlines the largest overlined value
                top_over = groups[(mask & -mask).bit_length() - 1][0]
                r_from = max(largest, top_over + k - 1)
            p_first[weight][largest][m] += 1
            if r_from <= j_max:
                r_first[weight][r_from][m] += 1
    return [_accumulate(rows) for rows in r_first], [_accumulate(rows) for rows in p_first]


def _accumulate(first: list) -> list:
    """Running sums down the j axis: row j totals rows 0..j of first."""
    out = [first[0]]
    for row in first[1:]:
        out.append([a + b for a, b in zip(out[-1], row)])
    return out


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
