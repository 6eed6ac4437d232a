"""Partition enumeration, the transfer-matrix sweep, and the B/C/Schur counters.

A partition is a tuple of weakly decreasing positive integers.  Lists come
out lexicographically decreasing, largest part first, so they diff cleanly.

Every sum-side rule is local, so each side is counted by `sweep`, one pass
over the part values v = 1..N whose state is a capped distance to the last
relevant part: Schur's gaps and the corollary's difference conditions here,
the D_k rule in overpartitions.  A side is a `moves(v, state)` table, not a
loop of its own.  The B side is the knapsack over its allowed parts, and
both run on `_add_part`; Schur's product side expands its product.

Enumeration is one walk of the prefix tree, `partitions_up_to`, that
extends a prefix only while the side's rule holds for it.  Each rule is
prefix-closed, so pruning yields exactly the partitions it accepts, and
every node is a counted partition of its own weight: one walk to N tallies
every n <= N (`walk_C_table`, `walk_schur_gap_table`), the route the
verifiers check the sweep against.  A witness list runs the same loop to
weight n and yields only the nodes of weight n (`enumerate_partitions`).
Each C phrasing's prefix test reads only the new, smallest part, by rules
of its own (thm12 and thm13 are a second route at i = k-1 and i = 0); the
`satisfies_*` predicates are the definitions the lists are tested against.
"""

from __future__ import annotations

from collections import Counter, deque
from itertools import accumulate
from operator import add
from typing import Callable, Iterator, Sequence

from .series import BivariateSeries, Monomial

Partition = tuple  # weakly decreasing tuple of positive ints


def check_params(k: int | None = None, i: int | None = None, **ranges: int) -> None:
    """The one bad-input rule: raise ValueError naming the first bad value,
    k < 2, then i outside [0, k-1], then a negative order or range (named by
    its keyword).  Verifiers turn the message into an `aborted` note."""
    if k is not None and k < 2:
        raise ValueError("k must be at least 2")
    if i is not None and not 0 <= i < k:
        raise ValueError(f"i must lie in [0, {k - 1}]")
    for name, value in ranges.items():
        if value < 0:
            raise ValueError(f"{name} must be non-negative")


def partitions_up_to(
    n_max: int,
    max_part: int | None = None,
    fits: Callable[[tuple], bool] | None = None,
    *,
    _exact: bool = False,
) -> Iterator[Partition]:
    """Yield every partition of weight <= n_max (parts <= max_part) whose
    every prefix fits, in depth-first pre-order.

    A prefix is extended by a part only if fits(prefix + (part,)) holds; the
    empty partition is yielded without a test.  Children follow their
    parent, largest new part first, so the partitions of any one weight
    come out in lex-decreasing order.  With _exact, only the nodes of weight
    n_max are yielded (enumerate_partitions); the walk is the same.
    """
    check_params(n_max=n_max)
    cap = n_max if max_part is None else min(max_part, n_max)
    # a node is yielded when its remaining weight is at most floor: 0 for
    # the weight-n_max nodes alone, n_max for every node
    floor = 0 if _exact else n_max
    # (prefix, remaining weight, largest part allowed next); children are
    # pushed smallest part first so the largest is walked first
    stack = [((), n_max, cap)]
    pop, push = stack.pop, stack.append  # bound once: this loop runs once per node
    while stack:
        prefix, remaining, limit = pop()
        if remaining <= floor:
            yield prefix
        for part in range(1, (limit if limit < remaining else remaining) + 1):
            extended = prefix + (part,)
            if fits is None or fits(extended):
                push((extended, remaining - part, part))


def enumerate_partitions(
    n: int, max_part: int | None = None, fits: Callable[[tuple], bool] | None = None
) -> Iterator[Partition]:
    """Yield every partition of n (parts <= max_part) in lex-decreasing order.

    The walk of partitions_up_to(n, max_part, fits), yielding only the
    nodes whose remaining weight is 0: with fits given, only partitions
    whose every prefix fits are yielded.  For a prefix-closed rule that is
    exactly the partitions satisfying it, in the same order as filtering.
    """
    return partitions_up_to(n, max_part, fits, _exact=True)


def _tally(n_max: int, fits: Callable[[tuple], bool]) -> list:
    """counts[n] = number of partitions of n whose every prefix fits, n <= n_max."""
    counts = [0] * (n_max + 1)
    for parts in partitions_up_to(n_max, fits=fits):
        counts[sum(parts)] += 1
    return counts


def _add_part(ways: list, p: int) -> None:
    """Multiply ways by 1/(1 - q^p) in place: the running sum
    ways[s] += ways[s - p], s ascending, as a prefix sum down each residue
    class mod p for a small part (p * p <= the last index), and a block of
    p sums at a time for a larger one."""
    n_max = len(ways) - 1
    if p * p <= n_max:
        for r in range(p):
            ways[r::p] = accumulate(ways[r::p])
    else:
        for s in range(p, n_max + 1, p):
            ways[s : s + p] = map(add, ways[s : s + p], ways[s - p : s])


# The moves a sweep may take at a part value v: leave v out, any number of
# plain copies (1/(1 - q^v)), at least one (q^v/(1 - q^v)), exactly one
# (q^v), or one overlined copy (a q^v).
SKIP, ANY, SOME, ONE, OVER = range(5)


def sweep(
    n_max: int, start, moves: Callable, v_max: int | None = None, a_order: int = 0
) -> Iterator[dict]:
    """The transfer-matrix sweep over the part values v = 1..v_max (default
    n_max): yields {state: rows} before the first value and after each one.

    rows[m][n] counts the objects of weight n <= n_max with m overlined
    parts (m <= a_order), built from the values so far, that end in that
    state; the sweep starts from the empty object in state start.
    moves(v, state) lists the (kind, target state) moves at v, and a state
    reached by several moves sums them.  No yielded row changes later.
    """
    zero = [0] * (n_max + 1)
    states = {start: [[1] + zero[1:]] + [zero] * a_order}
    yield states
    for v in range(1, (n_max if v_max is None else v_max) + 1):
        reached = {}
        for state, rows in states.items():
            for kind, target in moves(v, state):
                moved = _moved(kind, rows, v, zero)
                old = reached.get(target)
                reached[target] = moved if old is None else [
                    list(map(add, a, b)) for a, b in zip(old, moved)
                ]
        states = reached
        yield states


def _moved(kind: int, rows: list, v: int, zero: list) -> list:
    """rows times the generating function of one kind of move at v, as new
    rows; a skip returns rows itself."""
    if kind == SKIP:
        return rows
    if kind == OVER:
        rows = [zero] + rows[:-1]
    # a shift by q^v, or for ANY a copy, so _add_part changes no shared row
    rows = [row.copy() for row in rows] if kind == ANY else [zero[:v] + row[:-v] for row in rows]
    if kind == ANY or kind == SOME:
        for row in rows:
            _add_part(row, v)
    return rows


def final_states(snapshots: Iterator[dict]) -> dict:
    """The states a sweep yields last; no earlier snapshot is kept."""
    return deque(snapshots, maxlen=1)[0]


def state_total(states: dict, m: int = 0) -> list:
    """a-row m of a sweep's states, summed over every state."""
    return [sum(column) for column in zip(*(rows[m] for rows in states.values()))]


def _count_by_dp(n_max: int, allowed_parts: Sequence[int]) -> list:
    """ways[s] = number of multisets from allowed_parts summing to s.

    An even part only reaches even sums, so the even parts run first, as the
    parts p // 2 on the even-index slice ways[::2] at half the length; the
    odd parts then run on the full list.  Each part is one _add_part.
    """
    ways = [1] + [0] * n_max
    half = ways[::2]
    for p in allowed_parts:
        if p % 2 == 0:
            _add_part(half, p // 2)
    ways[::2] = half
    for p in allowed_parts:
        if p % 2:
            _add_part(ways, p)
    return ways


# ---------------------------------------------------------------------------
# B side: congruence conditions modulo 4k
# ---------------------------------------------------------------------------


def b_part_allowed(p: int, k: int, i: int) -> bool:
    """Whether part p may occur on the product side at parameters (i, k).

    Allowed parts are even but not congruent to 4i+2 mod 4k, or odd and
    congruent to 2i+1 or 2k+2i+1 mod 4k.
    """
    r = p % (4 * k)
    if p % 2 == 0:
        return r != 4 * i + 2
    return r in (2 * i + 1, 2 * k + 2 * i + 1)


def count_B_table(n_max: int, k: int, i: int) -> list:
    """B_{i,k}(0..n_max) by dynamic programming over the allowed parts."""
    check_params(k, i, n_max=n_max)
    allowed = [p for p in range(1, n_max + 1) if b_part_allowed(p, k, i)]
    return _count_by_dp(n_max, allowed)


def count_B(n: int, k: int, i: int) -> int:
    return count_B_table(n, k, i)[n]


def b_witnesses(n: int, k: int, i: int) -> list:
    """All partitions counted by B_{i,k}(n), generated from allowed parts only."""
    check_params(k, i)
    return list(enumerate_partitions(n, fits=lambda prefix: b_part_allowed(prefix[-1], k, i)))


# ---------------------------------------------------------------------------
# C side: difference conditions
# ---------------------------------------------------------------------------

def satisfies_corollary(parts: Partition, k: int, i: int) -> bool:
    """The general difference condition at parameters (i, k).

    For every odd part v = 2j+1 present: no even part lies in
    {2j-2i+2, 2j-2i+4, ..., 2j+2k-2i-2}; no other odd part lies in
    {2j+1, 2j+3, ..., 2j+2k-1} (so odd parts never repeat); and the
    smallest odd part is at least 2i+1.
    """
    cnt = Counter(parts)
    for v in cnt:
        if v % 2 == 0:
            continue
        if cnt[v] > 1:
            return False
        if v < 2 * i + 1:
            return False
        j2 = v - 1  # 2j
        for w in range(j2 - 2 * i + 2, j2 + 2 * k - 2 * i - 1, 2):
            if w >= 2 and w in cnt:
                return False
        for w in range(v + 2, v + 2 * k, 2):
            if w in cnt:
                return False
    return True


def satisfies_thm12(parts: Partition, k: int) -> bool:
    """The i = k-1 phrasing: a downward window below each odd part.

    If an odd part 2j+1 is present, no other part equals any of
    2j+1, 2j, ..., 2j-2k+3, and the smallest part is not in {1, 3, ..., 2k-3}.
    """
    cnt = Counter(parts)
    if parts:
        smallest = parts[-1]
        if smallest % 2 == 1 and smallest <= 2 * k - 3:
            return False
    for v in cnt:
        if v % 2 == 0:
            continue
        if cnt[v] > 1:
            return False
        for w in range(max(1, v - 2 * k + 2), v):
            if w in cnt:
                return False
    return True


def satisfies_thm13(parts: Partition, k: int) -> bool:
    """The i = 0 phrasing: an upward window above each odd part.

    If an odd part 2j+1 is present, no other part equals any of
    2j+1, 2j+2, ..., 2j+2k-1 (the window of 2k-1 consecutive values
    starting at the odd part itself).
    """
    cnt = Counter(parts)
    for v in cnt:
        if v % 2 == 0:
            continue
        if cnt[v] > 1:
            return False
        for w in range(v + 1, v + 2 * k - 1):
            if w in cnt:
                return False
    return True


def _corollary_fits(k: int, i: int) -> Callable[[tuple], bool]:
    """The corollary rule as a prefix test for `partitions_up_to`.

    The walk extends only prefixes that already satisfy the rule, so only
    the new, smallest part p can add a violation, and only against the
    parts just above it.  An odd p needs p >= 2i+1, no part in
    p..p+2k-1 that is odd (a repeat, or an odd part in p's window), and no
    even part <= p+2k-2i-3 (p's even window).  An even p must not lie in
    the even window of an odd part v <= p+2i-1, i.e. p <= v+2k-2i-3 is
    forbidden there.  satisfies_corollary is the whole-partition rule that
    the resulting lists are tested against.
    """
    low_odd = 2 * i + 1
    odd_reach = 2 * k - 1  # an odd p scans the parts <= p + odd_reach
    even_reach = 2 * k - 2 * i - 3  # an odd v's even window ends at v + even_reach
    back_reach = 2 * i - 1  # an even p scans the parts <= p + back_reach

    def fits(parts: tuple) -> bool:
        p = parts[-1]
        if p % 2:
            if p < low_odd:
                return False
            for v in reversed(parts[:-1]):
                if v > p + odd_reach:
                    break
                if v % 2 or v <= p + even_reach:
                    return False
        else:
            for v in reversed(parts[:-1]):
                if v > p + back_reach:
                    break
                if v % 2 and p <= v + even_reach:
                    return False
        return True

    return fits


def _thm12_fits(k: int) -> Callable[[tuple], bool]:
    """The thm12 rule as a prefix test of the new, smallest part p: no odd
    p <= 2k-3, and no odd part in p..p+2k-2 (p in its window, or a repeat)."""
    reach = 2 * k - 2

    def fits(parts: tuple) -> bool:
        p = parts[-1]
        if p % 2 and p < reach:
            return False
        for v in reversed(parts[:-1]):
            if v > p + reach:
                break
            if v % 2:
                return False
        return True

    return fits


def _thm13_fits(k: int) -> Callable[[tuple], bool]:
    """The thm13 rule as a prefix test: an even new part p always fits, an
    odd one only first or below a part > p+2k-2, the top of its window."""
    reach = 2 * k - 2
    return lambda parts: parts[-1] % 2 == 0 or len(parts) == 1 or parts[-2] > parts[-1] + reach


def _c_predicate(k: int, i: int, phrasing: str):
    """The prefix test of one phrasing, each reading only the new part."""
    check_params(k, i)
    if phrasing == "corollary":
        return _corollary_fits(k, i)
    if phrasing == "thm12":
        if i != k - 1:
            raise ValueError("phrasing thm12 requires i = k-1")
        return _thm12_fits(k)
    if phrasing == "thm13":
        if i != 0:
            raise ValueError("phrasing thm13 requires i = 0")
        return _thm13_fits(k)
    raise ValueError(f"unknown phrasing {phrasing!r}")


def c_witnesses(n: int, k: int, i: int, phrasing: str = "corollary") -> list:
    """All partitions counted by C_{i,k}(n) under the selected phrasing."""
    # each phrasing's test reads only the new part (every rule is prefix-closed;
    # thm12's smallest-part clause too: no part lies below an odd part <= 2k-3)
    return list(enumerate_partitions(n, fits=_c_predicate(k, i, phrasing)))


def _corollary_moves(k: int, i: int) -> Callable:
    """The corollary rule as sweep moves.  Before value w the state is
    (o, e): w minus the last odd part, capped at 2k, and w minus the last
    even part, capped at 2i+1 (each at its cap when there is none).  An
    even w (one copy or more) needs o > 2k-2i-3 and leaves e = 1; an odd w
    (one copy) needs w >= 2i+1, o = 2k and e > 2i-1, and leaves o = 1."""
    o_cap, e_cap = 2 * k, 2 * i + 1

    def moves(w: int, state: tuple) -> list:
        o, e = state
        o1, e1 = min(o + 1, o_cap), min(e + 1, e_cap)
        out = [(SKIP, (o1, e1))]
        if w % 2 == 0:
            if o > 2 * k - 2 * i - 3:
                out.append((SOME, (o1, 1)))
        elif w >= e_cap and o == o_cap and e > 2 * i - 1:
            out.append((ONE, (1, e1)))
        return out

    return moves


def count_C_table(n_max: int, k: int, i: int, phrasing: str = "corollary") -> list:
    """C_{i,k}(0..n_max) under the selected phrasing: the corollary's from
    the sweep, thm12's and thm13's from one walk each (walk_C_table)."""
    if phrasing != "corollary":
        return walk_C_table(n_max, k, i, phrasing)
    check_params(k, i, n_max=n_max)
    return state_total(final_states(sweep(n_max, (2 * k, 2 * i + 1), _corollary_moves(k, i))))


def walk_C_table(n_max: int, k: int, i: int, phrasing: str = "corollary") -> list:
    """C_{i,k}(0..n_max) under the selected phrasing, tallied from one walk
    of its prefix test: the enumeration route, the witness lists' own."""
    return _tally(n_max, _c_predicate(k, i, phrasing))


def count_C(n: int, k: int, i: int, phrasing: str = "corollary") -> int:
    return count_C_table(n, k, i, phrasing)[n]


# ---------------------------------------------------------------------------
# Schur's identity
# ---------------------------------------------------------------------------


def count_schur_product_table(n_max: int) -> list:
    """Partitions into parts congruent to +-1 mod 6, for n = 0..n_max: the
    coefficients of the product 1/((q; q^6)_inf (q^5; q^6)_inf), one
    binomial per factor of both residue classes, then inverted."""
    check_params(n_max=n_max)
    denominator = BivariateSeries.one(0, n_max)
    for e in range(1, n_max + 1):
        if e % 6 in (1, 5):
            denominator = denominator.mul_binomial(Monomial(0, e, -1))
    return list(denominator.to_qseries().invert_unit().coeffs)


def satisfies_schur_gap(parts: Partition) -> bool:
    """Adjacent parts differ by >= 3, and by >= 6 when both are multiples of 3."""
    for a, b in zip(parts, parts[1:]):
        d = a - b
        if d < 3:
            return False
        if d < 6 and a % 3 == 0 and b % 3 == 0:
            return False
    return True


def _schur_gap_fits(prefix: tuple) -> bool:
    return satisfies_schur_gap(prefix[-2:])


def _schur_moves(v: int, state: tuple) -> list:
    """Schur's gap rule as sweep moves.  Before value v the state is the
    gap from v to the last part, capped at 6, and whether that part is a
    multiple of 3; v (one copy) needs a gap of 3, or of 6 when v and the
    last part are both multiples of 3."""
    gap, three = state
    out = [(SKIP, (min(gap + 1, 6), three))]
    if gap >= (6 if three and v % 3 == 0 else 3):
        out.append((ONE, (1, v % 3 == 0)))
    return out


def count_schur_gap_table(n_max: int) -> list:
    """Gap partitions of Schur's identity for n = 0..n_max, from the sweep."""
    check_params(n_max=n_max)
    return state_total(final_states(sweep(n_max, (6, False), _schur_moves)))


def walk_schur_gap_table(n_max: int) -> list:
    """The same counts tallied from one walk: the enumeration route."""
    return _tally(n_max, _schur_gap_fits)


def schur_gap_witnesses(n: int) -> list:
    return list(enumerate_partitions(n, fits=_schur_gap_fits))


def format_partition(parts: Partition) -> str:
    return "+".join(str(p) for p in parts) if parts else "0"
