"""Partition enumeration, the transfer-matrix sweep, and the B/C/Schur counters.

A partition is a tuple of weakly decreasing positive integers.  Lists come
out lexicographically decreasing, largest part first, so they diff cleanly.

Every sum-side rule is local, so a side is counted by `sweep`, one pass
over the part values v = 1..N whose state is a capped distance to the last
relevant part: Schur's gaps here, the D_k rule in overpartitions.  A side
is a `moves(v, state)` table, not a loop of its own, with a hook for the
weight of a copy of v (v by default).  The sweep holds each state's a-rows
packed (packed.py) and divides by 1 - q^p in doubling steps of its own.
The corollary's C side has no table: `count_C_table` runs the D_k moves
specialized, (a, q) -> (q^{2i-1}, q^2), on one a-row.  The B side
is the knapsack over its allowed parts, run largest first: every part p with
p * p > N (`packed_parts`) on one packed integer (`_packed_knapsack`),
whose slots widen by stage, parts above N/2, N/4, ..., each stage as wide
as its own partial counts need (`knapsack_stages`), then the small ones
on the list through `_add_part`, a running sum by residue class mod p.
Schur's product side is the same knapsack, over the parts congruent to
+-1 mod 6; Schur's sweep and walk share neither kernel with it, only the
packed format.

Enumeration is one walk of the prefix tree, `partitions_up_to`, on a
side's rule, which lists once per walk the parts each state may add (the
state: the smallest part, and for the C phrasings the smallest odd part,
capped).  Every node is a counted partition of its own weight, and what
lies below it depends only on its remaining weight and state, so `_tally`
counts the tree with the nodes merged by that pair: one pass to N counts
every n <= N (`walk_C_table`, `walk_schur_gap_table`), the route the
verifiers check the sweep against.  A witness list walks the tree node by
node and yields only the nodes of weight n (`enumerate_partitions`).  A
node's label is its parent's plus the new part's piece, a tuple for the
objects or text for `b_strings`/`c_strings`, so each string `qident list`
prints is built once, along the walk.  The rules share no helper with the
sweep's moves or each other (thm12 and thm13 are a second route at
i = k-1 and i = 0); the `satisfies_*` predicates are their definitions.
"""

from __future__ import annotations

from collections import Counter, deque
from itertools import accumulate, chain
from math import inf
from operator import add
from typing import Callable, Iterator, Sequence

from . import packed

Partition = tuple  # weakly decreasing tuple of positive ints


def check_params(k: int | None = None, i: int | None = None, **ranges: int) -> None:
    """The one bad-input rule: raise ValueError naming the first bad value,
    k < 2, then i outside [0, k-1], then a negative order or range (named by
    its keyword; None passes).  Verifiers turn the message into an `aborted` note."""
    if k is not None and k < 2:
        raise ValueError("k must be at least 2")
    if i is not None and not 0 <= i < k:
        raise ValueError(f"i must lie in [0, {k - 1}]")
    for name, value in ranges.items():
        if value is not None and value < 0:
            raise ValueError(f"{name} must be non-negative")


def partitions_up_to(
    n_max: int, rule: tuple | None = None, *, _exact: bool = False, _text: bool = False
) -> Iterator[Partition | str]:
    """Yield every partition of weight <= n_max that rule admits, in
    depth-first pre-order.

    A rule is (start, nexts): a prefix's state is all the rule needs to
    know of it, the empty prefix's being start, and nexts(state, n_max)
    lists the (part, child state) pairs it may add, parts <= n_max
    ascending (n_max bounds the root alone, whose smallest part is
    unbounded).  Without a rule any part up to the last may follow.  Each
    state is listed once, in a table that lives as long as the walk.
    Children follow their parent, largest first, so the partitions of any
    one weight come out in lex-decreasing order.  With _exact, only the
    nodes of weight n_max are yielded (enumerate_partitions); the walk is
    the same.

    A node's label is its parent's label plus the new part's piece, which
    the table holds once per state: (p,) for a tuple, or with _text "+p",
    so each string is built along the walk and yielded as label[1:], "0"
    for the empty partition (format_partition's text).
    """
    check_params(n_max=n_max)
    start, nexts = _ANY_PART if rule is None else rule
    # a node is yielded when its remaining weight is at most floor: 0 for
    # the weight-n_max nodes alone, n_max for every node
    floor = 0 if _exact else n_max
    piece = (lambda p: f"+{p}") if _text else (lambda p: (p,))
    # (label, remaining weight, state); children are pushed smallest part
    # first so the largest is walked first
    stack, table = [("" if _text else (), n_max, start)], {}
    pop, push, listed = stack.pop, stack.append, table.get  # bound once: once per node
    while stack:
        label, remaining, state = pop()
        if remaining <= floor:
            yield (label[1:] or "0") if _text else label
        children = listed(state)
        if children is None:
            children = table[state] = [(p, piece(p), child) for p, child in nexts(state, n_max)]
        for part, tail, child in children:
            if part > remaining:
                break
            push((label + tail, remaining - part, child))


# no rule: the state is the smallest part s, and every part <= s may follow
_ANY_PART = (inf, lambda s, top: [(p, p) for p in range(1, min(s, top) + 1)])


def enumerate_partitions(n: int, rule: tuple | None = None) -> Iterator[Partition]:
    """Yield every partition of n that rule admits, in lex-decreasing order:
    the nodes of partitions_up_to(n, rule) whose remaining weight is 0."""
    return partitions_up_to(n, rule, _exact=True)


def _tally(n_max: int, rule: tuple) -> list:
    """counts[n] = number of partitions of n that rule admits, n <= n_max:
    the walk of partitions_up_to with its nodes merged by (remaining weight,
    state), since what lies below a node depends on nothing else.

    levels[r] maps each state to the number of prefixes of remaining weight
    r that reach it.  r runs from n_max down, each level popped off the end
    in its turn: its total is the count of weight n_max - r, and each
    state's count is added into level r - part of each child its table
    lists, parts <= r.  Each state is listed once, as in the walk."""
    check_params(n_max=n_max)
    start, nexts = rule
    levels = [{} for _ in range(n_max)] + [{start: 1}]
    counts, table = [], {}
    while levels:
        r, level = len(levels) - 1, levels.pop()
        counts.append(sum(level.values()))
        for state, ways in level.items():
            children = table.get(state)
            if children is None:
                children = table[state] = nexts(state, n_max)
            for part, child in children:
                if part > r:
                    break
                below = levels[r - part]
                below[child] = below.get(child, 0) + ways
    return counts


def _add_part(ways: list, p: int) -> None:
    """Multiply ways by 1/(1 - q^p) in place: the running sum
    ways[s] += ways[s - p], s ascending, as a prefix sum down each residue
    class mod p."""
    for r in range(p):
        ways[r::p] = accumulate(ways[r::p])


# The moves a sweep may take at a part value v: leave v out, any number of
# plain copies (1/(1 - q^v)), exactly one (q^v), or one overlined copy
# (a q^v), at the default part sizes.
SKIP, ANY, ONE, OVER = range(4)


def _same_size(v: int) -> tuple:
    """The sweep's default part sizes: every copy of value v weighs v."""
    return v, v


def sweep(
    n_max: int, start, moves: Callable, width: int, v_max: int | None = None,
    a_order: int = 0, name: str = "the sweep", sizes: Callable = _same_size,
) -> Iterator[dict]:
    """The transfer-matrix sweep over the part values v = 1..v_max (default
    n_max): yields {state: PackedTerm} before the first value and after
    each one.

    Row m of a state's term packs, in `width`-bit slots (packed.py), the
    counts of the objects of weight n <= n_max with m overlined parts
    (m <= a_order), built from the values so far, that end in that state;
    the sweep starts from the empty object in state start.  moves(v, state)
    lists the (kind, target state) moves at v, and sizes(v) the weights
    (p, o) of a plain copy of v and of a single one (ONE or OVER), v and v
    by default.  At each v the rows of each (kind, target)'s sources are
    summed first, and the kind is applied once: OVER moves them up one
    a-row, OVER and ONE shift them by q^o, a right shift by width * o
    bits, and ANY divides by 1 - q^p in doubling steps
    row += row >> width * s for s in _doublings(p, n_max), the partial
    products of (1 + q^p)(1 + q^{2p})...
    A state reached by several moves sums them.  No yielded term changes.

    Every value formed at v is at most a count of its target after v (a
    sum of its sources, and each doubling step a partial sum of the
    quotient), so while `width` bounds the counts no slot reaches its
    guard bits.  They are read once per v, after every target's
    arithmetic; a slot holding one raises SlotOverflowError naming the
    sweep, the value and the width.
    """
    states = {start: packed.PackedTerm((1 << width * n_max,) + (0,) * a_order, width, n_max)}
    yield states
    guard = packed.guard_mask(width, n_max + 1)
    for v in range(1, (n_max if v_max is None else v_max) + 1):
        sources = {}
        for state, term in states.items():
            rows = term.rows
            for move in moves(v, state):
                old = sources.get(move)
                sources[move] = rows if old is None else list(map(add, old, rows))
        plain, single = sizes(v)
        shift, steps, reached = width * single, None, {}
        for (kind, target), rows in sources.items():
            if kind == ANY:
                if steps is None:
                    steps = [width * s for s in _doublings(plain, n_max)]
                divided = []
                for row in rows:
                    if row:
                        for bits in steps:
                            row += row >> bits
                    divided.append(row)
                rows = divided
            elif kind != SKIP:
                if kind == OVER:
                    rows = (0, *rows[:-1])
                rows = [row >> shift for row in rows]
            old = reached.get(target)
            reached[target] = rows if old is None else list(map(add, old, rows))
        states = {}
        for target, rows in reached.items():
            for m, row in enumerate(rows):
                if row & guard:
                    raise packed.SlotOverflowError(
                        f"slot overflow: {name}'s a^{m} row reached the guard bits of its"
                        f" {width}-bit slots at v={v}, n_max={n_max}")
            states[target] = packed.PackedTerm(tuple(rows), width, n_max)
        yield states


def _doublings(p: int, n_max: int) -> list:
    """The sweep's doubling steps for 1/(1 - q^p) to q^{n_max}: s = p, 2p,
    4p, ... <= n_max."""
    return [p << t for t in range((n_max // p).bit_length())]


def final_states(snapshots: Iterator[dict]) -> dict:
    """The states a sweep yields last; no earlier snapshot is kept."""
    return deque(snapshots, maxlen=1)[0]


def state_total(states: dict) -> packed.PackedTerm:
    """Every state's term summed, a-row by a-row, as a new PackedTerm."""
    terms = list(states.values())
    rows = tuple(map(sum, zip(*(term.rows for term in terms))))
    return packed.PackedTerm(rows, terms[0].width, terms[0].q_order)


def _count_by_dp(n_max: int, allowed_parts: Sequence[int]) -> list:
    """ways[s] = number of multisets from allowed_parts summing to s.

    The parts run largest first: the large ones (p * p > n_max) packed on
    one integer (_packed_knapsack), then the small ones as _add_part's
    prefix sums down each residue class mod p on the unpacked list.
    """
    ways = _packed_knapsack(n_max, packed_parts(n_max, allowed_parts))
    for p in sorted([p for p in allowed_parts if p * p <= n_max], reverse=True):
        _add_part(ways, p)
    return ways


def packed_parts(n_max: int, allowed_parts: Sequence[int]) -> tuple:
    """The parts, largest first, that _count_by_dp packs: the large ones
    (p * p > n_max) up to n_max; those above n_max add nothing."""
    return tuple(sorted([p for p in allowed_parts if n_max < p * p and p <= n_max], reverse=True))


def knapsack_stages(n_max: int, parts: Sequence[int]) -> list:
    """(low, width) of each stage of _packed_knapsack over parts, largest
    first: the parts above low that no earlier stage ran run in width-bit
    slots, the last stage's low is 0, and its width is packed.slot_width
    over parts.

    The stages before it are low = n_max // 2, n_max // 4, ..., while
    parts at or below low remain for a later stage, each in
    slot_width(n_max, range(low + 1, n_max + 1)) bits, widening, and taken
    while narrower than the last stage.  Every partial product of a stage,
    and every value formed on the way to it, is at most a coefficient of
    prod 1/(1 - q^p) over low < p <= n_max: its parts are some of those,
    and each factor left out has non-negative coefficients and constant
    term 1.  That bound holds for every part set at that n_max, so the
    width cache is shared by every (k, i).
    """
    final = packed.slot_width(n_max, parts)
    stages, low, width = [], n_max // 2, 0
    while low >= parts[-1]:
        width = max(width, packed.slot_width(n_max, range(low + 1, n_max + 1)))
        if width >= final:
            break
        if stages and stages[-1][1] == width:
            stages.pop()
        stages.append((low, width))
        low //= 2
    return stages + [(0, final)]


def _packed_knapsack(n_max: int, parts: Sequence[int]) -> list:
    """ways of the knapsack over parts, each with p * p > n_max, largest
    first, on one integer in the packed layout: slot s of ways[1:] is at
    bits w (n_max - s), and ways[0] = 1 is kept out until the read.  w
    widens by stage (knapsack_stages): each stage's parts run in its own
    width, bounded by its own partial counts, and the integer is widened
    (packed.widen) before the next stage's parts.

    With rest = ways[1:], 1/(1 - q^p) takes 1 + rest to 1 + (q^p + rest)
    (1 + q^p)(1 + q^{2p})(1 + q^{4p})...: rest gains the slot of q^p, then
    each doubling step rest += q^s rest is a right shift by w s bits, for
    s = p, 2p, 4p, ... while s <= n_max - p.  Every larger part has run, so
    q^p + rest is zero below q^p: the integer is n_max - p + 1 slots long,
    and q^s of it past q^{n_max} when s > n_max - p.  No value passes its
    stage's bound, so nothing carries; the guard bits are read at the end
    of each stage, before it widens, and a trip raises SlotOverflowError
    naming that stage's width.
    """
    if not parts:
        return [1] + [0] * n_max
    rest, width, at = 0, 0, 0
    for low, stage_width in knapsack_stages(n_max, parts):
        if width:
            rest = packed.widen(rest, width, stage_width, n_max)
        width = stage_width
        for p in parts[at:]:
            if p <= low:
                break
            at += 1
            rest += 1 << width * (n_max - p)
            s = p
            while s <= n_max - p:
                rest += rest >> width * s
                s *= 2
        if rest & packed.guard_mask(width, n_max) or rest >> width * n_max:
            above = f" for its parts above {low}" if low else ""
            raise packed.SlotOverflowError(
                f"slot overflow: the knapsack over {len(parts)} parts p with p^2 > {n_max}"
                f" reached the guard bits of its {width}-bit slots{above} at n_max={n_max}"
            )
    return packed.read_slots(rest + (1 << width * n_max), width, n_max + 1)


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


def b_parts(n_max: int, k: int, i: int) -> list:
    """B's allowed parts up to n_max, largest first: b_part_allowed reads
    only p mod 4k, so each residue it admits runs up to n_max."""
    period = 4 * k
    runs = (range(r, n_max + 1, period) for r in range(1, period + 1) if b_part_allowed(r, k, i))
    return sorted(chain.from_iterable(runs), reverse=True)


def count_B_table(n_max: int, k: int, i: int) -> list:
    """B_{i,k}(0..n_max) by dynamic programming over the allowed parts."""
    check_params(k, i, n_max=n_max)
    return _count_by_dp(n_max, b_parts(n_max, k, i))


def b_witnesses(n: int, k: int, i: int) -> list:
    """All partitions counted by B_{i,k}(n), generated from allowed parts only."""
    check_params(k, i)
    return list(enumerate_partitions(n, rule=_b_rule(k, i)))


def b_strings(n: int, k: int, i: int) -> Iterator[str]:
    """The strings of b_witnesses(n, k, i), in its order, each built along
    the walk that finds it.  The parameters are checked at the call, before
    the first string."""
    check_params(k, i, n=n)
    return partitions_up_to(n, _b_rule(k, i), _exact=True, _text=True)


def _b_rule(k: int, i: int) -> tuple:
    """The B side as a walk rule: any allowed part up to the last may follow.
    b_part_allowed reads only p mod 4k, so its residues are read once."""
    period = 4 * k
    admitted = [b_part_allowed(r, k, i) for r in range(period)]
    return inf, lambda s, top: [
        (p, p) for p in range(1, min(s, top) + 1) if admitted[p % period]
    ]


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


def _corollary_rule(k: int, i: int) -> tuple:
    """The corollary as a walk rule.  The state is (s, o): the smallest part
    and the smallest odd part capped at s+2k, both unbounded at the root.
    A new part p is the smallest, so it can only clash with the parts just
    above it.  An odd p needs p >= 2i+1, o > p+2k-1 (no odd part in
    p..p+2k-1: a repeat, or one in p's window) and s > p+2k-2i-3 (no part
    in p's even window), and leaves (p, p).  An even p needs o > p+2i-1 (it
    lies in the even window of no odd part), and leaves (p, min(o, p+2k)).
    """
    odd_reach, even_reach, back_reach = 2 * k - 1, 2 * k - 2 * i - 3, 2 * i - 1

    def nexts(state: tuple, top: int) -> list:
        s, o = state
        out = []
        for p in range(1, min(s, top) + 1):
            if p % 2 == 0:
                if o > p + back_reach:
                    out.append((p, (p, min(o, p + 2 * k))))
            elif p > back_reach and o > p + odd_reach and s > p + even_reach:  # odd p >= 2i+1
                out.append((p, (p, p)))
        return out

    return (inf, inf), nexts


def _thm12_rule(k: int) -> tuple:
    """The thm12 rule as a walk rule, on the corollary's states (s, o): a
    new part p needs no odd part in p..p+2k-2 (p in its downward window,
    or an odd repeat), and an odd p also p >= 2k-1."""
    reach = 2 * k - 2

    def nexts(state: tuple, top: int) -> list:
        s, o = state
        return [
            (p, (p, p) if p % 2 else (p, min(o, p + 2 * k)))
            for p in range(1, min(s, top) + 1)
            if o > p + reach and (p % 2 == 0 or p > reach)
        ]

    return (inf, inf), nexts


def _thm13_rule(k: int) -> tuple:
    """The thm13 rule as a walk rule on the smallest part s: an even p
    always follows, an odd one only below s > p+2k-2, its window's top."""
    reach = 2 * k - 2
    return inf, lambda s, top: [
        (p, p) for p in range(1, min(s, top) + 1) if p % 2 == 0 or s > p + reach
    ]


def _c_rule(k: int, i: int, phrasing: str) -> tuple:
    """The walk rule of one phrasing; each has rules of its own."""
    check_params(k, i)
    if phrasing == "corollary":
        return _corollary_rule(k, i)
    if phrasing == "thm12":
        if i != k - 1:
            raise ValueError("phrasing thm12 requires i = k-1")
        return _thm12_rule(k)
    if phrasing == "thm13":
        if i != 0:
            raise ValueError("phrasing thm13 requires i = 0")
        return _thm13_rule(k)
    raise ValueError(f"unknown phrasing {phrasing!r}")


def c_witnesses(n: int, k: int, i: int, phrasing: str = "corollary") -> list:
    """All partitions counted by C_{i,k}(n) under the selected phrasing."""
    return list(enumerate_partitions(n, rule=_c_rule(k, i, phrasing)))


def c_strings(n: int, k: int, i: int) -> Iterator[str]:
    """The strings of c_witnesses(n, k, i), in its order, each built along
    the walk that finds it.  The parameters are checked at the call, before
    the first string."""
    check_params(k, i, n=n)
    return partitions_up_to(n, _corollary_rule(k, i), _exact=True, _text=True)


def count_C_table(n_max: int, k: int, i: int) -> list:
    """C_{i,k}(0..n_max) through the overpartition identity: the D_k sweep,
    specialized, (a, q) -> (q^{2i-1}, q^2), on its one a^0 row.
    specialize_overpartition maps each plain copy of value v to the part 2v
    and an overlined v to 2v + 2i - 1, one to one onto the C partitions, so
    the sweep runs D_k's moves with those part sizes and an overline read
    as ONE copy: its final states count C by weight.  v runs to
    n_max // 2 + 1, the last value whose overline (i = 0: 2v - 1) can fit.
    D_k's moves do not read v, so their table is built once per state.
    Every count is at most p(n), so the slots are sized by the partitions'
    bound.  The phrasings' walks are walk_C_table."""
    from .overpartitions import _dk_moves  # it imports this module

    check_params(k, i, n_max=n_max)
    dk = _dk_moves(k)
    table = {d: tuple((ONE if kind == OVER else kind, target) for kind, target in dk(None, d))
             for d in range(1, k + 1)}
    width = packed.slot_width(n_max, range(1, n_max + 1))  # at most p(n)
    states = final_states(sweep(
        n_max, k, lambda v, d: table[d], width, n_max // 2 + 1,
        name=f"the C_{{{i},{k}}} sweep", sizes=lambda v: (2 * v, 2 * v + 2 * i - 1)))
    return packed.read_rows(state_total(states))[0]


def walk_C_table(n_max: int, k: int, i: int, phrasing: str = "corollary") -> list:
    """C_{i,k}(0..n_max) under the selected phrasing, tallied from one
    merged walk of its rule (_tally): the enumeration route, on the rule
    table the witness lists walk."""
    return _tally(n_max, _c_rule(k, i, phrasing))


def count_C(n: int, k: int, i: int) -> int:
    return count_C_table(n, k, i)[n]


# ---------------------------------------------------------------------------
# Schur's identity
# ---------------------------------------------------------------------------


def count_schur_product_table(n_max: int) -> list:
    """Partitions into parts congruent to +-1 mod 6, for n = 0..n_max: the
    coefficients of the product 1/((q; q^6)_inf (q^5; q^6)_inf), from
    _count_by_dp, count_B_table's knapsack, which raises SlotOverflowError
    when a packed slot overflows."""
    check_params(n_max=n_max)
    return _count_by_dp(n_max, schur_parts(n_max))


def schur_parts(n_max: int) -> list:
    """The parts up to n_max of Schur's product side: those congruent to +-1 mod 6."""
    return [p for p in range(1, n_max + 1) if p % 6 in (1, 5)]


def satisfies_schur_gap(parts: Partition) -> bool:
    """Adjacent parts differ by >= 3, and by >= 6 when both are multiples of 3."""
    for a, b in zip(parts, parts[1:]):
        d = a - b
        if d < 3:
            return False
        if d < 6 and a % 3 == 0 and b % 3 == 0:
            return False
    return True


# Schur's gap rule as a walk rule on the smallest part s: p may follow if
# p <= s-3, and p <= s-6 when s and p are both multiples of 3
_SCHUR_GAP_RULE = (inf, lambda s, top: [
    (p, p) for p in range(1, min(s - 3, top) + 1) if p <= s - 6 or p % 3 or s % 3
])


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
    width = packed.slot_width(n_max, range(1, n_max + 1))  # at most p(n)
    states = final_states(sweep(n_max, (6, False), _schur_moves, width, name="Schur's gap sweep"))
    return packed.read_rows(state_total(states))[0]


def walk_schur_gap_table(n_max: int) -> list:
    """The same counts tallied from one merged walk of the gap rule
    (_tally): the enumeration route."""
    return _tally(n_max, _SCHUR_GAP_RULE)


def schur_gap_witnesses(n: int) -> list:
    return list(enumerate_partitions(n, rule=_SCHUR_GAP_RULE))


def format_partition(parts: Partition) -> str:
    return "+".join(map(str, parts)) if parts else "0"
