"""Partition enumeration and the B/C/Schur counters."""

from collections import Counter
from functools import cache
from itertools import accumulate
from math import inf

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qident import packed, partitions
from qident.overpartitions import count_Dk_table
from qident.partitions import (
    _ANY_PART,
    _SCHUR_GAP_RULE,
    _add_part,
    _b_rule,
    _c_rule,
    _corollary_rule,
    _count_by_dp,
    _packed_knapsack,
    _tally,
    _thm12_rule,
    _thm13_rule,
    b_part_allowed,
    b_parts,
    b_strings,
    b_witnesses,
    c_strings,
    c_witnesses,
    count_B_table,
    count_C,
    count_C_table,
    count_schur_gap_table,
    count_schur_product_table,
    enumerate_partitions,
    format_partition,
    packed_parts,
    partitions_up_to,
    satisfies_corollary,
    satisfies_schur_gap,
    satisfies_thm12,
    satisfies_thm13,
    schur_gap_witnesses,
    schur_parts,
    walk_C_table,
)
from qident.series import Monomial, euler_product, pochhammer_inf


def filter_witnesses(n, accepts):
    """The brute-force route the witness lists took before pruning: filter
    the full enumeration by the whole-partition rule."""
    return [parts for parts in enumerate_partitions(n) if accepts(parts)]


def count_by_scalar_loop(n_max, allowed_parts):
    """The knapsack as _count_by_dp ran it before slicing: one running-sum
    step ways[s] += ways[s - p] at a time."""
    ways = [1] + [0] * n_max
    for p in sorted(allowed_parts):
        for s in range(p, n_max + 1):
            ways[s] += ways[s - p]
    return ways


def single_width_knapsack(n_max, parts):
    """_packed_knapsack as it ran before its stages: every part, largest
    first, in one width, packed.slot_width over parts."""
    if not parts:
        return [1] + [0] * n_max
    width = packed.slot_width(n_max, parts)
    rest = 0
    for p in parts:
        rest += 1 << width * (n_max - p)
        s = p
        while s <= n_max - p:
            rest += rest >> width * s
            s *= 2
    assert not rest & packed.guard_mask(width, n_max) and not rest >> width * n_max
    return packed.read_slots(rest + (1 << width * n_max), width, n_max + 1)


def closed_product_parts(k, d, j):
    """The parts the closed product's a^d row of the x^j term counts:
    k, 2k, ..., dk and 1, ..., j - kd."""
    return [k * t for t in range(1, d + 1)] + list(range(1, j - k * d + 1))


def c_by_summed_dk_rows(n_max, k, i):
    """C_{i,k}(0..n_max) as count_C_table summed it before it ran on one
    a-row: every D_k(m, w) added into C at n = 2w + (2i-1)m, for m up to the
    most overlines whose least image, (2i+1)m + km(m-1), fits in n_max, and
    w up to (n_max + m) / 2."""
    m_max = 0
    while (2 * i + 1) * (m_max + 1) + k * (m_max + 1) * m_max <= n_max:
        m_max += 1
    counts = [0] * (n_max + 1)
    for m, row in enumerate(count_Dk_table((n_max + m_max) // 2, k, m_max)):
        for w, count in enumerate(row):
            n = 2 * w + (2 * i - 1) * m
            if 0 <= n <= n_max:
                counts[n] += count
    return counts


def c_rules(k, i):
    """phrasing -> whole-partition rule, for every phrasing valid at (k, i)."""
    rules = {"corollary": lambda parts: satisfies_corollary(parts, k, i)}
    if i == k - 1:
        rules["thm12"] = lambda parts: satisfies_thm12(parts, k)
    if i == 0:
        rules["thm13"] = lambda parts: satisfies_thm13(parts, k)
    return rules


def recursive_partitions(n):
    """The recursive generator enumerate_partitions was before it became the
    weight-n slice of partitions_up_to: the order oracle."""

    def gen(remaining, limit, prefix):
        if remaining == 0:
            yield prefix
            return
        for part in range(min(limit, remaining), 0, -1):
            yield from gen(remaining - part, part, prefix + (part,))

    if n == 0:
        yield ()
        return
    yield from gen(n, n, ())


# every walk rule in src, with the whole-partition rule it must agree with:
# none, the B part rule (k=3, i=1), Schur's gap rule, and each C phrasing
# (k=3, i=1; thm12 at k=3, thm13 at k=2)
RULES = {
    "none": (None, lambda parts: True),
    "B": (_b_rule(3, 1), lambda parts: all(b_part_allowed(p, 3, 1) for p in parts)),
    "schur": (_SCHUR_GAP_RULE, satisfies_schur_gap),
    "corollary": (_corollary_rule(3, 1), lambda parts: satisfies_corollary(parts, 3, 1)),
    "thm12": (_thm12_rule(3), lambda parts: satisfies_thm12(parts, 3)),
    "thm13": (_thm13_rule(2), lambda parts: satisfies_thm13(parts, 2)),
}


def filtered_recursive(n, accepts):
    return [parts for parts in recursive_partitions(n) if accepts(parts)]


def counting_calls(real, seen):
    """A rule factory whose rules record, in a Counter appended to seen per
    rule built, every state their nexts is called on."""

    def factory(*params):
        start, nexts = real(*params)
        calls = Counter()
        seen.append(calls)

        def counted(state, top):
            calls[state] += 1
            return nexts(state, top)

        return start, counted

    return factory


class TestEnumeration:
    def test_empty_sum(self):
        assert list(enumerate_partitions(0)) == [()]

    def test_p4(self):
        assert list(enumerate_partitions(4)) == [
            (4,),
            (3, 1),
            (2, 2),
            (2, 1, 1),
            (1, 1, 1, 1),
        ]

    def test_p10_count(self):
        assert sum(1 for _ in enumerate_partitions(10)) == 42

    def test_lex_decreasing_order(self):
        items = list(enumerate_partitions(8))
        assert items == sorted(items, reverse=True)
        assert len(set(items)) == len(items)

    def test_rule_lists_only_what_is_walked(self):
        seen = []

        def even_parts(s, top):
            seen.append((s, top))
            return [(p, p) for p in range(2, min(s, top) + 1, 2)]

        assert list(enumerate_partitions(6, rule=(inf, even_parts))) == [(6,), (4, 2), (2, 2, 2)]
        # only listed children are walked, so no state is odd, and each
        # state is listed once; top is the walk's bound on the root's parts
        assert seen == [(inf, 6), (6, 6), (4, 6), (2, 6)]

    def test_state_carries_what_the_rule_needs(self):
        # distinct parts: the last part is all the rule needs to know
        distinct = (inf, lambda s, top: [(p, p) for p in range(1, min(s - 1, top) + 1)])
        assert list(enumerate_partitions(8, rule=distinct)) == [
            (8,), (7, 1), (6, 2), (5, 3), (5, 2, 1), (4, 3, 1)
        ]

    def test_counts_match_series_inverse(self):
        # p(n) read off the inverse of the Euler product
        p = euler_product(40).invert_unit()
        for n in range(41):
            assert sum(1 for _ in enumerate_partitions(n)) == p.coefficient(n)


    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_slice_matches_recursive_generator(self, data):
        n = data.draw(st.integers(0, 20), label="n")
        rule, accepts = RULES[data.draw(st.sampled_from(sorted(RULES)), label="rule")]
        assert list(enumerate_partitions(n, rule)) == filtered_recursive(n, accepts)

    @pytest.mark.parametrize("rule", sorted(RULES))
    def test_walk_is_every_weight_in_preorder(self, rule):
        rule, accepts = RULES[rule]
        walk = list(partitions_up_to(16, rule))
        assert sorted(walk) == sorted(
            parts for n in range(17) for parts in filtered_recursive(n, accepts)
        )
        # pre-order: each partition comes after the prefix it extends
        position = {parts: idx for idx, parts in enumerate(walk)}
        assert walk[0] == ()
        assert all(position[parts[:-1]] < idx for idx, parts in enumerate(walk) if parts)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            list(partitions_up_to(-1))

    def test_each_state_is_listed_once(self, monkeypatch):
        # each walk lists a state at most once, and sees few states: a lost
        # cap on the smallest odd part, or a lost table, shows here
        n = 45
        seen = []

        def check(walk, *args, bound, per_part=1):
            walk(n, *args)
            calls = seen.pop()
            assert not seen and max(calls.values()) == 1, (walk.__name__, args)
            assert len(calls) <= bound, (walk.__name__, args, len(calls))
            # the same bound row by row: a smallest part s has at most
            # per_part states, which a state keeping every odd part breaks
            rows = Counter(state[0] if isinstance(state, tuple) else state for state in calls)
            assert max(rows.values()) <= per_part, (walk.__name__, args)

        for name in ("_b_rule", "_corollary_rule", "_thm12_rule", "_thm13_rule"):
            monkeypatch.setattr(partitions, name, counting_calls(getattr(partitions, name), seen))
        for walk in (schur_gap_witnesses, partitions.walk_schur_gap_table):
            monkeypatch.setattr(
                partitions, "_SCHUR_GAP_RULE", counting_calls(lambda: _SCHUR_GAP_RULE, seen)()
            )
            check(walk, bound=n + 2)
        for k in (2, 3, 5):
            for i in range(k):
                check(b_witnesses, k, i, bound=n + 2)
                for phrasing in c_rules(k, i):
                    per_part = 1 if phrasing == "thm13" else 2 * k + 2
                    for walk in (c_witnesses, walk_C_table):
                        check(walk, k, i, phrasing, bound=(n + 2) * per_part, per_part=per_part)

    def test_witness_lists_equal_walk_slices(self):
        # each list walks only toward n; it must equal the weight-n slice of
        # the walk over every weight <= n under the same prefix test
        def walk_slice(n, rule):
            return [parts for parts in partitions_up_to(n, rule=rule) if sum(parts) == n]

        for n in range(21):
            assert schur_gap_witnesses(n) == walk_slice(n, _SCHUR_GAP_RULE), n
            for k in range(2, 6):
                for i in range(k):
                    assert b_witnesses(n, k, i) == walk_slice(n, _b_rule(k, i)), (n, k, i)
                    for phrasing in c_rules(k, i):
                        assert c_witnesses(n, k, i, phrasing) == walk_slice(
                            n, _c_rule(k, i, phrasing)
                        ), (n, k, i, phrasing)


def node_tally(n_max, rule):
    """The oracle: the tally as it ran before merging, one count per node of
    the walk, the node's own weight."""
    counts = Counter(map(sum, partitions_up_to(n_max, rule)))
    return [counts[n] for n in range(n_max + 1)]


def top_down_tally(n_max, rule):
    """The oracle for random tables, whose walks can have ~10^11 nodes at
    n = 16: f(s, r), the number of part sequences from state s weighing r,
    memoized, with f(s, 0) = 1 and f(s, r) the sum of f(c, r - p) over the
    pairs (p, c) that s lists with p <= r; counts[w] = f(start, w)."""
    start, nexts = rule

    @cache
    def f(state, r):
        return 1 if r == 0 else sum(f(c, r - p) for p, c in nexts(state, n_max) if p <= r)

    return [f(start, w) for w in range(n_max + 1)]


@st.composite
def rule_tables(draw):
    """A small rule: a few int states, each listing (part, child state)
    pairs, parts ascending; the start is state 0."""
    states = draw(st.integers(1, 4))
    entries = st.tuples(st.integers(1, 7), st.integers(0, states - 1))
    table = [sorted(draw(st.lists(entries, max_size=5))) for _ in range(states)]
    return 0, lambda state, top: [(p, c) for p, c in table[state] if p <= top]


class TestTally:
    def test_every_phrasing_equals_the_node_tally(self):
        for n in range(31):
            assert _tally(n, _ANY_PART) == node_tally(n, None), n
            assert _tally(n, _SCHUR_GAP_RULE) == node_tally(n, _SCHUR_GAP_RULE), n
            for k in range(2, 7):
                for i in range(k):
                    for phrasing in c_rules(k, i):
                        rule = _c_rule(k, i, phrasing)
                        assert _tally(n, rule) == node_tally(n, rule), (n, k, i, phrasing)

    @settings(max_examples=200, deadline=None)
    @given(rule_tables(), st.integers(0, 16))
    def test_random_tables_equal_the_node_tally(self, rule, n):
        assert _tally(n, rule) == top_down_tally(n, rule)

    def test_top_down_tally_equals_the_node_tally(self):
        # the random tables' oracle against the walk on the fixed phrasings
        for n in (0, 1, 12, 20):
            for rule in (_SCHUR_GAP_RULE, _c_rule(3, 1, "corollary"), _b_rule(4, 2)):
                assert top_down_tally(n, rule) == node_tally(n, rule), n


def text_walk(n, rule, exact=True):
    """The text labels of partitions_up_to(n, rule), as the lists print them."""
    return list(partitions_up_to(n, rule, _exact=exact, _text=True))


def formatted_walk(n, rule, exact=True):
    """The oracle: the tuple walk's partitions, each joined by format_partition."""
    return list(map(format_partition, partitions_up_to(n, rule, _exact=exact)))


def text_rules():
    """Every rule the lists walk: none, B at every (k, i) with k <= 6, the
    corollary at every i, thm12 at i = k-1, thm13 at i = 0, and Schur's."""
    rules = {"none": None, "schur": _SCHUR_GAP_RULE}
    for k in range(2, 7):
        for i in range(k):
            rules[f"B-{k}-{i}"] = _b_rule(k, i)
            rules[f"corollary-{k}-{i}"] = _c_rule(k, i, "corollary")
        rules[f"thm12-{k}"] = _c_rule(k, k - 1, "thm12")
        rules[f"thm13-{k}"] = _c_rule(k, 0, "thm13")
    return rules


class TestText:
    def test_labels_equal_formatted_tuples(self):
        # order-exact: the text walk yields format_partition of each tuple
        # the walk yields, in the tuple walk's order, "0" for the empty one
        for name, rule in text_rules().items():
            for n in range(23):
                assert text_walk(n, rule) == formatted_walk(n, rule), (name, n)
            assert text_walk(0, rule) == ["0"], name
            assert text_walk(12, rule, exact=False) == formatted_walk(12, rule, exact=False), name

    def test_entry_points_equal_the_witness_lists(self):
        for n in (0, 1, 2, 10, 22):
            for k in range(2, 7):
                for i in range(k):
                    assert list(b_strings(n, k, i)) == list(
                        map(format_partition, b_witnesses(n, k, i))), (n, k, i)
                    assert list(c_strings(n, k, i)) == list(
                        map(format_partition, c_witnesses(n, k, i))), (n, k, i)

    @settings(max_examples=200, deadline=None)
    @given(rule_tables(), st.integers(0, 10))
    def test_random_tables_label_as_the_tuples(self, rule, n):
        # random tables can reach 10^11 nodes at n = 16: the tally bounds
        # the walk's node count before it is walked
        assume(sum(_tally(n, rule)) <= 10**5)
        assert text_walk(n, rule) == formatted_walk(n, rule)
        assert text_walk(n, rule, exact=False) == formatted_walk(n, rule, exact=False)

    @pytest.mark.parametrize("call", [
        lambda: b_strings(5, 1, 0),
        lambda: b_strings(5, 3, 3),
        lambda: b_strings(5, 3, -1),
        lambda: b_strings(-1, 3, 1),
        lambda: c_strings(5, 1, 0),
        lambda: c_strings(5, 3, 3),
        lambda: c_strings(-1, 3, 1),
    ])
    def test_bad_parameters_raise_at_the_call(self, call):
        # before the first string is asked for
        with pytest.raises(ValueError):
            call()


class TestCountB:
    def test_worked_example(self):
        assert count_B_table(10, 2, 0)[10] == 10
        assert set(b_witnesses(10, 2, 0)) == {
            (9, 1),
            (8, 1, 1),
            (6, 4),
            (6, 1, 1, 1, 1),
            (5, 5),
            (5, 4, 1),
            (5, 1, 1, 1, 1, 1),
            (4, 4, 1, 1),
            (4, 1, 1, 1, 1, 1, 1),
            (1,) * 10,
        }

    def test_empty_partition(self):
        for k in range(2, 6):
            for i in range(k):
                assert count_B_table(0, k, i)[0] == 1

    def test_frozen_table_k2_i1(self):
        # computed by brute-force filtering of the full enumeration
        expected = [1, 0, 1, 1, 2, 1, 3, 3, 5, 4, 8, 8, 12]
        assert count_B_table(12, 2, 1) == expected
        assert [len(b_witnesses(n, 2, 1)) for n in range(13)] == expected

    def test_dp_matches_enumeration_grid(self):
        for k in range(2, 6):
            for i in range(k):
                table = count_B_table(18, k, i)
                for n in range(19):
                    assert table[n] == len(b_witnesses(n, k, i)), (n, k, i)

    @pytest.mark.parametrize("k", range(2, 7))
    def test_pruned_list_equals_filter(self, k):
        for i in range(k):
            for n in range(23):
                expected = filter_witnesses(
                    n, lambda parts: all(b_part_allowed(p, k, i) for p in parts)
                )
                assert b_witnesses(n, k, i) == expected, (n, k, i)

    # parts above n_max, a part equal to n_max, a part whose square is n_max
    # exactly (the last residue-class part), and n_max = 0; a large part
    # repeated, and parts given in no order
    @given(st.integers(0, 120), st.lists(st.integers(1, 130), max_size=12))
    @example(0, [1, 3])
    @example(49, [7])
    @example(48, [7, 6, 50])
    @example(100, [10, 11, 101, 3, 3])
    @example(1, [2])
    @example(99, [2, 4, 4, 14])
    @example(50, [1, 3, 5])
    @example(60, [9, 9, 8])
    @example(30, [7, 31, 30])
    @example(64, [8, 9, 8])
    @settings(max_examples=100, deadline=None)
    def test_dp_matches_scalar_loop(self, n_max, parts):
        assert _count_by_dp(n_max, parts) == count_by_scalar_loop(n_max, parts)

    # (n_max, parts, packed): whether packed_parts packs any part; it packs
    # every large part up to n_max.  B's parts; lists like the closed
    # product's, where a part may repeat; parts above n_max; n_max = 0 and
    # 1; and only a few large parts
    @pytest.mark.parametrize("n_max, parts, packed", [
        (0, [], False),
        (0, [1, 3], False),
        (1, [1], False),
        (1, [2, 1, 1], False),
        (60, b_parts(60, 2, 0), True),
        (200, b_parts(200, 5, 4), True),
        (1000, b_parts(1000, 3, 1), True),
        (165, closed_product_parts(3, 5, 60), True),  # 3, 6, ..., 15 twice
        (135, closed_product_parts(2, 8, 40), True),  # 2, 4, ..., 16 twice
        (44, closed_product_parts(2, 4, 10), True),  # the large 8 alone
        (60, [10, 9, 8], True),
        (60, [10, 9, 8, 8], True),
        (100, list(range(11, 131)), True),
        (100, [25, 20, 3, 3, 101], True),
    ])
    def test_dp_matches_scalar_loop_across_the_split(self, n_max, parts, packed):
        assert bool(packed_parts(n_max, parts)) == packed
        assert _count_by_dp(n_max, parts) == count_by_scalar_loop(n_max, parts)

    # ways[1:lo] zeroed, as a listed part finds it; ways[0] and ways[lo:]
    # are arbitrary.  A part above the last index, equal to it, or whose
    # square it is; lo below, at and above p, lo = 1 (no zero prefix) and
    # lo past the end
    @given(
        st.lists(st.integers(-9, 9), min_size=1, max_size=121),
        st.integers(1, 130),
        st.integers(1, 140),
    )
    @example([1] + [0] * 60, 61, 70)
    @example([2] + [0] * 29 + [1], 30, 31)
    @example([1] + [3] * 49, 7, 8)
    @example([1] + [0] * 8 + [1] * 52, 9, 9)
    @example([1] + [0] * 8 + [1] * 52, 8, 9)
    @example(list(range(61)), 8, 1)
    @settings(max_examples=150, deadline=None)
    def test_zero_prefix_matches_running_sum(self, ways, p, lo):
        ways[1:lo] = [0] * len(ways[1:lo])
        summed = ways.copy()
        _add_part(summed, p)
        for s in range(p, len(ways)):
            ways[s] += ways[s - p]
        assert summed == ways

    # random part sets, repeats allowed, large enough to take stages, and
    # B's and Schur's parts, which widen three and two times at n = 400
    @given(st.integers(0, 400).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.integers(1, n + 1), max_size=n))))
    @example((400, b_parts(400, 2, 0)))
    @example((400, schur_parts(400)))
    @example((400, list(range(21, 401))))
    @example((400, [400, 201, 200, 21, 21]))
    @settings(max_examples=60, deadline=None)
    def test_stages_match_one_width(self, drawn):
        n_max, parts = drawn
        parts = packed_parts(n_max, parts)
        assert _packed_knapsack(n_max, parts) == single_width_knapsack(n_max, parts)

    def test_stage_bounds_cover_every_part_set(self):
        # a stage above low runs a subset of low < p <= n, so its counts are
        # at most partitions into parts above low, which grow as low falls:
        # for every n <= 600 and every low = n // 2, n // 4, ... >= 1, the
        # largest such count up to q^n stays below its stage width's guard bits
        top = 600
        lows = {}
        for n in range(2, top + 1):
            low = n // 2
            while low:
                lows.setdefault(low, []).append(n)
                low //= 2
        ways = [1] + [0] * top  # partitions into parts above low
        for low in range(top, 0, -1):
            if low in lows:
                most = list(accumulate(ways, max))
                for n in lows[low]:
                    width = packed.slot_width.__wrapped__(n, range(low + 1, n + 1))
                    assert most[n].bit_length() <= width - packed.GUARD_BITS, (n, low)
            for s in range(low, top + 1):
                ways[s] += ways[s - low]

    @pytest.mark.parametrize("n_max, stages", [
        (25, [(0, 16)]),
        (60, [(15, 16), (0, 24)]),
        (200, [(100, 16), (50, 24), (0, 32)]),
        (1000, [(500, 24), (250, 32), (125, 40), (62, 56), (0, 64)]),
    ])
    def test_stage_widths_of_b(self, n_max, stages):
        # B_{0,2}'s stages: each narrower than the next, the last at its
        # parts' own width; 60's stage above 30 is as wide as the one above
        # 15 and joins it
        parts = packed_parts(n_max, b_parts(n_max, 2, 0))
        assert partitions.knapsack_stages(n_max, parts) == stages
        assert stages[-1][1] == packed.slot_width(n_max, parts)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            count_B_table(5, 1, 0)[5]
        with pytest.raises(ValueError):
            count_B_table(5, 3, 3)[5]
        with pytest.raises(ValueError):
            count_B_table(5, 3, -1)[5]


class TestCountC:
    def test_worked_example(self):
        assert count_C(10, 2, 0) == walk_C_table(10, 2, 0, "thm13")[10] == 10
        assert set(c_witnesses(10, 2, 0, "thm13")) == {
            (10,),
            (9, 1),
            (8, 2),
            (7, 3),
            (6, 4),
            (6, 2, 2),
            (5, 4, 1),
            (4, 4, 2),
            (4, 2, 2, 2),
            (2, 2, 2, 2, 2),
        }

    def test_empty_partition(self):
        for k in range(2, 6):
            for i in range(k):
                assert count_C(0, k, i) == 1

    def test_frozen_table_k3_i1(self):
        # brute-force filter, cross-checked against count_B_table per the identity
        expected = [1, 0, 1, 1, 2, 1, 3, 2, 5, 4, 7, 6, 12, 9, 16, 15]
        assert [count_C(n, 3, 1) for n in range(16)] == expected
        assert count_B_table(15, 3, 1) == expected

    @pytest.mark.parametrize("k", range(2, 7))
    def test_pruned_lists_equal_filter(self, k):
        # order-exact: pruning keeps the order of the full enumeration
        for i in range(k):
            for phrasing, rule in c_rules(k, i).items():
                for n in range(23):
                    expected = filter_witnesses(n, rule)
                    assert c_witnesses(n, k, i, phrasing) == expected, (n, k, i, phrasing)

    @pytest.mark.parametrize("k", range(2, 7))
    def test_table_matches_witness_lists(self, k):
        # the sweep and one walk per phrasing to 22 against the per-n
        # witness lists
        for i in range(k):
            lists = {
                phrasing: [len(c_witnesses(n, k, i, phrasing)) for n in range(23)]
                for phrasing in c_rules(k, i)
            }
            assert count_C_table(22, k, i) == lists["corollary"], (k, i)
            for phrasing, counts in lists.items():
                assert walk_C_table(22, k, i, phrasing) == counts, (k, i, phrasing)

    @pytest.mark.parametrize("n_max, k_top", [(0, 8), (1, 8), (2, 8), (3, 8), (25, 8), (45, 8),
                                              (200, 8), (1000, 5)])
    def test_one_row_equals_the_summed_dk_rows(self, n_max, k_top):
        # the specialized sweep on one a-row against the D_k table's rows
        # summed onto n = 2w + (2i-1)m
        for k in range(2, k_top + 1):
            for i in range(k):
                assert count_C_table(n_max, k, i) == c_by_summed_dk_rows(n_max, k, i), (k, i)

    def test_phrasing_equivalence(self):
        for k in range(2, 6):
            assert count_C_table(25, k, k - 1) == walk_C_table(25, k, k - 1, "thm12"), k
            assert count_C_table(25, k, 0) == walk_C_table(25, k, 0, "thm13"), k

    def test_monotone_inclusion_in_k(self):
        # the forbidden windows grow with k, so witnesses at k+1 embed in k
        for k in range(2, 5):
            for i in range(k):
                for n in range(21):
                    larger = set(c_witnesses(n, k, i))
                    smaller = set(c_witnesses(n, k + 1, i))
                    assert smaller <= larger, (n, k, i)

    def test_phrasing_parameter_mismatch(self):
        for walk in (walk_C_table, c_witnesses):
            with pytest.raises(ValueError, match="phrasing thm12 requires i = k-1"):
                walk(5, 3, 0, "thm12")
            with pytest.raises(ValueError, match="phrasing thm13 requires i = 0"):
                walk(5, 3, 1, "thm13")
            with pytest.raises(ValueError, match="unknown phrasing 'nonsense'"):
                walk(5, 3, 1, "nonsense")


def count_schur_product(n):
    return count_schur_product_table(n)[n]


def count_schur_gap(n):
    return len(schur_gap_witnesses(n))


def schur_product_by_binomials(n_max):
    """Schur's product as count_schur_product_table expanded it before it ran
    the knapsack: the binomials of the classes q^1 and q^5 mod 6 multiplied
    out, then inverted."""
    denominator = (pochhammer_inf(Monomial(0, 1, -1), 6, n_max)
                   * pochhammer_inf(Monomial(0, 5, -1), 6, n_max))
    return list(denominator.to_qseries().invert_unit().coeffs)


class TestSchur:
    def test_small_values(self):
        assert count_schur_product(0) == 1
        assert count_schur_product(7) == 3
        assert count_schur_gap(7) == 3

    def test_frozen_prefix(self):
        assert [count_schur_product(n) for n in range(8)] == [1, 1, 1, 1, 1, 2, 2, 3]
        assert [count_schur_gap(n) for n in range(8)] == [1, 1, 1, 1, 1, 2, 2, 3]

    def test_identity_to_30(self):
        for n in range(31):
            assert count_schur_product(n) == count_schur_gap(n)

    # the product's knapsack against the scalar running sums over parts +-1 mod 6
    @pytest.mark.parametrize("n_max", [0, 1, 5, 6, 200])
    def test_product_matches_knapsack(self, n_max):
        parts = [p for p in range(1, n_max + 1) if p % 6 in (1, 5)]
        assert count_schur_product_table(n_max) == count_by_scalar_loop(n_max, parts)

    def test_product_matches_binomial_expansion(self):
        # every n_max <= 200, packed (from n_max = 40) or not, is a prefix
        # of the product multiplied out
        want = schur_product_by_binomials(200)
        for n_max in range(201):
            assert count_schur_product_table(n_max) == want[: n_max + 1], n_max

    def test_product_rejects_negative_order(self):
        with pytest.raises(ValueError, match="n_max must be non-negative"):
            count_schur_product_table(-1)

    def test_pruned_list_equals_filter(self):
        for n in range(31):
            assert schur_gap_witnesses(n) == filter_witnesses(n, satisfies_schur_gap), n

    def test_gap_table_matches_witness_lists(self):
        table = count_schur_gap_table(30)
        assert table == [len(schur_gap_witnesses(n)) for n in range(31)]
