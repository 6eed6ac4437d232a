"""Partition enumeration and the B/C/Schur counters."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qident import partitions
from qident.partitions import (
    _c_predicate,
    _count_by_dp,
    _schur_gap_fits,
    b_part_allowed,
    b_witnesses,
    c_witnesses,
    count_B,
    count_B_table,
    count_C,
    count_C_table,
    count_schur_gap_table,
    count_schur_product_table,
    enumerate_partitions,
    partitions_up_to,
    satisfies_corollary,
    satisfies_schur_gap,
    satisfies_thm12,
    satisfies_thm13,
    schur_gap_witnesses,
    walk_C_table,
)
from qident.series import euler_product


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


def c_rules(k, i):
    """phrasing -> whole-partition rule, for every phrasing valid at (k, i)."""
    rules = {"corollary": lambda parts: satisfies_corollary(parts, k, i)}
    if i == k - 1:
        rules["thm12"] = lambda parts: satisfies_thm12(parts, k)
    if i == 0:
        rules["thm13"] = lambda parts: satisfies_thm13(parts, k)
    return rules


def recursive_partitions(n, max_part=None, fits=None):
    """The recursive generator enumerate_partitions was before it became the
    weight-n slice of partitions_up_to: the order oracle."""
    cap = n if max_part is None else min(max_part, n)

    def gen(remaining, limit, prefix):
        if remaining == 0:
            yield prefix
            return
        for part in range(min(limit, remaining), 0, -1):
            extended = prefix + (part,)
            if fits is None or fits(extended):
                yield from gen(remaining - part, part, extended)

    if n == 0:
        yield ()
        return
    yield from gen(n, cap, ())


# prefix rules of every kind a side passes: none, the B part rule (k=3,
# i=1), Schur's gap rule, and each C phrasing (k=3, i=1; thm12 at k=3,
# thm13 at k=2)
PREFIX_RULES = {
    "none": None,
    "B": lambda prefix: b_part_allowed(prefix[-1], 3, 1),
    "schur": lambda prefix: satisfies_schur_gap(prefix[-2:]),
    "corollary": lambda parts: satisfies_corollary(parts, 3, 1),
    "thm12": lambda parts: satisfies_thm12(parts, 3),
    "thm13": lambda parts: satisfies_thm13(parts, 2),
}


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

    def test_max_part_bound(self):
        assert list(enumerate_partitions(4, max_part=2)) == [(2, 2), (2, 1, 1), (1, 1, 1, 1)]
        assert list(enumerate_partitions(3, max_part=0)) == []

    def test_fits_prunes_by_prefix(self):
        seen = []

        def even_parts(prefix):
            seen.append(prefix)
            return prefix[-1] % 2 == 0

        assert list(enumerate_partitions(6, fits=even_parts)) == [(6,), (4, 2), (2, 2, 2)]
        # a rejected prefix is never extended: nothing below (5,), (3,) or (1,)
        assert all(p[0] % 2 == 0 for p in seen if len(p) > 1)
        assert list(enumerate_partitions(6, 3, even_parts)) == [(2, 2, 2)]

    def test_fits_sees_the_whole_prefix(self):
        distinct = list(enumerate_partitions(8, fits=lambda p: len(set(p)) == len(p)))
        assert distinct == [(8,), (7, 1), (6, 2), (5, 3), (5, 2, 1), (4, 3, 1)]

    def test_counts_match_series_inverse(self):
        # p(n) read off the inverse of the Euler product
        p = euler_product(40).invert_unit()
        for n in range(41):
            assert sum(1 for _ in enumerate_partitions(n)) == p.coefficient(n)


    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_slice_matches_recursive_generator(self, data):
        n = data.draw(st.integers(0, 20), label="n")
        max_part = data.draw(st.none() | st.integers(0, n), label="max_part")
        fits = PREFIX_RULES[data.draw(st.sampled_from(sorted(PREFIX_RULES)), label="rule")]
        assert list(enumerate_partitions(n, max_part, fits)) == list(
            recursive_partitions(n, max_part, fits)
        )

    @pytest.mark.parametrize("rule", sorted(PREFIX_RULES))
    def test_walk_is_every_weight_in_preorder(self, rule):
        fits = PREFIX_RULES[rule]
        walk = list(partitions_up_to(16, 9, fits))
        assert sorted(walk) == sorted(
            parts for n in range(17) for parts in recursive_partitions(n, 9, fits)
        )
        # pre-order: each partition comes after the prefix it extends
        position = {parts: idx for idx, parts in enumerate(walk)}
        assert walk[0] == ()
        assert all(position[parts[:-1]] < idx for idx, parts in enumerate(walk) if parts)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            list(partitions_up_to(-1))

    def test_witness_lists_equal_walk_slices(self):
        # each list walks only toward n; it must equal the weight-n slice of
        # the walk over every weight <= n under the same prefix test
        def walk_slice(n, fits):
            return [parts for parts in partitions_up_to(n, fits=fits) if sum(parts) == n]

        for n in range(21):
            assert schur_gap_witnesses(n) == walk_slice(n, _schur_gap_fits), n
            for k in range(2, 6):
                for i in range(k):
                    b_fits = lambda prefix: b_part_allowed(prefix[-1], k, i)
                    assert b_witnesses(n, k, i) == walk_slice(n, b_fits), (n, k, i)
                    for phrasing in c_rules(k, i):
                        assert c_witnesses(n, k, i, phrasing) == walk_slice(
                            n, _c_predicate(k, i, phrasing)
                        ), (n, k, i, phrasing)


class TestCountB:
    def test_worked_example(self):
        assert count_B(10, 2, 0) == 10
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
                assert count_B(0, k, i) == 1

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

    # parts above n_max, a part whose square is n_max exactly, and n_max = 0;
    # even parts alone at an odd n_max, where the half-length slice ends one
    # short of n_max (14 // 2 = 7 squares to that slice's last index, 49),
    # and odd parts alone
    @given(st.integers(0, 120), st.lists(st.integers(1, 130), max_size=12))
    @example(0, [1, 3])
    @example(49, [7])
    @example(48, [7, 6, 50])
    @example(100, [10, 11, 101, 3, 3])
    @example(1, [2])
    @example(99, [2, 4, 4, 14])
    @example(50, [1, 3, 5])
    @settings(max_examples=100, deadline=None)
    def test_dp_matches_scalar_loop(self, n_max, parts):
        assert _count_by_dp(n_max, parts) == count_by_scalar_loop(n_max, parts)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            count_B(5, 1, 0)
        with pytest.raises(ValueError):
            count_B(5, 3, 3)
        with pytest.raises(ValueError):
            count_B(5, 3, -1)


class TestCountC:
    def test_worked_example(self):
        assert count_C(10, 2, 0, "thm13") == 10
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
        # brute-force filter, cross-checked against count_B per the identity
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
        # one walk to 22 against the per-n witness lists
        for i in range(k):
            for phrasing in c_rules(k, i):
                table = count_C_table(22, k, i, phrasing)
                assert len(table) == 23
                for n in range(23):
                    assert table[n] == len(c_witnesses(n, k, i, phrasing)), (n, k, i, phrasing)

    def test_phrasing_equivalence(self):
        for k in range(2, 6):
            for n in range(26):
                assert count_C(n, k, k - 1, "corollary") == count_C(n, k, k - 1, "thm12")
                assert count_C(n, k, 0, "corollary") == count_C(n, k, 0, "thm13")

    def test_walks_borrow_no_route(self, monkeypatch):
        # each phrasing's walk runs on its own new-part test alone: with
        # every other route raising, the theorem walks still count C (the
        # corollary sweep's table), and so does the corollary walk with the
        # theorem tests raising.  No whole-prefix scan runs in either.
        expected = {(k, i): count_C_table(25, k, i) for k in range(2, 6) for i in range(k)}

        def raising(*args):
            raise AssertionError("another route was called")

        with monkeypatch.context() as patched:
            for name in ("_corollary_fits", "satisfies_corollary", "satisfies_thm12",
                         "satisfies_thm13"):
                patched.setattr(partitions, name, raising)
            for k in range(2, 6):
                assert walk_C_table(25, k, k - 1, "thm12") == expected[k, k - 1], k
                assert walk_C_table(25, k, 0, "thm13") == expected[k, 0], k
        for name in ("_thm12_fits", "_thm13_fits"):
            monkeypatch.setattr(partitions, name, raising)
        for (k, i), table in expected.items():
            assert walk_C_table(25, k, i, "corollary") == table, (k, i)

    def test_monotone_inclusion_in_k(self):
        # the forbidden windows grow with k, so witnesses at k+1 embed in k
        for k in range(2, 5):
            for i in range(k):
                for n in range(21):
                    larger = set(c_witnesses(n, k, i))
                    smaller = set(c_witnesses(n, k + 1, i))
                    assert smaller <= larger, (n, k, i)

    def test_phrasing_parameter_mismatch(self):
        with pytest.raises(ValueError):
            count_C(5, 3, 0, "thm12")
        with pytest.raises(ValueError):
            count_C(5, 3, 1, "thm13")
        with pytest.raises(ValueError):
            count_C(5, 3, 1, "nonsense")


def count_schur_product(n):
    return count_schur_product_table(n)[n]


def count_schur_gap(n):
    return len(schur_gap_witnesses(n))


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

    # the product expansion against the knapsack over parts +-1 mod 6
    @pytest.mark.parametrize("n_max", [0, 1, 5, 6, 200])
    def test_product_matches_knapsack(self, n_max):
        parts = [p for p in range(1, n_max + 1) if p % 6 in (1, 5)]
        assert count_schur_product_table(n_max) == count_by_scalar_loop(n_max, parts)

    def test_product_rejects_negative_order(self):
        with pytest.raises(ValueError, match="n_max must be non-negative"):
            count_schur_product_table(-1)

    def test_pruned_list_equals_filter(self):
        for n in range(31):
            assert schur_gap_witnesses(n) == filter_witnesses(n, satisfies_schur_gap), n

    def test_gap_table_matches_witness_lists(self):
        table = count_schur_gap_table(30)
        assert table == [len(schur_gap_witnesses(n)) for n in range(31)]
