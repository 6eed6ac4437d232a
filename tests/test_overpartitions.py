"""Overpartition enumeration, admissibility, and the specialization maps."""

import tracemalloc
from itertools import groupby

import pytest

from qident.overpartitions import (
    Overpartition,
    count_Dk_table,
    count_pj,
    count_rj,
    d_strings,
    d_witnesses,
    dk_sweep,
    enumerate_overpartitions,
    is_Dk_admissible,
    specialize_overpartition,
)
from qident.packed import read_rows
from qident.partitions import c_witnesses, enumerate_partitions
from qident.series import Monomial, euler_product, pochhammer_inf
from qident.appell import max_overline_count, theorem_product
from qident.overpartitions import _walk_to


def largest_part(o):
    return o.entries[0][0] if o.entries else 0


def filter_bounded(n, j_max, k, m_max):
    """The bounded tables of one weight n, r[j][m] and p[j][m] for
    j <= j_max, m <= m_max, by brute force: every overpartition of n is
    filtered by the rule once, then binned by its overline count, its
    largest part, and whether an overlined value lies in {j-k+2, ..., j}."""
    r = [[0] * (m_max + 1) for _ in range(j_max + 1)]
    p = [[0] * (m_max + 1) for _ in range(j_max + 1)]
    for o in filter_admissible(n, k):
        m = o.overline_count
        if m > m_max:
            continue
        for j in range(largest_part(o), j_max + 1):
            p[j][m] += 1
            if not o.overlined_values & set(range(max(1, j - k + 2), j + 1)):
                r[j][m] += 1
    return r, p


def sweep_tables(n_max, j_max, k, m_max):
    """r[n][j][m] and p[n][j][m], read off dk_sweep's snapshot after each
    value j <= j_max: R_j from state k, P_j from every state."""
    snapshots = [{state: read_rows(term) for state, term in s.items()}
                 for s in dk_sweep(n_max, k, m_max, j_max)]
    assert len(snapshots) == j_max + 1
    ms = range(m_max + 1)
    r = [[[s[k][m][n] for m in ms] for s in snapshots] for n in range(n_max + 1)]
    p = [[[sum(rows[m][n] for rows in s.values()) for m in ms] for s in snapshots]
         for n in range(n_max + 1)]
    return r, p


def walk_strings(n, k):
    """(parts, strings) of every partition of n: the admissible objects'
    strings the walk d_strings and d_witnesses share gives each partition,
    paired with enumerate_partitions, whose order the walk keeps."""
    partitions = list(enumerate_partitions(n))
    walked = list(_walk_to(n, k))
    assert len(walked) == len(partitions), (n, k)
    return list(zip(partitions, walked))


def filter_admissible(n, k):
    """The brute-force route: every overpartition, filtered by the rule."""
    return [o for o in enumerate_overpartitions(n) if is_Dk_admissible(o, k)]


def walk_objects(n, k):
    """The objects of walk_strings(n, k), in its order."""
    return [Overpartition.parse(x) for _, strings in walk_strings(n, k) for x in strings]


def strings_of(parts, k):
    """The strings the walk gives one partition."""
    return dict(walk_strings(sum(parts), k))[tuple(parts)]


def filter_Dk_table(n_max, k, m_max):
    table = [[0] * (n_max + 1) for _ in range(m_max + 1)]
    for n in range(n_max + 1):
        for o in filter_admissible(n, k):
            if o.overline_count <= m_max:
                table[o.overline_count][n] += 1
    return table


def overpartition_counting_series(order):
    """(-q;q)_inf / (q;q)_inf, the unrestricted overpartition count."""
    numer = pochhammer_inf(Monomial(0, 1, 1), 1, order).to_qseries()
    return numer * euler_product(order).invert_unit()


def entries_string(o):
    """The string rule read off the entries one part at a time: the oracle
    for the walk's text and for __str__."""
    pieces = []
    for v, mult, over in o.entries:
        pieces.extend([str(v)] * (mult - 1 if over else mult))
        if over:
            pieces.append(f"{v}~")
    return "+".join(pieces) if pieces else "0"


class TestFormat:
    @pytest.mark.parametrize("k", range(2, 7))
    def test_masks_print_as_objects(self, k):
        # the walk's text against the filter's objects
        for n in range(17):
            objects = filter_admissible(n, k)
            strings = list(d_strings(n, k))
            assert [str(o) for o in objects] == strings, (n, k)
            assert [entries_string(o) for o in objects] == strings, (n, k)

    def test_str_of_every_overpartition(self):
        # admissible or not, __str__ is the entries rule, and parse inverts it
        for n in range(11):
            for o in enumerate_overpartitions(n):
                assert str(o) == entries_string(o), o.entries
                assert Overpartition.parse(str(o)) == o, o.entries

    @pytest.mark.parametrize("text", ["", "1~~", "1~+1", "1+2", "x"])
    def test_parse_rejects_what_str_never_prints(self, text):
        with pytest.raises(ValueError):
            Overpartition.parse(text)

    def test_d_strings_checks_at_the_call(self):
        # a bad k raises before the first string is asked for
        with pytest.raises(ValueError):
            d_strings(5, 1)

    def test_d_strings_streams(self):
        # one string at a time as the walk reaches it: the list of all
        # 32,788 strings peaked at 2.45 MB
        tracemalloc.start()
        try:
            count = sum(1 for _ in d_strings(30, 2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == theorem_product(2, 30).set_a(1).coefficient(30)
        assert peak < 512 * 2**10


class TestEnumeration:
    def test_empty(self):
        assert [o.entries for o in enumerate_overpartitions(0)] == [()]

    def test_n2_listing(self):
        assert sorted(str(o) for o in enumerate_overpartitions(2)) == [
            "1+1",
            "1+1~",
            "2",
            "2~",
        ]

    def test_counts_match_series(self):
        series = overpartition_counting_series(8)
        for n in range(9):
            assert sum(1 for _ in enumerate_overpartitions(n)) == series.coefficient(n)

    def test_no_duplicates(self):
        items = [o.entries for o in enumerate_overpartitions(7)]
        assert len(items) == len(set(items))

    def test_weight_and_overline_count(self):
        o = Overpartition(((3, 2, True), (1, 1, False)))
        assert o.weight == 7
        assert o.overline_count == 1
        assert str(o) == "3+3~+1"

    def test_entry_validation(self):
        with pytest.raises(ValueError):
            Overpartition(((1, 1, False), (2, 1, False)))  # increasing values
        with pytest.raises(ValueError):
            Overpartition(((2, 0, False),))


class TestAdmissibility:
    def test_adjacent_overlines_forbidden(self):
        o = Overpartition(((2, 1, True), (1, 1, True)))
        assert not is_Dk_admissible(o, 2)

    def test_distant_overlines_allowed(self):
        o = Overpartition(((3, 1, True), (1, 1, True)))
        assert is_Dk_admissible(o, 2)
        assert not is_Dk_admissible(o, 3)  # distance 2 < k

    def test_overline_with_plain_copy(self):
        # k=2: rule (a)'s window is just {b}; a plain copy of b is the only conflict
        alone = Overpartition(((1, 1, True),))
        doubled = Overpartition(((1, 2, True),))
        assert is_Dk_admissible(alone, 2)
        assert not is_Dk_admissible(doubled, 2)

    def test_plain_neighbour_window(self):
        # k=3: overline 1 forbids plain 1 and plain 2
        o = Overpartition(((2, 1, False), (1, 1, True)))
        assert is_Dk_admissible(o, 2)
        assert not is_Dk_admissible(o, 3)

    def test_no_overlines_always_admissible(self):
        o = Overpartition(((5, 3, False), (1, 2, False)))
        for k in range(2, 6):
            assert is_Dk_admissible(o, k)


class TestAdmissibleMasks:
    @pytest.mark.parametrize("k", range(2, 7))
    def test_masks_equal_filter(self, k):
        # each partition's strings are those of the masks is_Dk_admissible
        # accepts, in ascending mask order
        for n in range(17):
            for parts, strings in walk_strings(n, k):
                groups = [(v, len(list(g))) for v, g in groupby(parts)]
                objects = (
                    Overpartition(tuple(
                        (v, mult, bool(mask >> idx & 1)) for idx, (v, mult) in enumerate(groups)
                    ))
                    for mask in range(1 << len(groups))
                )
                expected = [entries_string(o) for o in objects if is_Dk_admissible(o, k)]
                assert strings == expected, (parts, k)

    @pytest.mark.parametrize("k", range(2, 7))
    def test_objects_equal_filter(self, k):
        for n in range(17):
            assert walk_objects(n, k) == filter_admissible(n, k), (n, k)

    @pytest.mark.parametrize("k", [2, 3, 5])
    @pytest.mark.parametrize("m", [None, 1, 3])
    def test_walk_slices_equal_per_partition_masks(self, k, m):
        # the walk headed for weight n gives each partition the objects
        # is_Dk_admissible keeps over enumerate_overpartitions, order
        # included; d_witnesses keeps those with m overlines (None: each m)
        for n in range(17):
            admissible = filter_admissible(n, k)
            expected = [
                (parts, [entries_string(o) for o in objects])
                for parts, objects in groupby(
                    admissible,
                    key=lambda o: tuple(v for v, mult, _ in o.entries for _ in range(mult)),
                )
            ]
            assert walk_strings(n, k) == expected, n
            for count in range(n + 1) if m is None else (m,):
                assert d_witnesses(count, n, k) == [
                    o for o in admissible if o.overline_count == count
                ], (n, count)

    def test_rules(self):
        # k = 3: 5 eligible (4 is not in 6..6), 4 not (5 lies in 5..5),
        # 1 eligible; 5 and 1 are far enough apart to be overlined together
        assert strings_of([5, 4, 1], 3) == ["5+4+1", "5~+4+1", "5+4+1~", "5~+4+1~"]
        # a repeated value is never overlined, here 2
        assert strings_of([4, 2, 2], 2) == ["4+2+2", "4~+2+2"]
        # overlined values closer than k exclude each other
        assert strings_of([3, 1], 3) == ["3+1", "3~+1", "3+1~"]
        assert strings_of([], 4) == ["0"]


class TestDkEntryPointsRejectSmallK:
    @pytest.mark.parametrize("call", [
        lambda: count_Dk_table(5, 1),
        lambda: count_Dk_table(-1, 0),
        lambda: d_witnesses(1, 5, 1),
        lambda: d_strings(4, 1),
        lambda: specialize_overpartition(Overpartition(()), 0, 1),
        lambda: is_Dk_admissible(Overpartition(()), 1),
    ], ids=["table", "empty-table", "witnesses", "masks", "objects", "rule"])
    def test_value_error(self, call):
        with pytest.raises(ValueError, match="k must be at least 2"):
            call()


def count_Dk(m, n, k):
    return len(d_witnesses(m, n, k))


class TestCountDk:
    def test_no_overlines_gives_unrestricted_partitions(self):
        for k in range(2, 6):
            assert count_Dk(0, 4, k) == 5

    def test_zero_when_n_below_m(self):
        assert count_Dk(3, 2, 2) == 0
        assert count_Dk(1, 0, 4) == 0

    def test_frozen_row_vs_product(self):
        # coefficient of a^1 q^n in (-aq;q^2)_inf/(q;q)_inf, series oracle
        expected = [0, 1, 1, 3, 4, 8, 11, 19, 26]
        assert [count_Dk(1, n, 2) for n in range(9)] == expected
        product = theorem_product(2, 8)
        assert [product.coefficient(1, n) for n in range(9)] == expected

    @pytest.mark.parametrize("k", range(2, 7))
    def test_table_equals_filter(self, k):
        assert count_Dk_table(14, k) == filter_Dk_table(14, k, 14)
        assert count_Dk_table(14, k, 2) == filter_Dk_table(14, k, 2)

    def test_witnesses_equal_filter(self):
        for k in (2, 3, 5):
            for n in range(13):
                for m in range(4):
                    expected = [o for o in filter_admissible(n, k) if o.overline_count == m]
                    assert d_witnesses(m, n, k) == expected, (m, n, k)

    def test_table_vs_product_k_grid(self):
        for k in (2, 3, 5):
            product = theorem_product(k, 10)
            table = count_Dk_table(10, k, product.a_order)
            for m in range(product.a_order + 1):
                for n in range(11):
                    assert table[m][n] == product.coefficient(m, n), (k, m, n)


class TestBoundedCounters:
    def test_j0(self):
        assert count_rj(0, 0, 0, 2) == 1
        assert count_pj(0, 0, 0, 2) == 1
        assert count_rj(0, 3, 0, 2) == 0
        assert count_rj(1, 1, 0, 2) == 0

    def test_small_j_reduces_to_bounded_partitions(self):
        # for 0 <= j < k every overline is forbidden: R_j = 1/(q;q)_j
        for k in (3, 4):
            for j in range(k):
                for n in range(10):
                    assert count_rj(0, n, j, k) == sum(
                        1 for parts in enumerate_partitions(n) if not parts or parts[0] <= j
                    )
                    assert count_rj(1, n, j, k) == 0

    def test_pj_dominates_rj(self):
        for n in range(8):
            for m in range(3):
                for j in range(7):
                    assert count_pj(m, n, j, 2) >= count_rj(m, n, j, 2)

    def test_inactive_bound_matches_Dk(self):
        for n in range(7):
            for m in range(3):
                assert count_pj(m, n, n + 1, 3) == count_Dk(m, n, 3)

    def test_stabilization(self):
        # both counters equal D_k once j >= n + k
        for k in (2, 3):
            for n in range(7):
                for m in range(3):
                    d = count_Dk(m, n, k)
                    assert count_pj(m, n, n + k, k) == d
                    assert count_rj(m, n, n + k, k) == d

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_tables_match_per_cell_filter(self, k):
        r, p = sweep_tables(12, 12, k, 12)
        for n in range(13):
            assert (r[n], p[n]) == filter_bounded(n, 12, k, 12), n

    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("m_max", [2, 14])
    def test_every_weight_matches_single_weight_tables(self, k, m_max):
        r, p = sweep_tables(14, 8, k, m_max)
        assert len(r) == len(p) == 15
        for n in range(15):
            assert (r[n], p[n]) == filter_bounded(n, 8, k, m_max), n

    @pytest.mark.parametrize("n_max, j_max, k, m_max", [
        (14, 5, 2, max_overline_count(2, 14)),
        (10, 15, 3, 10),
        (16, 16, 2, max_overline_count(2, 16) - 1),
        (16, 12, 4, max_overline_count(4, 16) - 1),
        (5, 7, 7, 5),
        (6, 3, 9, 0),
    ], ids=["j-below-n", "j-above-n", "m-below-k2", "m-below-k4", "k-above-n", "k-above-n-m0"])
    def test_tables_match_per_partition_oracle(self, n_max, j_max, k, m_max):
        r, p = sweep_tables(n_max, j_max, k, m_max)
        for n in range(n_max + 1):
            assert (r[n], p[n]) == filter_bounded(n, j_max, k, m_max), n

    def test_negative_m_counts_nothing(self):
        assert count_pj(-1, 4, 4, 2) == 0
        assert count_rj(-1, 4, 4, 2) == 0

    def test_frozen_r6_table(self):
        expected = [
            [1, 1, 2, 3, 5, 7],
            [0, 1, 1, 3, 4, 8],
            [0, 0, 0, 0, 1, 1],
        ]
        assert [[count_rj(m, n, 6, 2) for n in range(6)] for m in range(3)] == expected


class TestSpecialization:
    def test_empty(self):
        assert specialize_overpartition(Overpartition(()), 0, 2) == ()

    def test_direct_map(self):
        o = Overpartition(((3, 1, True), (2, 1, False)))
        assert specialize_overpartition(o, 0, 2) == (5, 4)
        assert specialize_overpartition(o, 1, 2) == (7, 4)

    def test_weight_relation(self):
        for o in enumerate_overpartitions(9):
            for k in (2, 3):
                if not is_Dk_admissible(o, k):
                    continue
                for i in range(k):
                    image = specialize_overpartition(o, i, k)
                    assert sum(image) == 2 * o.weight + (2 * i - 1) * o.overline_count

    def test_parity_separation(self):
        for o in enumerate_overpartitions(8):
            if not is_Dk_admissible(o, 2):
                continue
            image = specialize_overpartition(o, 1, 2)
            odd = sum(1 for p in image if p % 2)
            assert odd == o.overline_count

    def test_rejects_inadmissible(self):
        o = Overpartition(((2, 1, True), (1, 1, True)))
        with pytest.raises(ValueError):
            specialize_overpartition(o, 0, 2)

    def _images_by_weight(self, k, i, w_max):
        images = {}
        for w in range(w_max + 1):
            for o in enumerate_overpartitions(w):
                if is_Dk_admissible(o, k):
                    img = specialize_overpartition(o, i, k)
                    assert img not in images, f"not injective at {img}"
                    images[img] = o
        return images

    @pytest.mark.parametrize("k,i", [(2, 0), (2, 1), (3, 0), (3, 1), (3, 2)])
    def test_injective_and_image_characterization(self, k, i):
        images = self._images_by_weight(k, i, 12)
        for n in range(13):
            got = {img for img in images if sum(img) == n}
            expected = set(c_witnesses(n, k, i, "corollary"))
            assert got == expected, (k, i, n)
