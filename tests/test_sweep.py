"""The transfer-matrix sweep: its packed rows against a list-row oracle, and
each side's moves against enumeration at small n and against the products at
series range."""

from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qident import appell
from qident.overpartitions import (
    _dk_moves, count_Dk_table, count_pj, count_rj, d_witnesses, dk_sweep,
)
from qident.packed import read_rows, whole_bytes
from qident.partitions import (
    ANY,
    ONE,
    OVER,
    SKIP,
    _add_part,
    count_B_table,
    count_C_table,
    count_schur_gap_table,
    count_schur_product_table,
    enumerate_partitions,
    final_states,
    satisfies_corollary,
    state_total,
    sweep,
)

from test_overpartitions import filter_bounded

CELLS = [(k, i) for k in range(2, 6) for i in range(k)]
KINDS = (SKIP, ANY, ONE, OVER)


def list_sweep(n_max, start, moves, v_max=None, a_order=0, sizes=lambda v: (v, v)):
    """The oracle: the sweep on list rows, {state: rows} before the first
    value and after each one, rows[m][n] the counts.  Each move multiplies
    a copy of its source's rows by its kind's generating function on its
    own (_moved), at the part sizes sizes(v), and a target sums the moves
    that reach it."""
    zero = [0] * (n_max + 1)
    states = {start: [[1] + zero[1:]] + [zero] * a_order}
    yield states
    for v in range(1, (n_max if v_max is None else v_max) + 1):
        reached = {}
        for state, rows in states.items():
            for kind, target in moves(v, state):
                moved = _moved(kind, rows, sizes(v), zero)
                old = reached.get(target)
                reached[target] = moved if old is None else [
                    list(map(add, a, b)) for a, b in zip(old, moved)
                ]
        states = reached
        yield states


def _moved(kind, rows, sizes, zero):
    """rows times the generating function of one kind of move, as new rows,
    with sizes = (p, o) the weights of a plain copy and of a single one: ANY
    divides by 1 - q^p, ONE and OVER shift by q^o.  A skip returns rows
    itself."""
    if kind == SKIP:
        return rows
    plain, single = sizes
    if kind == OVER:
        rows = [zero] + rows[:-1]
    if kind != ANY:
        return [(zero[:single] + row)[: len(zero)] for row in rows]
    # a copy, so _add_part changes no shared row
    rows = [row.copy() for row in rows]
    for row in rows:
        _add_part(row, plain)
    return rows


def unpacked(states):
    """A packed snapshot as the oracle's: {state: rows[m][n]}."""
    return {state: read_rows(term) for state, term in states.items()}


@st.composite
def move_tables(draw):
    """(n_max, v_max, a_order, table, sizes): table[v, state] lists up to
    three moves of any kind, repeats allowed, among up to three states, and
    sizes is None (each copy of v weighs v) or sizes[v] the weights of a
    plain and of a single copy of v, each up to n_max + 2."""
    n_max = draw(st.integers(0, 30))
    v_max = draw(st.integers(0, n_max + 2))
    states = draw(st.integers(1, 3))
    move = st.tuples(st.sampled_from(KINDS), st.integers(0, states - 1))
    table = {(v, state): draw(st.lists(move, max_size=3))
             for v in range(1, v_max + 1) for state in range(states)}
    size = st.integers(1, n_max + 2)
    sizes = None if draw(st.booleans()) else {
        v: (draw(size), draw(size)) for v in range(1, v_max + 1)}
    return n_max, v_max, draw(st.integers(0, 3)), table, sizes


class TestKernel:
    def test_each_kind_of_move(self):
        # one state, one value v = 2 at weight <= 6 with a-rows 0..1: every
        # kind multiplies the empty object by its generating function, at
        # the default part sizes and with a plain copy of 2 weighing 3 and
        # a single one 5 (ANY divides by 1 - q^3, ONE and OVER shift by q^5)
        cases = {
            (2, 2): {
                SKIP: [[1, 0, 0, 0, 0, 0, 0], [0] * 7],
                ANY: [[1, 0, 1, 0, 1, 0, 1], [0] * 7],
                ONE: [[0, 0, 1, 0, 0, 0, 0], [0] * 7],
                OVER: [[0] * 7, [0, 0, 1, 0, 0, 0, 0]],
            },
            (3, 5): {
                SKIP: [[1, 0, 0, 0, 0, 0, 0], [0] * 7],
                ANY: [[1, 0, 0, 1, 0, 0, 1], [0] * 7],
                ONE: [[0, 0, 0, 0, 0, 1, 0], [0] * 7],
                OVER: [[0] * 7, [0, 0, 0, 0, 0, 1, 0]],
            },
        }
        for sizes, rows in cases.items():
            hook = {} if sizes == (2, 2) else {"sizes": lambda v: sizes if v == 2 else (v, v)}
            for kind, expected in rows.items():
                states = final_states(sweep(
                    6, "s", lambda v, s, kind=kind: [(kind if v == 2 else SKIP, s)], 8, 2, 1, **hook))
                assert unpacked(states) == {"s": expected}, (sizes, kind)
                assert (states["s"].width, states["s"].q_order) == (8, 6)

    def test_moves_into_one_state_are_summed(self):
        # distinct parts: each value skipped or taken once; 1 + q + q^2 + 2q^3 ...
        states = final_states(sweep(6, 0, lambda v, s: [(SKIP, 0), (ONE, 0)], 8))
        assert read_rows(state_total(states)) == [[1, 1, 1, 2, 2, 3, 4]]

    def test_yields_every_snapshot_unchanged(self):
        snapshots = list(sweep(5, 0, lambda v, s: [(ANY, 0)], 8))
        assert len(snapshots) == 6
        # after value j, the partitions into parts <= j; no snapshot is
        # changed by the values after it
        assert [unpacked(s)[0][0] for s in snapshots] == [
            [1, 0, 0, 0, 0, 0],
            [1, 1, 1, 1, 1, 1],
            [1, 1, 2, 2, 3, 3],
            [1, 1, 2, 3, 4, 5],
            [1, 1, 2, 3, 5, 6],
            [1, 1, 2, 3, 5, 7],
        ]

    def test_values_past_the_weight(self):
        # v_max above n_max adds nothing, and no move past the weight fails
        states = final_states(sweep(3, 0, lambda v, s: [(ANY, 0), (OVER, 0)], 8, 9, 1))
        assert unpacked(states)[0] == [[1, 1, 2, 3], [0, 1, 1, 3]]


class TestAgainstOracle:
    @given(move_tables())
    @settings(max_examples=150, deadline=None)
    def test_every_snapshot_equals_the_list_sweep(self, case):
        # random tables of every kind of move, at the default part sizes or
        # random ones; the slots are as wide as the oracle's largest count
        # needs, since a table's counts have no bound
        n_max, v_max, a_order, table, sizes = case
        moves = lambda v, state: table[v, state]
        hook = {} if sizes is None else {"sizes": sizes.__getitem__}
        expected = list(list_sweep(n_max, 0, moves, v_max, a_order, **hook))
        top = max(c for states in expected for rows in states.values() for row in rows for c in row)
        width = whole_bytes(top.bit_length())
        snapshots = list(sweep(n_max, 0, moves, width, v_max, a_order, **hook))
        assert [unpacked(states) for states in snapshots] == expected

    @pytest.mark.parametrize("k", [2, 5])
    def test_Dk_snapshots_equal_the_list_sweep(self, k):
        # the D_k table at series range, every a-row, after every value
        m_max = appell.max_overline_count(k, 80)
        expected = list_sweep(80, k, _dk_moves(k), None, m_max)
        for got, want in zip(dk_sweep(80, k, m_max), expected, strict=True):
            assert unpacked(got) == want


class TestAgainstEnumeration:
    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_Dk_table_equals_witness_lists(self, k):
        table = count_Dk_table(22, k, 6)
        for n in range(15, 23):
            for m in range(7):
                assert table[m][n] == len(d_witnesses(m, n, k)), (m, n)

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_single_sweeps_equal_filters(self, k):
        # count_pj and count_rj run one sweep to value j at weight n
        for n in range(10):
            r, p = filter_bounded(n, 7, k, 2)
            for j in range(8):
                for m in range(3):
                    assert count_pj(m, n, j, k) == p[j][m], (m, n, j)
                    assert count_rj(m, n, j, k) == r[j][m], (m, n, j)

    def test_corollary_equals_definition(self):
        # one pass over the partitions of each n <= 22 filters every cell
        # by the whole-partition rule
        defined = {cell: [0] * 23 for cell in CELLS}
        for n in range(23):
            for parts in enumerate_partitions(n):
                for (k, i), counts in defined.items():
                    counts[n] += satisfies_corollary(parts, k, i)
        for (k, i), counts in defined.items():
            assert count_C_table(22, k, i) == counts, (k, i)


class TestAgainstProducts:
    @pytest.mark.parametrize("k", [2, 5])
    def test_Dk_against_theorem_product(self, k):
        product = appell.theorem_product(k, 200, 8)
        assert count_Dk_table(200, k, 8) == [list(row) for row in product.coeffs]

    def test_corollary_against_B(self):
        for k, i in CELLS:
            assert count_C_table(300, k, i) == count_B_table(300, k, i), (k, i)

    def test_schur_against_product(self):
        assert count_schur_gap_table(300) == count_schur_product_table(300)

