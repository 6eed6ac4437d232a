"""The transfer-matrix sweep: its kernel, and each side's moves against
enumeration at small n and against the products at series range."""

import pytest

from qident import appell
from qident.overpartitions import count_Dk_table, count_pj, count_rj, d_witnesses
from qident.partitions import (
    ANY,
    ONE,
    OVER,
    SKIP,
    SOME,
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


class TestKernel:
    def test_each_kind_of_move(self):
        # one state, one value v = 2 at weight <= 6 with a-rows 0..1: every
        # kind multiplies the empty object by its generating function
        rows = {
            SKIP: [[1, 0, 0, 0, 0, 0, 0], [0] * 7],
            ANY: [[1, 0, 1, 0, 1, 0, 1], [0] * 7],
            SOME: [[0, 0, 1, 0, 1, 0, 1], [0] * 7],
            ONE: [[0, 0, 1, 0, 0, 0, 0], [0] * 7],
            OVER: [[0] * 7, [0, 0, 1, 0, 0, 0, 0]],
        }
        for kind, expected in rows.items():
            states = final_states(
                sweep(6, "s", lambda v, s, kind=kind: [(kind if v == 2 else SKIP, s)], 2, 1)
            )
            assert states == {"s": expected}, kind

    def test_moves_into_one_state_are_summed(self):
        # distinct parts: each value skipped or taken once; 1 + q + q^2 + 2q^3 ...
        states = final_states(sweep(6, 0, lambda v, s: [(SKIP, 0), (ONE, 0)]))
        assert state_total(states) == [[1, 1, 1, 2, 2, 3, 4]]

    def test_yields_every_snapshot_unchanged(self):
        snapshots = list(sweep(5, 0, lambda v, s: [(ANY, 0)]))
        assert len(snapshots) == 6
        # after value j, the partitions into parts <= j; no snapshot is
        # changed by the values after it
        assert [rows[0] for rows in (s[0] for s in snapshots)] == [
            [1, 0, 0, 0, 0, 0],
            [1, 1, 1, 1, 1, 1],
            [1, 1, 2, 2, 3, 3],
            [1, 1, 2, 3, 4, 5],
            [1, 1, 2, 3, 5, 6],
            [1, 1, 2, 3, 5, 7],
        ]

    def test_values_past_the_weight(self):
        # v_max above n_max adds nothing, and no move past the weight fails
        states = final_states(sweep(3, 0, lambda v, s: [(ANY, 0), (OVER, 0)], 9, 1))
        assert states[0] == [[1, 1, 2, 3], [0, 1, 1, 3]]


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

