"""The recursion, functional equation, closed product, and formal limit."""

import pytest

from qident.appell import (
    StabilizationError,
    appell_limit,
    build_R,
    check_functional_equation,
    closed_product_F_coefficients,
    congruence_product_series,
    geometric_inverse,
    initial_R,
    max_overline_count,
    pj_series,
    RSequence,
    theorem_product,
)
from qident.overpartitions import count_Dk, count_pj, count_rj
from qident.series import BivariateSeries, specialize


class TestBuildR:
    def test_r0_is_one(self):
        rs = build_R(2, 0, 8, 3)
        assert rs.terms[0] == BivariateSeries.one(3, 8)

    def test_r1_is_geometric(self):
        rs = build_R(2, 1, 8, 3)
        expected = BivariateSeries.from_qseries(geometric_inverse(1, 8), 3)
        assert rs.terms[1] == expected

    def test_initial_conditions_agree(self):
        # recursion from R_0=1 (zeros below) vs the closed form 1/(q;q)_j
        for k in range(2, 7):
            rs = build_R(k, k - 1, 12, 3)
            for j in range(k):
                assert rs.terms[j] == initial_R(k, j, 12, 3), (k, j)

    def test_terms_match_bounded_enumeration(self):
        rs = build_R(2, 6, 12, 3)
        for m in range(3):
            for n in range(10):
                assert rs.terms[6].coefficient(m, n) == count_rj(m, n, 6, 2)

    @pytest.mark.parametrize("k", [2, 3])
    def test_consecutive_stabilization(self, k):
        # the corrections carry q^j (a-degree 0) and a q^{j-k+1}, so consecutive
        # terms agree below degree j at a-degree 0 and below j-k+1 in general
        rs = build_R(k, 10, 8)
        for j in range(1, 11):
            for d in range(min(j - 1, 8) + 1):
                assert rs.terms[j].coefficient(0, d) == rs.terms[j - 1].coefficient(0, d)
            for d in range(min(j - k, 8) + 1):
                for m in range(rs.a_order + 1):
                    assert rs.terms[j].coefficient(m, d) == rs.terms[j - 1].coefficient(m, d)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            build_R(1, 5, 8)
        with pytest.raises(ValueError):
            build_R(2, -1, 8)


class TestFunctionalEquation:
    def test_holds_for_recursion_output(self):
        for k in (2, 3):
            rs = build_R(k, 20, 16)
            assert check_functional_equation(rs).ok

    def test_large_k2_case(self):
        rs = build_R(2, 40, 40, 6)
        assert check_functional_equation(rs).ok

    def test_mutation_gives_witness(self):
        rs = build_R(2, 8, 8, 2)
        rows = [list(r) for r in rs.terms[4].coeffs]
        rows[0][3] += 1
        mutated = list(rs.terms)
        mutated[4] = BivariateSeries(tuple(tuple(r) for r in rows))
        broken = RSequence(rs.k, rs.q_order, rs.a_order, mutated)
        result = check_functional_equation(broken)
        assert not result.ok
        assert result.witness == (4, 0, 3)


class TestClosedProduct:
    def test_x0_coefficient_is_one(self):
        assert closed_product_F_coefficients(2, 0, 8, 2)[0] == BivariateSeries.one(2, 8)

    def test_x1_coefficient_is_geometric(self):
        coeff = closed_product_F_coefficients(2, 1, 8, 2)[1]
        assert coeff == BivariateSeries.from_qseries(geometric_inverse(1, 8), 2)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_matches_recursion(self, k):
        q_order = 15
        rs = build_R(k, 10, q_order)
        xc = closed_product_F_coefficients(k, 10, q_order, rs.a_order)
        for j in range(11):
            assert xc[j] == rs.terms[j], (k, j)


class TestAppellLimit:
    def test_constant_sequence(self):
        s = BivariateSeries.from_dict({(0, 0): 2, (1, 3): 1}, 2, 4)
        rs = RSequence(2, 4, 2, [s] * 8)
        lim = appell_limit(rs)
        assert lim.limit == s
        assert all(v == 0 for v in lim.stabilization_index.values())

    def test_limit_is_theorem_product(self):
        rs = build_R(2, 45, 40)
        lim = appell_limit(rs)
        assert lim.limit == theorem_product(2, 40, rs.a_order)

    def test_stabilization_index_bound(self):
        # empirical bound: coefficient of q^d settles by j = d + k - 1
        for k in (2, 3, 4):
            rs = build_R(k, 30 + k, 24)
            lim = appell_limit(rs)
            for d, idx in lim.stabilization_index.items():
                assert idx <= d + k - 1, (k, d, idx)

    def test_requires_enough_terms(self):
        rs = build_R(3, 10, 12)
        with pytest.raises(StabilizationError):
            appell_limit(rs)

    def test_detects_unstabilized_sequence(self):
        terms = [BivariateSeries.from_dict({(0, 0): j}, 1, 2) for j in range(8)]
        rs = RSequence(2, 2, 1, terms)
        with pytest.raises(StabilizationError) as exc:
            appell_limit(rs)
        assert exc.value.witness == (0, 0)


class TestPjSeries:
    def test_matches_enumeration(self):
        for k in (2, 3):
            rs = build_R(k, 8, 10)
            for j in range(9):
                pj = pj_series(rs, j)
                for m in range(min(3, rs.a_order) + 1):
                    for n in range(11):
                        assert pj.coefficient(m, n) == count_pj(m, n, j, k), (k, j, m, n)


class TestCongruenceProduct:
    def test_constant_term(self):
        assert congruence_product_series(3, 1, 10).coefficient(0) == 1

    def test_worked_example(self):
        assert congruence_product_series(2, 0, 12).coefficient(10) == 10

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_specialization_route(self, k):
        # specializing (a, q) -> (q^{2i-1}, q^2) in the overpartition product
        # must reproduce the congruence product for every i
        N = 30
        product = theorem_product(k, N)
        for i in range(k):
            via_specialization = specialize(product, 2, 2 * i - 1, out_order=N)
            direct = congruence_product_series(k, i, N)
            assert via_specialization.coeffs == direct.coeffs, (k, i)


class TestTheoremProduct:
    def test_closes_the_loop_with_enumeration(self):
        for k in (2, 4):
            product = theorem_product(k, 12)
            for m in range(product.a_order + 1):
                for n in range(13):
                    assert product.coefficient(m, n) == count_Dk(m, n, k)

    def test_max_overline_count(self):
        assert max_overline_count(2, 0) == 0
        assert max_overline_count(2, 1) == 1
        # 1 + 3 = 4 <= 4 admits two overlines at k=2
        assert max_overline_count(2, 4) == 2
        for k in (2, 3):
            for q in (5, 17, 40):
                m = max_overline_count(k, q)
                assert m + k * m * (m - 1) // 2 <= q
                assert (m + 1) + k * m * (m + 1) // 2 > q
