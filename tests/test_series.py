"""Series-core tests: kernels, arithmetic, Pochhammer products, specialization."""

import random
from operator import add, sub

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qident import series
from qident.series import (
    BivariateSeries,
    Monomial,
    QSeries,
    euler_product,
    pochhammer_inf,
    specialize,
)

ORDER = 8

small_qseries = st.lists(st.integers(-9, 9), min_size=ORDER + 1, max_size=ORDER + 1).map(
    lambda c: QSeries(tuple(c))
)

unit_qseries = st.tuples(
    st.sampled_from([1, -1]),
    st.lists(st.integers(-9, 9), min_size=ORDER, max_size=ORDER),
).map(lambda t: QSeries((t[0],) + tuple(t[1])))

small_bivar = st.lists(
    st.lists(st.integers(-5, 5), min_size=5, max_size=5), min_size=3, max_size=3
).map(lambda rows: BivariateSeries(tuple(tuple(r) for r in rows)))


# series of every (a, q) order up to 3 x 9, so sums and differences mix orders
mixed_qseries = st.lists(st.integers(-9, 9), min_size=1, max_size=10).map(
    lambda c: QSeries(tuple(c))
)

mixed_bivar = st.integers(1, 10).flatmap(
    lambda width: st.lists(
        st.lists(st.integers(-5, 5), min_size=width, max_size=width).map(tuple),
        min_size=1, max_size=4,
    )
).map(lambda rows: BivariateSeries(tuple(rows)))


def termwise_by_index(op, rows1, rows2):
    """Sum or difference as the series methods wrote it before _termwise:
    an index loop up to the smaller a-order and the smaller q-order."""
    a = min(len(rows1), len(rows2)) - 1
    q = min(len(rows1[0]), len(rows2[0])) - 1
    return tuple(tuple(op(rows1[m][n], rows2[m][n]) for n in range(q + 1)) for m in range(a + 1))


SPARSE_BIVAR = BivariateSeries.from_dict({(0, 0): 1, (1, 2): -3, (2, 4): 5}, 2, 4)


def pentagonal_series(order):
    """Independent oracle: sum over j in Z of (-1)^j q^{j(3j-1)/2}."""
    c = [0] * (order + 1)
    j = 0
    while True:
        hit = False
        for jj in (j, -j) if j else (0,):
            e = jj * (3 * jj - 1) // 2
            if e <= order:
                c[e] += (-1) ** (jj % 2)
                hit = True
        if not hit:
            break
        j += 1
    return tuple(c)


def naive_conv(c1, c2, order):
    out = [0] * (order + 1)
    for i, a in enumerate(c1):
        for j, b in enumerate(c2):
            if i + j <= order:
                out[i + j] += a * b
    return out


def naive_bivar(rows1, rows2, a_order, q_order):
    out = [[0] * (q_order + 1) for _ in range(a_order + 1)]
    for i, row_i in enumerate(rows1):
        for j, row_j in enumerate(rows2):
            if i + j <= a_order:
                for p, a in enumerate(row_i):
                    for s, b in enumerate(row_j):
                        if p + s <= q_order:
                            out[i + j][p + s] += a * b
    return out


def invert_unit_by_scalar_loop(c):
    """The inverse as invert_unit computed it before skipping zero
    coefficients: every t[d] sums over every i = 1..d."""
    n = len(c) - 1
    t = [0] * (n + 1)
    t[0] = c[0]
    for d in range(1, n + 1):
        s = 0
        for i in range(1, d + 1):
            if c[i]:
                s += c[i] * t[d - i]
        t[d] = -c[0] * s
    return tuple(t)


def divide_row_by_scalar_loop(row, unit):
    """row divided by unit one coefficient at a time, over every i = 1..d,
    from q^0 on."""
    t = [0] * len(row)
    for d in range(len(row)):
        t[d] = unit[0] * (row[d] - sum(unit[i] * t[d - i] for i in range(1, d + 1)))
    return t


def mul_binomial_by_scalar_loop(coeffs, a_exp, q_exp, sign):
    """1 + sign a^{a_exp} q^{q_exp} times coeffs, one coefficient at a time,
    as mul_binomial did before it added whole rows."""
    rows = [list(r) for r in coeffs]
    for m in range(len(rows) - 1, a_exp - 1, -1):
        src = coeffs[m - a_exp]
        for n in range(len(rows[m]) - 1, q_exp - 1, -1):
            if src[n - q_exp]:
                rows[m][n] += sign * src[n - q_exp]
    return tuple(tuple(r) for r in rows)


def random_coeffs(rng, length, bits=80):
    # large values exercise the arbitrary-precision path
    return [rng.randint(-(1 << bits), 1 << bits) for _ in range(length)]


class TestKernels:
    def test_small_products(self):
        assert series.conv_trunc([1, -1], [1, 1, 1, 1], 3) == [1, 0, 0, 0]
        assert series.bivar_mul([[1, 1]], [[1, 1]], 1, 2) == [[1, 2, 1], [0, 0, 0]]

    def test_products_look_kernels_up_in_module_globals(self, monkeypatch):
        # rebinding series.conv_trunc / series.bivar_mul must reach every product
        calls = []

        def counting(name, real):
            def wrapper(*args):
                calls.append(name)
                return real(*args)

            return wrapper

        for name in ("conv_trunc", "bivar_mul"):
            monkeypatch.setattr(series, name, counting(name, getattr(series, name)))
        q = QSeries((1, 1, 0, 0))
        b = BivariateSeries.one(1, 3)
        assert (q * q).coeffs == (1, 2, 1, 0)
        assert b * b == b
        assert b.mul_qseries(q).coeffs[0] == q.coeffs
        assert calls == ["conv_trunc", "bivar_mul", "bivar_mul"]

    def test_conv_trunc_matches_naive_product(self):
        rng = random.Random(7)
        for _ in range(25):
            c1 = random_coeffs(rng, rng.randint(1, 30))
            c2 = random_coeffs(rng, rng.randint(1, 30))
            order = rng.randint(0, 40)
            assert series.conv_trunc(c1, c2, order) == naive_conv(c1, c2, order)

    def test_bivar_mul_matches_naive_product(self):
        rng = random.Random(11)
        for _ in range(15):
            width = rng.randint(1, 20)
            m1 = [random_coeffs(rng, width) for _ in range(rng.randint(1, 6))]
            m2 = [random_coeffs(rng, width) for _ in range(rng.randint(1, 6))]
            a_order = rng.randint(0, 8)
            q_order = rng.randint(0, 25)
            assert series.bivar_mul(m1, m2, a_order, q_order) == naive_bivar(
                m1, m2, a_order, q_order
            )


class TestQSeries:
    def test_additive_identity(self):
        one = QSeries((1, 0, 0, 0, 0))
        assert (one + QSeries((0,) * 5)).coeffs == one.coeffs

    def test_coefficientwise_add(self):
        s = QSeries((1, 1, 0, 0)) + QSeries((0, 1, 0, 0))
        assert s.coeffs == (1, 2, 0, 0)

    def test_mul_identity(self):
        s = QSeries((3, -1, 2, 0, 0, 0))
        assert (s * QSeries((1, 0, 0, 0, 0, 0))).coeffs == s.coeffs

    def test_geometric_inverse(self):
        one_minus_q = QSeries((1, -1) + (0,) * 9)
        geo = one_minus_q.invert_unit()
        assert geo.coeffs == (1,) * 11
        assert (one_minus_q * geo).coeffs == (1,) + (0,) * 10

    def test_invert_identity(self):
        assert QSeries((1,) + (0,) * 6).invert_unit().coeffs == (1,) + (0,) * 6

    def test_invert_rejects_non_unit(self):
        with pytest.raises(ValueError):
            QSeries((2, 1, 0, 0, 0)).invert_unit()
        with pytest.raises(ValueError):
            QSeries((0,) * 5).invert_unit()

    def test_inverse_counts_bounded_partitions(self):
        # coefficient of q^n in 1/((1-q)(1-q^2)) counts partitions into parts <= 2
        inv = (QSeries((1, -1) + (0,) * 9) * QSeries((1, 0, -1) + (0,) * 8)).invert_unit()
        assert inv.coeffs == (1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6)

    # exponents up to, at, and past the order, up to twice the order and beyond
    @pytest.mark.parametrize("exp", [0, 2, 3, 4, 5, 6, 9])
    def test_shift(self, exp):
        s = QSeries((1, 2, 3, 4))
        assert s.shift(exp) == QSeries(((0,) * exp + (1, 2, 3, 4))[:4])

    def test_mixed_order_truncates_to_min(self):
        a = QSeries((1,) + (0,) * 10)
        b = QSeries((1,) + (0,) * 4)
        assert (a + b).order == 4
        assert (a * b).order == 4

    @given(small_qseries, small_qseries, small_qseries)
    @settings(max_examples=60, deadline=None)
    def test_ring_axioms(self, a, b, c):
        assert (a + b).coeffs == (b + a).coeffs
        assert ((a + b) + c).coeffs == (a + (b + c)).coeffs
        assert (a * b).coeffs == (b * a).coeffs
        assert ((a * b) * c).coeffs == (a * (b * c)).coeffs
        assert (a * (b + c)).coeffs == (a * b + a * c).coeffs

    @given(mixed_qseries, mixed_qseries)
    @settings(max_examples=100, deadline=None)
    def test_sum_and_difference_match_index_loop(self, s, t):
        assert (s + t).coeffs == termwise_by_index(add, [s.coeffs], [t.coeffs])[0]
        assert (s - t).coeffs == termwise_by_index(sub, [s.coeffs], [t.coeffs])[0]

    @given(unit_qseries)
    @settings(max_examples=100, deadline=None)
    def test_invert_roundtrip(self, s):
        assert (s * s.invert_unit()).coeffs == (1,) + (0,) * ORDER

    # dense tails draw every coefficient, sparse ones are mostly zero
    @given(st.sampled_from([1, -1]),
           st.lists(st.integers(-9, 9), max_size=40)
           | st.lists(st.sampled_from((0,) * 8 + (1, -1, 5)), max_size=40))
    @example(-1, [])
    @example(-1, [0] * 12 + [3])
    @example(1, list(euler_product(40).coeffs[1:]))
    @settings(max_examples=100, deadline=None)
    def test_invert_matches_scalar_loop(self, eps, tail):
        c = (eps, *tail)
        assert QSeries(c).invert_unit().coeffs == invert_unit_by_scalar_loop(c)

    # rows of several lengths with up to a dozen leading zeros, so each
    # starts late and at its own place, divided by units whose coefficients
    # repeat values other than +-1 as well as +-1, one row per call
    @given(st.sampled_from([1, -1]),
           st.lists(st.sampled_from([0, 0, 1, -1, 2, -3, 7]), max_size=30),
           st.lists(st.tuples(st.integers(0, 12), st.lists(st.integers(-9, 9), max_size=20)),
                    min_size=1, max_size=4))
    @example(1, list(euler_product(30).coeffs[1:]), [(0, [1]), (5, [1, 2]), (31, [])])
    @example(-1, [2, 2, -3, 0, -3], [(1, [4, 0, -1])])
    @settings(max_examples=100, deadline=None)
    def test_divide_matches_scalar_loop(self, eps, tail, rows):
        unit = (eps, *tail)
        rows = [([0] * zeros + body)[: len(unit)] for zeros, body in rows]
        for row in rows:
            assert series._divide(row, unit) == divide_row_by_scalar_loop(row, unit)


class TestBivariateSeries:
    def test_mul_identity(self):
        s = BivariateSeries.from_dict({(0, 0): 1, (1, 2): 3}, 2, 4)
        assert s * BivariateSeries.one(2, 4) == s

    def test_two_factor_expansion(self):
        # (1 + aq)(1 + aq^3) = 1 + aq + aq^3 + a^2 q^4
        f1 = BivariateSeries.from_dict({(0, 0): 1, (1, 1): 1}, 2, 4)
        f2 = BivariateSeries.from_dict({(0, 0): 1, (1, 3): 1}, 2, 4)
        expected = BivariateSeries.from_dict(
            {(0, 0): 1, (1, 1): 1, (1, 3): 1, (2, 4): 1}, 2, 4
        )
        assert f1 * f2 == expected

    def test_mul_binomial_matches_generic_mul(self):
        s = BivariateSeries.from_dict({(0, 0): 1, (1, 1): 2, (0, 3): -1}, 3, 6)
        binom = BivariateSeries.from_dict({(0, 0): 1, (1, 2): -1}, 3, 6)
        assert s.mul_binomial(Monomial(1, 2, -1)) == s * binom

    # small_bivar has a-order 2 and q-order 4; both exponents also run past them
    @given(small_bivar, st.integers(0, 3), st.integers(0, 6), st.sampled_from([1, -1]))
    @example(SPARSE_BIVAR, 0, 0, -1)
    @example(SPARSE_BIVAR, 1, 0, 1)
    @example(SPARSE_BIVAR, 1, 5, -1)
    @settings(max_examples=100, deadline=None)
    def test_mul_binomial_matches_scalar_loop(self, s, a_exp, q_exp, sign):
        got = s.mul_binomial(Monomial(a_exp, q_exp, sign))
        assert got.coeffs == mul_binomial_by_scalar_loop(s.coeffs, a_exp, q_exp, sign)

    @given(mixed_bivar, mixed_bivar)
    @settings(max_examples=100, deadline=None)
    def test_sum_and_difference_match_index_loop(self, s, t):
        assert (s + t).coeffs == termwise_by_index(add, s.coeffs, t.coeffs)
        assert (s - t).coeffs == termwise_by_index(sub, s.coeffs, t.coeffs)

    @given(small_bivar, small_bivar)
    @settings(max_examples=40, deadline=None)
    def test_mul_commutes(self, a, b):
        assert a * b == b * a

    @pytest.mark.parametrize("a_exp, q_exp", [(0, 0), (1, 2), (0, 5), (0, 6), (2, 1), (3, 0)])
    def test_shift(self, a_exp, q_exp):
        s = BivariateSeries.from_dict({(0, 0): 1, (1, 2): 3, (0, 3): 2, (2, 1): -1}, 2, 3)
        expected = BivariateSeries.from_dict(
            {(m + a_exp, n + q_exp): s.coefficient(m, n) for m in range(3) for n in range(4)}, 2, 3
        )
        assert s.shift(a_exp, q_exp) == expected

    def test_first_difference_scans_a_degree_first(self):
        s = BivariateSeries.from_dict({(0, 0): 1}, 2, 4)
        t = BivariateSeries.from_dict({(0, 0): 1, (1, 3): 1, (2, 1): 1}, 2, 4)
        assert s.first_difference(s) is None
        assert s.first_difference(t) == (1, 3)

    @pytest.mark.parametrize("orders", [(1, 4), (2, 3)])
    def test_first_difference_rejects_other_orders(self, orders):
        with pytest.raises(ValueError, match="cannot compare"):
            BivariateSeries(((0,) * 5,) * 3).first_difference(BivariateSeries.from_dict({}, *orders))

    def test_to_qseries_rejects_marked_terms(self):
        s = BivariateSeries.from_dict({(1, 1): 1}, 2, 3)
        with pytest.raises(ValueError):
            s.to_qseries()


class TestPochhammer:
    def test_euler_function_matches_pentagonal_oracle(self):
        assert euler_product(200).coeffs == pentagonal_series(200)

    @pytest.mark.parametrize("order", [0, 1, 2, 5, 200])
    def test_euler_function_matches_factor_by_factor_product(self, order):
        # euler_product writes the pentagonal theorem's terms; the product of
        # the binomials (1 - q^j) is the oracle that does not assume it
        product = pochhammer_inf(Monomial(0, 1, -1), 1, order).to_qseries()
        assert euler_product(order) == product

    def test_overline_product_step2(self):
        # (1+aq)(1+aq^3)(1+aq^5)... at low order
        s = pochhammer_inf(Monomial(1, 1, 1), 2, 6, 2)
        expected = BivariateSeries.from_dict(
            {(0, 0): 1, (1, 1): 1, (1, 3): 1, (1, 5): 1, (2, 4): 1, (2, 6): 1}, 2, 6
        )
        assert s == expected

    def test_q_order_zero_is_one(self):
        assert pochhammer_inf(Monomial(1, 1, 1), 2, 0, 1) == BivariateSeries.one(1, 0)

    def test_rejects_nonpositive_exponent(self):
        with pytest.raises(ValueError):
            pochhammer_inf(Monomial(0, 0, -1), 1, 5)


def termwise_specialize(s, t, e, out_order):
    """Oracle: a^m q^n lands at q^{t*n + m*e}; None if a term lands below q^0."""
    landed = {}
    for m in range(s.a_order + 1):
        for n in range(s.q_order + 1):
            c = s.coefficient(m, n)
            if c:
                d = t * n + m * e
                if d < 0:
                    return None
                landed[d] = landed.get(d, 0) + c
    return tuple(landed.get(d, 0) for d in range(out_order + 1))


class TestSpecialization:
    def test_substitute_monomial(self):
        s = BivariateSeries.from_dict({(0, 0): 1, (0, 1): 1}, 0, 1)
        out = specialize(s, 2, 0)
        assert out.order == 2
        assert out.coeffs == (1, 0, 1)

    def test_substitute_euler(self):
        e = specialize(BivariateSeries((euler_product(10).coeffs,)), 2, 0)
        direct = pochhammer_inf(Monomial(0, 2, -1), 2, 20)
        assert e == direct.to_qseries()

    def test_specialize_single_term(self):
        s = BivariateSeries.from_dict({(1, 2): 1}, 1, 2)
        assert specialize(s, 1, -1).coeffs == (0, 1, 0)
        assert specialize(s, 1, 1, out_order=3).coeffs == (0, 0, 0, 1)

    def test_specialize_rejects_negative_out_order(self):
        with pytest.raises(ValueError, match="out_order"):
            specialize(BivariateSeries.one(0, 3), 1, 0, out_order=-1)

    def test_specialize_rejects_negative_landing(self):
        s = BivariateSeries.from_dict({(2, 1): 1}, 2, 1)
        with pytest.raises(ValueError):
            specialize(s, 1, -1)

    @given(small_bivar, st.integers(1, 3), st.integers(-2, 3), st.none() | st.integers(0, 20))
    @settings(max_examples=60, deadline=None)
    def test_specialize_matches_termwise_oracle(self, s, t, e, out_order):
        expected = termwise_specialize(s, t, e, t * s.q_order if out_order is None else out_order)
        if expected is None:
            with pytest.raises(ValueError):
                specialize(s, t, e, out_order)
        else:
            assert specialize(s, t, e, out_order).coeffs == expected
