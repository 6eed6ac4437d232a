"""The recursion, functional equation, closed product, and formal limit."""

import re
from functools import lru_cache
from operator import add

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qident import appell, packed
from qident.appell import (
    StabilizationError,
    appell_limit,
    build_R,
    check_functional_equation,
    closed_product_F_coefficients,
    congruence_product_series,
    functional_equation_step,
    least_weight,
    limit_step,
    max_overline_count,
    pj_series,
    RSequence,
    theorem_product,
    unpack,
)
from qident.overpartitions import count_pj, count_rj, d_witnesses, dk_sweep, overpartition_parts
from qident.packed import PackedTerm, SlotOverflowError, slot_width
from qident.series import (
    BivariateSeries, Monomial, QSeries, _divide, euler_product, pochhammer_inf, specialize,
)
from test_partitions import add_part
from test_series import divide_row_by_scalar_loop


# Oracles: the recursion as series arithmetic and on whole coefficient
# lists, which the D_k sweep's counts that build_R keeps must obey, the
# series-arithmetic formulation that closed_product_F_coefficients
# replaced with Euler's closed form, the closed form's rows built from scratch at
# each j and then as one running list per a-degree, which
# closed_product_F_coefficients replaced with packed running rows, and the
# factor-by-factor products that the expanded products must equal.


def geometric_inverse(j: int, q_order: int) -> QSeries:
    """1 / (1 - q^j) = 1 + q^j + q^{2j} + ..., truncated."""
    c = [0] * (q_order + 1)
    for e in range(0, q_order + 1, j):
        c[e] = 1
    return QSeries(tuple(c))


def build_R_by_convolution(k, j_max, q_order, a_order):
    """R_j = (R_{j-1} + a q^{j-k+1} R_{j-k}) * (1 / (1 - q^j)) as a series product."""
    terms = [BivariateSeries.one(a_order, q_order)]
    for j in range(1, j_max + 1):
        t = terms[j - 1]
        if j - k >= 0:
            t = t + terms[j - k].shift(1, j - k + 1)
        terms.append(t.mul_qseries(geometric_inverse(j, q_order)))
    return terms


def r_terms_full_rows(k, j_max, q_order, a_order):
    """R_0..R_{j_max} by the running sums on whole a-rows: every add and every
    division by (1 - q^j) runs from the row's first coefficient."""
    terms = [BivariateSeries.one(a_order, q_order)]
    for j in range(1, j_max + 1):
        rows = [list(r) for r in terms[j - 1].coeffs]
        if j >= k:
            for m in range(1, a_order + 1):
                row = rows[m]
                row[j - k + 1 :] = map(add, row[j - k + 1 :], terms[j - k].coeffs[m - 1])
        for row in rows:
            for n in range(j, q_order + 1):
                row[n] += row[n - j]
        terms.append(BivariateSeries(tuple(tuple(r) for r in rows)))
    return terms


def first_past_the_bound(terms, width, guard_bits):
    """(j, a-degree) of the first R_j among terms with a coefficient at or
    above 2^{width - guard_bits}, the a-degree the lowest row holding one,
    or None: where the sweep's guard read must trip, read off the values."""
    top = 1 << (width - guard_bits)
    for j, term in enumerate(terms):
        for m, row in enumerate(term.coeffs):
            if max(row) >= top:
                return j, m
    return None


def divide_each_row(rows, unit):
    """Each row divided by the q-series unit on its own, by test_series'
    one-term-at-a-time oracle for _divide."""
    return tuple(tuple(divide_row_by_scalar_loop(row, unit)) for row in rows)


def congruence_product_by_rows(k, i, q_order):
    """The corollary's product from its numerator factor by factor, each
    parity class divided by Euler's product on its own."""
    numer = pochhammer_inf(Monomial(0, 2 * i + 1, 1), 2 * k, q_order).coeffs[0]
    out = list(numer)
    out[::2], out[1::2] = divide_each_row([numer[::2], numer[1::2]], euler_product(q_order // 2).coeffs)
    return tuple(out)


@lru_cache(maxsize=None)
def even_partitions(q_order):
    """1/(q^2; q^2)_inf, one factor 1/(1 - q^p) at a time as running sums."""
    row = [1] + [0] * q_order
    for p in range(2, q_order + 1, 2):
        for s in range(p, q_order + 1):
            row[s] += row[s - p]
    return tuple(row)


def congruence_product_factor_by_factor(k, i, q_order):
    """The corollary's product as 1/(q^2; q^2)_inf times each numerator
    factor (1 + q^e) in turn: no packing and no division."""
    row = list(even_partitions(q_order))
    for e in range(2 * i + 1, q_order + 1, 2 * k):
        row[e:] = map(add, row[e:], row[: q_order + 1 - e])
    return tuple(row)


def closed_product_by_shifted_sums(k, j_top, q_order, a_order):
    """Each 1/(1 - x q^t) applied as the sum over s of x^s q^{ts} times a shifted copy."""
    zero = BivariateSeries.from_dict({}, a_order, q_order)
    xc = [BivariateSeries.one(a_order, q_order)] + [zero] * j_top
    t = 0
    while t * k + 1 <= q_order:
        new = list(xc)
        for d in range(k, j_top + 1):
            new[d] = xc[d] + xc[d - k].shift(1, t * k + 1)
        xc = new
        t += 1
    for t in range(0, q_order + 1):
        new = []
        for d in range(j_top + 1):
            acc = xc[d]
            for s in range(1, d + 1):
                if t * s > q_order:
                    break
                acc = acc + xc[d - s].shift(0, t * s)
            new.append(acc)
        xc = new
    return xc


def closed_product_from_scratch(k, j_top, q_order):
    """Euler's closed form with every row(j, d) built on its own list: the
    partitions into the parts k, 2k, ..., dk and 1, ..., j - kd, shifted by
    least_weight(k, d), zero when kd > j."""
    zero = (0,) * (q_order + 1)

    def row(j, d):
        if k * d > j:
            return zero
        shift = least_weight(k, d)
        ways = [1] + [0] * (q_order - shift)
        for p in [k * t for t in range(1, d + 1)] + list(range(1, j - k * d + 1)):
            add_part(ways, p)
        return (0,) * shift + tuple(ways)

    rows = range(max_overline_count(k, q_order) + 1)
    return [BivariateSeries(tuple(row(j, d) for d in rows)) for j in range(j_top + 1)]


def closed_product_by_running_lists(k, j_top, q_order):
    """Euler's closed form with one running list per a-degree d, by
    add_part's running sums: at j = kd it holds the parts k, ..., dk, and
    each later j adds the one part j - kd."""
    d_max = max_overline_count(k, q_order)
    # running[d] is row d from its q^{least_weight(k, d)} on, once j has reached kd
    running, out = [], []
    for j in range(j_top + 1):
        for d, ways in enumerate(running):
            add_part(ways, j - k * d)
        d = len(running)
        if d <= d_max and k * d == j:
            ways = [1] + [0] * (q_order - least_weight(k, d))
            for t in range(1, d + 1):
                add_part(ways, k * t)
            running.append(ways)
        rows = [(0,) * (q_order + 1 - len(ways)) + tuple(ways) for ways in running]
        out.append(BivariateSeries(tuple(rows + [(0,) * (q_order + 1)] * (d_max + 1 - len(rows)))))
    return out


def closed_product(k, j_top, q_order):
    """closed_product_F_coefficients' terms, unpacked."""
    return [unpack(term) for term in closed_product_F_coefficients(k, j_top, q_order)]


def packed_term(series: BivariateSeries, width: int) -> PackedTerm:
    """series with each a-row packed in `width`-bit slots, q^0 on top, as
    the sweep's terms are: the way a test builds a term by hand."""
    return PackedTerm(tuple(packed.pack_row(row, width) for row in series.coeffs),
                      width, series.q_order)


def functional_equation_by_series(rs):
    """check_functional_equation as built from BivariateSeries sums,
    differences and shifts, one new series per side and j."""
    terms = [unpack(t) for t in rs.terms]
    for j in range(1, rs.j_max + 1):
        lhs = terms[j] - terms[j - 1]
        rhs = terms[j].shift(0, j)
        if j - rs.k >= 0:
            rhs = rhs + terms[j - rs.k].shift(1, j - rs.k + 1)
        diff = lhs.first_difference(rhs)
        if diff is not None:
            return (j, *diff)
    return None


def stabilization_by_scalar_walk(rs):
    """index[d]: the least j from which the coefficient of q^d, at every
    a-degree, stays constant through j_max, walked one coefficient at a time."""
    terms = [packed.read_rows(t) for t in rs.terms]
    index = {}
    for d in range(rs.q_order + 1):
        idx = 0
        for m in range(rs.a_order + 1):
            final = terms[-1][m][d]
            j = rs.j_max
            while j > 0 and terms[j - 1][m][d] == final:
                j -= 1
            idx = max(idx, j)
        index[d] = idx
    return index


def perturbed(rs, j, m, n, delta):
    """rs with delta added to the coefficient of a^m q^n in R_j: to slot n
    of R_j's packed a^m row."""
    term = rs.terms[j]
    rows = list(term.rows)
    rows[m] += delta << term.width * (term.q_order - n)
    terms = list(rs.terms)
    terms[j] = term._replace(rows=tuple(rows))
    return RSequence(rs.k, rs.q_order, rs.a_order, terms)


def with_zero_rows(s: QSeries, a_order: int) -> BivariateSeries:
    """s as the a^0 row of a series with a-rows 0..a_order."""
    return BivariateSeries((s.coeffs,) + ((0,) * (s.order + 1),) * a_order)


def initial_R(j: int, q_order: int, a_order: int) -> BivariateSeries:
    """The closed form R_j = 1 / (q;q)_j, which holds for 0 <= j < k."""
    pochhammer = QSeries((1,) + (0,) * q_order)
    for m in range(1, j + 1):
        pochhammer = pochhammer * QSeries(tuple((d == 0) - (d == m) for d in range(q_order + 1)))
    return with_zero_rows(pochhammer.invert_unit(), a_order)


class TestRunningSumsMatchOracles:
    @given(st.integers(2, 5), st.integers(0, 30), st.integers(0, 36))
    @example(5, 20, 4)  # j_max below k: only the closed initial terms
    @example(3, 0, 2)
    @example(2, 30, 34)
    @settings(max_examples=80, deadline=None)
    def test_build_R(self, k, q_order, j_max):
        # build_R keeps the D_k sweep's packed state-k terms: the counted
        # objects obey the recursion
        rs = build_R(k, j_max, q_order)
        assert rs.a_order == max_overline_count(k, q_order)
        terms = [unpack(t) for t in rs.terms]
        assert terms == build_R_by_convolution(k, j_max, q_order, rs.a_order)
        assert terms == r_terms_full_rows(k, j_max, q_order, rs.a_order)

    @given(st.integers(2, 5), st.integers(0, 30), st.integers(0, 12))
    @example(4, 30, 2)  # j_top below k: no numerator factor reaches it
    @example(3, 30, 12)
    @example(2, 0, 12)
    @settings(max_examples=80, deadline=None)
    def test_closed_product(self, k, q_order, j_top):
        got = closed_product(k, j_top, q_order)
        want = closed_product_by_shifted_sums(k, j_top, q_order, max_overline_count(k, q_order))
        assert got == want
        # the rows above a-degree d // k, which are returned as zeros, are zero
        for d, coeff in enumerate(want):
            assert not any(map(any, coeff.coeffs[d // k + 1 :])), d


class TestLeastWeight:
    def test_least_weight_is_the_smallest_spread_parts(self):
        for k in (2, 3, 5):
            for m in range(6):
                for lo in (1, 2, 7):
                    assert least_weight(k, m, lo) == sum(lo + t * k for t in range(m))

    # a_order: the oracle's a-rows, at build_R's bound, none above a^0, one
    # row, and rows past the truncation.  build_R's rows, cut to the oracle's
    # or padded with zero rows, equal them: a lower a-order truncates each
    # term to its low rows, and every row above the bound is zero
    @pytest.mark.parametrize("a_order", [None, 0, 1, 30])
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_r_terms_match_full_rows(self, k, a_order):
        for q_order in range(61):
            terms = [unpack(t) for t in build_R(k, q_order + k, q_order).terms]
            rows = max_overline_count(k, q_order) if a_order is None else a_order
            zero_rows = ((0,) * (q_order + 1),) * rows
            want = r_terms_full_rows(k, q_order + k, q_order, rows)
            assert [(t.coeffs + zero_rows)[: rows + 1] for t in terms] == [
                w.coeffs for w in want], q_order
            for j, term in enumerate(terms):
                for m, row in enumerate(term.coeffs):
                    assert not any(row[: least_weight(k, m)]), (q_order, j, m)

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_theorem_product_matches_factor_by_factor(self, k):
        for q_order in range(61):
            for a_order in (None, 0, 1, 2, 3, 30):
                rows = max_overline_count(k, q_order) if a_order is None else a_order
                numer = pochhammer_inf(Monomial(1, 1, 1), k, q_order, rows)
                want = divide_each_row(numer.coeffs, euler_product(q_order).coeffs)
                assert theorem_product(k, q_order, a_order).coeffs == want, (q_order, a_order)


def overpartition_counts(n_max):
    """pbar(0..n_max), the coefficients of prod (1 + q^n) / (1 - q^n)."""
    c = [1] + [0] * n_max
    for n in range(1, n_max + 1):
        for t in range(n_max, n - 1, -1):
            c[t] += c[t - n]
        for t in range(n, n_max + 1):
            c[t] += c[t - n]
    return c


class TestPackedRows:
    def test_slot_width_covers_every_overpartition_count(self):
        # the proved bound leaves three guard bits above pbar(N) at every N
        def width(n):
            return slot_width(n, *overpartition_parts(n))

        assert [width(n) for n in (2, 10, 25, 45, 60, 200, 500)] == [16, 16, 24, 32, 40, 72, 104]
        for n, count in enumerate(overpartition_counts(600)):
            assert width(n) % 8 == 0
            assert count.bit_length() <= width(n) - 3, n

    @pytest.mark.parametrize("k", [2, 5])
    def test_largest_coefficient_has_three_guard_bits(self, k):
        *_, last = build_R(k, 500 + k, 500).terms
        top = max(max(row) for row in unpack(last).coeffs)
        assert top.bit_length() <= last.width - 3 == 101
        # R_{j_max} is settled: its a^0 row is p(n) at n = 500
        assert unpack(last).coefficient(0, 500) == 2300165032574323995027

    # counts at the slot's extremes, 0 and 2^{w-3} - 1, in the last slot,
    # n = q_order, and at a-degree 0, where a mask or bias one slot off would
    # show
    @given(st.integers(0, 3), st.integers(0, 12), st.sampled_from([8, 16, 48]), st.data())
    @example(0, 0, 8, None)
    @settings(max_examples=60, deadline=None)
    def test_pack_round_trip(self, a_order, q_order, width, data):
        top = 1 << (width - 3)
        if data is None:
            rows = ((top - 1,),)
        else:
            value = st.integers(0, top - 1) | st.sampled_from([0, 1, top - 1])
            rows = tuple(tuple(data.draw(st.lists(value, min_size=q_order + 1,
                                                  max_size=q_order + 1)))
                         for _ in range(a_order + 1))
        series = BivariateSeries(rows)
        term = packed_term(series, width)
        assert unpack(term) == series
        assert (term.width, term.q_order, len(term.rows)) == (width, q_order, a_order + 1)

    def test_guard_bits_trip_in_the_stream(self, monkeypatch):
        # 8-bit slots hold values below 2^5 = 32: R_2's a^0 row is at most
        # 31, at q^60, and R_3's passes 31 in its division by 1 - q^3
        monkeypatch.setattr(packed, "slot_width", lambda n, plain, distinct=(): 8)
        assert max(max(row) for row in unpack(build_R(2, 2, 60).terms[-1]).coeffs) == 31
        with pytest.raises(SlotOverflowError, match=r"D_2 sweep's a\^0 row .* 8-bit slots at v=3,"):
            build_R(2, 62, 60)

    # the guard is read once per value, after its doubling steps: for
    # G = packed.GUARD_BITS = 3, and for 2 and 4 guard bits, the sweep must
    # trip at the first R_j with a value at or past 2^{w-G}, name the lowest
    # a-row holding one, and yield every term before it exactly
    @pytest.mark.parametrize("k", [2, 3, 5])
    @pytest.mark.parametrize("width", [8, 16, 24])
    def test_guard_read_names_the_first_row_past_the_bound(self, monkeypatch, k, width):
        monkeypatch.setattr(packed, "slot_width", lambda n, plain, distinct=(): width)
        trips = dict.fromkeys((2, 3, 4), 0)
        for q_order in range(0, 121, 4):
            full = r_terms_full_rows(k, q_order + k, q_order, max_overline_count(k, q_order))
            for guard_bits in trips:
                monkeypatch.setattr(packed, "GUARD_BITS", guard_bits)
                want = first_past_the_bound(full, width, guard_bits)
                got, yielded = None, []
                try:
                    a_order = max_overline_count(k, q_order)
                    for states in dk_sweep(q_order, k, a_order, q_order + k):
                        yielded.append(unpack(states[k]))
                except SlotOverflowError as exc:
                    m, j = map(int, re.search(r"a\^(\d+) row .* at v=(\d+),", str(exc)).groups())
                    got = j, m
                assert got == want, (guard_bits, q_order)
                assert yielded == full[: want[0] if want else None], (guard_bits, q_order)
                trips[guard_bits] += got is not None
        assert min(trips.values()) >= 10, trips


class TestBuildR:
    def test_r0_is_one(self):
        rs = build_R(2, 0, 8)
        assert unpack(rs.terms[0]) == BivariateSeries.one(2, 8)

    def test_r1_is_geometric(self):
        rs = build_R(2, 1, 8)
        expected = with_zero_rows(geometric_inverse(1, 8), 2)
        assert unpack(rs.terms[1]) == expected

    def test_initial_conditions_agree(self):
        # recursion from R_0=1 (zeros below) vs the closed form 1/(q;q)_j
        for k in range(2, 7):
            rs = build_R(k, k - 1, 12)
            for j in range(k):
                assert unpack(rs.terms[j]) == initial_R(j, 12, rs.a_order), (k, j)

    def test_terms_match_bounded_enumeration(self):
        r6 = unpack(build_R(2, 6, 12).terms[6])
        for m in range(3):
            for n in range(10):
                assert r6.coefficient(m, n) == count_rj(m, n, 6, 2)

    @pytest.mark.parametrize("k", [2, 3])
    def test_consecutive_stabilization(self, k):
        # the corrections carry q^j (a-degree 0) and a q^{j-k+1}, so consecutive
        # terms agree below degree j at a-degree 0 and below j-k+1 in general
        rs = build_R(k, 10, 8)
        terms = [unpack(t) for t in rs.terms]
        for j in range(1, 11):
            for d in range(min(j - 1, 8) + 1):
                assert terms[j].coefficient(0, d) == terms[j - 1].coefficient(0, d)
            for d in range(min(j - k, 8) + 1):
                for m in range(rs.a_order + 1):
                    assert terms[j].coefficient(m, d) == terms[j - 1].coefficient(m, d)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            build_R(1, 5, 8)
        with pytest.raises(ValueError):
            build_R(2, -1, 8)


class TestFunctionalEquation:
    def test_holds_for_recursion_output(self):
        for k in (2, 3):
            rs = build_R(k, 20, 16)
            assert check_functional_equation(rs) is None
        # j from q_order + 2 up to k - 1: the right side is a shift of R_j alone
        assert check_functional_equation(build_R(5, 8, 2)) is None

    def test_large_k2_case(self):
        rs = build_R(2, 40, 40)
        assert check_functional_equation(rs) is None

    # the second case differs at two a-degrees; the lower one is reported
    # although its q-degree is the higher
    @pytest.mark.parametrize("cells, witness", [
        ([(0, 3)], (4, 0, 3)),
        ([(1, 5), (2, 1)], (4, 1, 5)),
    ], ids=["a-degree-0", "a-degree-1"])
    def test_mutation_gives_witness(self, cells, witness):
        broken = build_R(2, 8, 8)
        for m, n in cells:
            broken = perturbed(broken, 4, m, n, 1)
        assert check_functional_equation(broken) == witness

    # perturbations at a-degree 0, above it, and below q^j (n < j), where
    # q^j R_j adds nothing; out-of-range draws are clamped to the last index
    @given(st.integers(2, 4), st.integers(0, 14), st.integers(0, 6),
           st.integers(0, 20), st.integers(0, 6), st.integers(0, 14), st.sampled_from([1, -1, 5]))
    @example(2, 10, 2, 5, 0, 6, 1)
    @example(2, 10, 2, 5, 1, 7, 1)
    @example(3, 12, 3, 9, 2, 3, -1)
    @example(2, 10, 2, 0, 0, 0, 1)
    # the last slot, n = q_order, at a-degree 0 and above it, where a mask
    # one slot short would hide the cell
    @example(2, 10, 2, 5, 0, 10, 1)
    @example(2, 10, 2, 12, 0, 10, -1)
    @example(3, 14, 3, 9, 2, 14, 5)
    @example(2, 10, 2, 4, 1, 10, -1)
    @settings(max_examples=100, deadline=None)
    def test_matches_series_arithmetic(self, k, q_order, extra_j, j, m, n, delta):
        rs = build_R(k, q_order + extra_j, q_order)
        j, m, n = min(j, rs.j_max), min(m, rs.a_order), min(n, q_order)
        # a count is never negative, so no packed slot holds -1
        assume(unpack(rs.terms[j]).coefficient(m, n) + delta >= 0)
        rs = perturbed(rs, j, m, n, delta)
        witness = functional_equation_by_series(rs)
        assert witness is not None or rs.j_max == 0
        assert check_functional_equation(rs) == witness

    # the witness's q-degree read from the top slot, q^0, and the bottom
    # one, q^{q_order}, for either sign; R_6's a^1 row is zero at q^0, where
    # only a count of 1 can be put
    @pytest.mark.parametrize("j, m, n, delta", [
        (j, m, n, delta) for j, m, n in [(5, 0, 0), (6, 1, 0), (5, 0, 10), (12, 1, 10)]
        for delta in (1, -1) if (j, m, n, delta) != (6, 1, 0, -1)])
    def test_witness_at_the_end_slots(self, j, m, n, delta):
        rs = perturbed(build_R(2, 12, 10), j, m, n, delta)
        witness = functional_equation_by_series(rs)
        assert witness[2] in (0, 10)
        assert check_functional_equation(rs) == witness

    def test_step_reads_the_stream_terms(self):
        terms = build_R(3, 14, 10).terms
        for j in range(1, 15):
            low = terms[j - 3] if j >= 3 else None
            assert functional_equation_step(3, j, terms[j], terms[j - 1], low) is None
        # R_9's a^1 row bumped at q^0 and at q^10, packed with the sweep's width
        for n in (0, 10):
            rs = perturbed(RSequence(3, 10, 2, terms), 9, 1, n, 1)
            assert functional_equation_step(3, 9, rs.terms[9], terms[8], terms[6]) == (1, n)


class TestClosedProduct:
    def test_x0_coefficient_is_one(self):
        assert unpack(next(closed_product_F_coefficients(2, 0, 8))) == BivariateSeries.one(2, 8)

    def test_x1_coefficient_is_geometric(self):
        coeff = unpack(list(closed_product_F_coefficients(2, 1, 8))[1])
        assert coeff == with_zero_rows(geometric_inverse(1, 8), 2)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            closed_product_F_coefficients(1, 4, 8)
        with pytest.raises(ValueError):
            closed_product_F_coefficients(2, -1, 8)

    @pytest.mark.parametrize("k", range(2, 7))
    @pytest.mark.parametrize("q_order", [0, 1, 5, 8, 60])
    def test_running_rows_match_rows_from_scratch(self, k, q_order):
        # the packed running rows, one division per row and j, against one
        # running list per row and against each row built whole at each j,
        # at every j <= q_order + k
        j_top = q_order + k
        got = closed_product(k, j_top, q_order)
        assert got == closed_product_by_running_lists(k, j_top, q_order)
        assert got == closed_product_from_scratch(k, j_top, q_order)

    @pytest.mark.parametrize("k, q_order", [(2, 0), (2, 60), (5, 200)])
    def test_terms_are_in_the_stream_width(self, k, q_order):
        width = slot_width(q_order, *overpartition_parts(q_order))
        for term, stream in zip(closed_product_F_coefficients(k, q_order + k, q_order),
                                build_R(k, q_order + k, q_order).terms):
            assert (term.width, term.q_order) == (width, q_order)
            assert term.rows == stream.rows

    @pytest.mark.parametrize("width", [8, 16])
    def test_guard_read_names_the_first_j_past_the_bound(self, monkeypatch, width):
        # in narrow slots the closed form trips at the first x^j holding a
        # coefficient at or above 2^{width - GUARD_BITS}, read off its values
        terms = closed_product(2, 62, 60)
        j, _ = first_past_the_bound(terms, width, packed.GUARD_BITS)
        monkeypatch.setattr(packed, "slot_width", lambda n, plain, distinct=(): width)
        kept = []
        with pytest.raises(SlotOverflowError) as raised:
            kept.extend(closed_product_F_coefficients(2, 62, 60))
        assert str(raised.value) == (
            f"slot overflow: the closed product's x^{j} coefficient reached the guard bits"
            f" of its {width}-bit slots at q_order=60")
        assert [unpack(t) for t in kept] == terms[:j]

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_matches_recursion(self, k):
        q_order = 15
        rs = build_R(k, 10, q_order)
        xc = closed_product(k, 10, q_order)
        for j in range(11):
            assert xc[j] == unpack(rs.terms[j]), (k, j)


class TestAppellLimit:
    def test_constant_sequence(self):
        s = BivariateSeries.from_dict({(0, 0): 2, (1, 3): 1}, 2, 4)
        rs = RSequence(2, 4, 2, [packed_term(s, 8)] * 8)
        assert appell_limit(rs) == s

    def test_limit_is_theorem_product(self):
        rs = build_R(2, 45, 40)
        assert appell_limit(rs) == theorem_product(2, 40, rs.a_order)

    def test_stabilization_index_bound(self):
        # the closed form's bound, d + k - 1, holds and is reached
        for k in (2, 3, 4, 5):
            rs = build_R(k, 30 + k, 24)
            index = stabilization_by_scalar_walk(rs)
            assert max(idx - d for d, idx in index.items()) == k - 1, k
            assert appell_limit(rs) == unpack(rs.terms[-1])

    # each coefficient settles at a drawn j no later than one past its bound,
    # with values drawn from {0, 1} before it, so both outcomes occur often
    @given(st.integers(2, 4), st.integers(0, 4), st.integers(0, 2), st.integers(0, 3), st.data())
    @settings(max_examples=150, deadline=None)
    def test_raises_exactly_past_the_bound(self, k, q_order, a_order, extra_j, data):
        j_max = q_order + k + extra_j
        columns = {}
        for m in range(a_order + 1):
            for d in range(q_order + 1):
                settle = data.draw(st.integers(0, d + k))
                values = data.draw(st.lists(st.integers(0, 1), min_size=settle + 1,
                                            max_size=settle + 1))
                columns[m, d] = values + values[-1:] * (j_max - settle)
        terms = [
            BivariateSeries(tuple(
                tuple(columns[m, d][j] for d in range(q_order + 1)) for m in range(a_order + 1)
            ))
            for j in range(j_max + 1)
        ]
        rs = RSequence(k, q_order, a_order, [packed_term(t, 8) for t in terms])
        index = stabilization_by_scalar_walk(rs)
        late = [d for d, idx in index.items() if idx > d + k - 1]
        if not late:
            assert appell_limit(rs) == terms[-1]
            return
        with pytest.raises(StabilizationError) as exc:
            appell_limit(rs)
        m, d = exc.value.witness
        assert d in late
        assert f"a^{m} q^{d} " in str(exc.value)

    def test_requires_enough_terms(self):
        rs = build_R(3, 10, 12)
        with pytest.raises(StabilizationError):
            appell_limit(rs)
        # one term short of q_order + k is refused, q_order + k is enough
        for k in (2, 5):
            with pytest.raises(StabilizationError, match=f"q_order\\+k={12 + k}"):
                appell_limit(build_R(k, 12 + k - 1, 12))
            assert appell_limit(build_R(k, 12 + k, 12)) == theorem_product(k, 12)

    # rows of 8-bit slots, q^0..q^4, compared below q^{j-k+1} = q^2 (k = 2,
    # j = 3): the slots from q^2 on hold up to 2^5 - 1, the largest count a
    # slot takes, and the bare shift that drops them changes none it keeps
    @pytest.mark.parametrize("row, before, witness", [
        ((0, 1, 31, 0, 0), (0, 0, 0, 0, 0), (0, 1)),
        ((0, 1, 31, 0, 0), (0, 1, 0, 0, 0), None),
        ((0, 0, 0, 0, 0), (0, 1, 31, 0, 0), (0, 1)),
        ((5, 0, 3, 31, 0), (5, 0, 2, 0, 31), None),
        ((0, 2, 31, 31, 31), (1, 2, 0, 0, 0), (0, 0)),
    ], ids=["hides", "fakes", "hides-in-prev", "signed-past-the-window", "top-slot"])
    def test_signed_slots_just_past_the_window(self, row, before, witness):
        term, prev = (packed_term(BivariateSeries((r,)), 8) for r in (row, before))
        if witness is None:
            assert limit_step(2, 3, term, prev) is term
            return
        with pytest.raises(StabilizationError) as exc:
            limit_step(2, 3, term, prev)
        assert exc.value.witness == witness

    # j - k >= q_order: every slot is compared, the bottom one q^{q_order}
    # included; R_13's a^2 row, bumped, is R_j (delta -1) or R_{j-1} (delta 1),
    # so the difference read has either sign
    @pytest.mark.parametrize("delta", [1, -1])
    @pytest.mark.parametrize("n", [0, 10])
    def test_witness_at_the_end_slots(self, n, delta):
        terms = build_R(2, 14, 10).terms
        term = perturbed(RSequence(2, 10, 3, terms), 13, 2, n, 1).terms[13]
        pair = (terms[13], term) if delta == 1 else (term, terms[13])
        with pytest.raises(StabilizationError) as exc:
            limit_step(2, 13, *pair)
        assert exc.value.witness == (2, n)
        assert limit_step(2, 14, terms[14], terms[13]) is terms[14]

    def test_detects_unstabilized_sequence(self):
        terms = [BivariateSeries.from_dict({(0, 0): j}, 1, 2) for j in range(8)]
        rs = RSequence(2, 2, 1, [packed_term(t, 8) for t in terms])
        with pytest.raises(StabilizationError) as exc:
            appell_limit(rs)
        assert exc.value.witness == (0, 0)


class TestPjSeries:
    def test_matches_enumeration(self):
        for k in (2, 3):
            terms = build_R(k, 8, 10).terms
            for j in range(9):
                pj = unpack(pj_series(k, terms[: j + 1], j))
                for m in range(min(3, pj.a_order) + 1):
                    for n in range(11):
                        assert pj.coefficient(m, n) == count_pj(m, n, j, k), (k, j, m, n)

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_reads_only_the_last_k_terms(self, k):
        terms = build_R(k, 2 * k, 12).terms
        for j in range(2 * k + 1):
            last_k = terms[max(0, j - k + 1): j + 1]
            assert pj_series(k, last_k, j) == pj_series(k, terms[: j + 1], j)


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

    # the odd parity class is one coefficient shorter than the even one at
    # an even q-order
    @pytest.mark.parametrize("k", [2, 3, 5])
    @pytest.mark.parametrize("q_order", [0, 1, 2, 22, 60, 200])
    def test_matches_row_by_row_division(self, k, q_order):
        for i in range(k):
            want = congruence_product_by_rows(k, i, q_order)
            assert congruence_product_series(k, i, q_order).coeffs == want, i

    # k <= 8 and every i, at even and odd q-orders
    @pytest.mark.parametrize("k", range(2, 9))
    def test_matches_factor_by_factor(self, k):
        for q_order in (0, 1, 2, 3, 7, 30, 101, 1000):
            for i in range(k):
                want = congruence_product_factor_by_factor(k, i, q_order)
                assert congruence_product_series(k, i, q_order).coeffs == want, (q_order, i)

    @pytest.mark.parametrize("width", [8, 16])
    def test_guard_read_names_the_first_coefficient_past_the_bound(self, monkeypatch, width):
        # only the numerator sits in slots, so too narrow a width trips its
        # read, in either expansion, with the message the verifiers give; at
        # q^300 B_{0,2}'s numerator reaches 2^14 and D_2's 2^22
        monkeypatch.setattr(packed, "slot_width", lambda n, plain, distinct=(): width)
        for expand, what in ((lambda: congruence_product_series(2, 0, 300), "B_{0,2}"),
                             (lambda: theorem_product(2, 300), "D_2")):
            with pytest.raises(SlotOverflowError, match=re.escape(
                    f"slot overflow: the {what} product's numerator reached the guard bits of"
                    f" its {width}-bit slots at q_order=300")):
                expand()


class TestTheoremProduct:
    @pytest.mark.parametrize("k", [2, 3, 5])
    @pytest.mark.parametrize("q_order", [0, 1, 2, 22, 60, 200])
    def test_matches_row_by_row_division(self, k, q_order):
        numer = pochhammer_inf(Monomial(1, 1, 1), k, q_order, max_overline_count(k, q_order))
        want = divide_each_row(numer.coeffs, euler_product(q_order).coeffs)
        assert theorem_product(k, q_order).coeffs == want

    # an a-order of none, one, a few, and one past every row's least weight
    @pytest.mark.parametrize("a_order", [0, 1, 3, 40])
    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_given_a_order_matches_row_by_row_division(self, k, a_order):
        for q_order in (0, 1, 2, 3, 7, 30, 101, 200):
            numer = pochhammer_inf(Monomial(1, 1, 1), k, q_order, a_order)
            want = divide_each_row(numer.coeffs, euler_product(q_order).coeffs)
            assert theorem_product(k, q_order, a_order).coeffs == want, q_order

    def test_closes_the_loop_with_enumeration(self):
        for k in (2, 4):
            product = theorem_product(k, 12)
            for m in range(product.a_order + 1):
                for n in range(13):
                    assert product.coefficient(m, n) == len(d_witnesses(m, n, k))

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


def numerator_rows(parts, q_order, a_order):
    """prod (1 + a q^e) over the range parts, multiplied out factor by
    factor: its a-rows 0..a_order, or with a_order None its one row at a = 1."""
    if a_order is None:
        return pochhammer_inf(Monomial(0, parts.start, 1), parts.step, q_order).coeffs
    return pochhammer_inf(Monomial(1, parts.start, 1), parts.step, q_order, a_order).coeffs


def divided_cells(table, parts, t, a_order):
    """The cells euler_check must return, read off the product itself: each
    numerator row divided by (q^t; q^t)_inf (_divide, Euler's product spread
    to the multiples of t), then, for each a-row where the table differs,
    (m, first differing n, the table's count, the product's coefficient)."""
    n = len(table[0]) - 1
    unit = [0] * (n + 1)
    for g, c in enumerate(euler_product(n // t).coeffs):
        unit[t * g] = c
    cells = []
    for m, (row, numer) in enumerate(zip(table, numerator_rows(parts, n, a_order))):
        product = _divide(list(numer), unit)
        e = next((e for e, (a, b) in enumerate(zip(row, product)) if a != b), None)
        if e is not None:
            cells.append((m, e, row[e], product[e]))
    return cells


class TestEulerCheck:
    # a = 1 and a few a-orders; parts from 1 or past the order, spaced 1 to 10
    @pytest.mark.parametrize("a_order", [None, 0, 1, 3, 9])
    def test_numerator_matches_factor_by_factor(self, a_order):
        for q_order in (0, 1, 2, 7, 30, 101):
            for f, d in ((1, 1), (1, 2), (1, 5), (3, 4), (9, 10), (200, 1)):
                parts = range(f, q_order + 1, d)
                got = appell.product_numerator(parts, q_order, 64, a_order)
                want = numerator_rows(parts, q_order, a_order)
                assert packed.read_rows(got) == list(map(list, want)), (q_order, f, d)

    # random tables at n <= 60, right and wrong, with entries up to 2^80,
    # and some negative: the check's verdict, first cell and product
    # coefficient are the ones the division of its numerator by Euler's
    # product gives
    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_division(self, data):
        n, t = data.draw(st.integers(0, 60)), data.draw(st.sampled_from([1, 2]))
        parts = range(data.draw(st.integers(1, 6)), n + 1, data.draw(st.integers(1, 6)))
        a_order = data.draw(st.sampled_from([None, 0, 1, 2, 5]))
        unit = [0] * (n + 1)
        for g, c in enumerate(euler_product(n // t).coeffs):
            unit[t * g] = c
        table = [_divide(list(numer), unit) for numer in numerator_rows(parts, n, a_order)]
        kind = data.draw(st.sampled_from(["product", "moved", "random", "signed"]))
        if kind == "moved":
            for _ in range(data.draw(st.integers(1, 3))):
                m, e = data.draw(st.integers(0, len(table) - 1)), data.draw(st.integers(0, n))
                table[m][e] = max(0, table[m][e] + data.draw(st.integers(-3, 3)))
        elif kind != "product":
            top = data.draw(st.sampled_from([1, 2**8, 2**80]))
            low = -top if kind == "signed" else 0
            table = [data.draw(st.lists(st.integers(low, top), min_size=n + 1, max_size=n + 1))
                     for _ in table]
        _, got = appell.euler_check(table, t, parts, "the numerator", a_order)
        assert got == divided_cells(table, parts, t, a_order)
        assert kind != "product" or got == []

    def test_a_carry_at_the_right_tables_width_is_caught(self):
        # W0 is the width the product's own table gets.  Lowered by 1 at q^d
        # and raised by 2^{W0} at q^{d+1}, the table packs at W0 to the same
        # integer, but its largest entry widens the check, which fails at d
        n, parts = 200, range(1, 201, 4)
        table = list(congruence_product_series(2, 0, n).coeffs)
        w0, cells = appell.euler_check([table], 2, parts, "B")
        assert cells == []
        for d in (0, 57, n - 1):
            moved = list(table)
            moved[d] -= 1
            moved[d + 1] += 1 << w0
            assert sum(c << w0 * (n - e) for e, c in enumerate(moved)) == sum(
                c << w0 * (n - e) for e, c in enumerate(table))
            width, cells = appell.euler_check([moved], 2, parts, "B")
            assert width > w0
            assert cells == [(0, d, table[d] - 1, table[d])], d

    @pytest.mark.parametrize("e", [0, 1, 30, 60])
    def test_a_negative_entry_fails_the_check(self, e):
        # the product's own a-rows with one entry negative: the check fails
        # there, and raises nothing
        table = [list(row) for row in theorem_product(2, 60, 3).coeffs]
        for m, value in ((0, -1), (2, -table[2][e] - 5)):
            wrong = [list(row) for row in table]
            wrong[m][e] = value
            _, cells = appell.euler_check(wrong, 1, range(1, 61, 2), "D_2", 3)
            assert cells == [(m, e, value, table[m][e])]

    def test_a_packed_table_reads_as_its_rows(self):
        # R_62's term, as it is and bumped at a few cells, checked packed
        # (widened) and as lists: the same cells, and the same width
        *_, last = build_R(2, 62, 60).terms
        for cell in ((None, None), (0, 0), (1, 1), (3, 60), (7, 59)):
            term = last
            if cell[0] is not None:
                rows = list(last.rows)
                rows[cell[0]] += 1 << last.width * (60 - cell[1])
                term = last._replace(rows=tuple(rows))
            lists = [list(row) for row in unpack(term).coeffs]
            assert appell.euler_check(lists, 1, range(1, 61, 2), "D_2", 7)[1] == appell.euler_check(
                term, 1, range(1, 61, 2), "D_2", 7)[1], cell
