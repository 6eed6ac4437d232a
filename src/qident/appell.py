"""The generating-function machinery behind the overpartition identity.

This module builds, as executable objects, the sequence R_j(a, q) of
bounded-part generating functions via its recursion

    R_j = R_{j-1} / (1 - q^j)  +  a q^{j-k+1} R_{j-k} / (1 - q^j),

checks the termwise content of the functional equation
(1 - x) F = (1 + a x^k q) F(x -> xq) for F = sum_j R_j x^j, expands the
closed product solution for F, and takes the formal coefficientwise limit
R_infty, which must reproduce the infinite product
(-aq; q^k)_inf / (q; q)_inf.  It also expands the corollary family's
product (-q^{2i+1}; q^{2k})_inf / (q^2; q^2)_inf: its finite numerator
factor by factor, largest first, then each parity class divided by Euler's
product, so that route shares no algorithm with the B-side knapsack.

The recursion is a stream: r_terms yields R_0, R_1, ... and keeps only the
last k terms, and build_R is that stream kept whole.  The functional
equation and the limit are checked one j at a time (functional_equation_step
reads R_j, R_{j-1}, R_{j-k}; limit_step reads R_j, R_{j-1}), so a caller
can check them as the terms arrive; check_functional_equation and
appell_limit are the same steps looped over an RSequence.

Euler's two identities give R_j in closed form: its a^d row is
q^{d + k d(d-1)/2} / ((q^k; q^k)_d (q; q)_{j-kd}).  The closed product
counts each row from that form, sharing no code with r_terms, and the
limit checks the bound it implies: the coefficient of q^e is fixed once
j >= e + k - 1.  Checked between neighbours, that is R_j = R_{j-1} below
q^{j-k+1}; the windows grow with j, so the agreements chain forward to
R_{j_max}.  The routes work on whole coefficient rows, as lists: the
functional equation is compared a-row by a-row without building series
objects, and the limit compares row slices.

The two producers, r_terms and theorem_product, skip what must be zero:
by Euler's expansion of (-aq; q^k)_inf, row m is zero below the least
weight of m overlined parts, least_weight(k, m) = m + k m(m-1)/2, so each
row's adds and running sums start there.  The verifying stages still
compare whole rows, so a start one too late is caught.  The recursion's
division by (1 - q^j) stays a running sum over single coefficients, from
the row's least weight on.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass
from operator import add

from .partitions import _count_by_dp, check_params
from .series import BivariateSeries, QSeries, _divide_rows, euler_product


class StabilizationError(ValueError):
    """Raised when a formal limit cannot be certified at the given depth."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness  # (a_degree, q_degree) or None


def least_weight(k: int, m: int, lo: int = 1) -> int:
    """The least weight of m overlined parts pairwise >= k apart, all >= lo:
    lo + (lo + k) + ... + (lo + (m-1)k) = m*lo + k*m*(m-1)/2.

    By Euler's expansion of (-aq; q^k)_inf, whose a^m row is
    q^{m + k m(m-1)/2} / (q^k; q^k)_m, row m of every R_j and of the
    theorem's product is zero below least_weight(k, m).
    """
    return m * lo + k * m * (m - 1) // 2


def max_overline_count(k: int, q_order: int) -> int:
    """Largest m whose least weight, least_weight(k, m), fits in q_order.

    a-degrees above this bound carry only zero coefficients below the
    truncation order.
    """
    m = 0
    while least_weight(k, m + 1) <= q_order:
        m += 1
    return m


@dataclass
class RSequence:
    """terms[j] = R_j(a, q) for j = 0..j_max, at a shared truncation."""

    k: int
    q_order: int
    a_order: int
    terms: list

    @property
    def j_max(self) -> int:
        return len(self.terms) - 1


def r_terms(k: int, j_max: int, q_order: int, a_order: int | None = None) -> Iterator:
    """Yield R_0..R_{j_max} from the recursion, R_0 = 1 (with R_j = 0 for -k < j < 0).

    a_order defaults to the exact overline-count bound for this truncation.
    Each term is built as a running sum in place: R_{j-1} + a q^{j-k+1} R_{j-k},
    then divided by (1 - q^j) through c[n] += c[n - j] for n ascending.  Row
    m of every R_j is zero below L_m = least_weight(k, m), so row m reads
    row m - 1 of R_{j-k} from L_{m-1}, adding it from j - k + 1 + L_{m-1} on,
    and its division starts at L_m + j.  Only the last k terms are kept, so
    a caller that keeps no more holds O(k) terms.  The parameters are
    checked at the call, before the first term.
    """
    check_params(k, j_max=j_max, q_order=q_order, a_order=a_order)
    if a_order is None:
        a_order = max_overline_count(k, q_order)
    return _r_terms(k, j_max, q_order, a_order)


def _r_terms(k: int, j_max: int, q_order: int, a_order: int) -> Iterator:
    least = [least_weight(k, m) for m in range(a_order + 1)]  # row m is zero below
    window = deque([BivariateSeries.one(a_order, q_order)], maxlen=k)  # R_{j-k}..R_{j-1}
    yield window[0]
    for j in range(1, j_max + 1):
        rows = [list(r) for r in window[-1].coeffs]
        if j >= k:
            # row m gains row m - 1 of R_{j-k} from its least weight, shifted by j - k + 1
            for row, low, s in zip(rows[1:], window[0].coeffs, least):
                start = j - k + 1 + s
                row[start:] = map(add, row[start:], low[s:])
        for row, s in zip(rows, least):
            for n in range(s + j, q_order + 1):
                row[n] += row[n - j]
        window.append(BivariateSeries(tuple(tuple(r) for r in rows)))
        yield window[-1]


def build_R(k: int, j_max: int, q_order: int, a_order: int | None = None) -> RSequence:
    """R_0..R_{j_max} from r_terms, all kept."""
    terms = r_terms(k, j_max, q_order, a_order)
    if a_order is None:
        a_order = max_overline_count(k, q_order)
    return RSequence(k, q_order, a_order, list(terms))


def functional_equation_step(k: int, j: int, term, prev, low) -> tuple | None:
    """Verify R_j - R_{j-1} = q^j R_j + a q^{j-k+1} R_{j-k} at one j >= 1.

    term, prev and low are R_j, R_{j-1} and R_{j-k} (None when j < k).  Each
    a-row of R_j is compared, as a list, with the same row of
    R_{j-1} + q^j R_j + a q^{j-k+1} R_{j-k}.  Returns the first failing
    (a-degree, q-degree), a-degree before q-degree, or None.
    """
    low = low.coeffs if low is not None else ()
    for m, (row, prev_row) in enumerate(zip(term.coeffs, prev.coeffs)):
        expected = list(prev_row)
        expected[j:] = map(add, expected[j:], row)
        if m and low:
            expected[j - k + 1 :] = map(add, expected[j - k + 1 :], low[m - 1])
        if tuple(row) != tuple(expected):
            return m, next(n for n, (c, e) in enumerate(zip(row, expected)) if c != e)
    return None


def check_functional_equation(rs: RSequence) -> tuple | None:
    """functional_equation_step at each 1 <= j <= j_max: the x^j coefficient
    of (1-x)F = (1 + a x^k q) F(x -> xq).  Returns the first failing
    (j, a-degree, q-degree), or None when every equation holds.
    """
    k = rs.k
    for j in range(1, rs.j_max + 1):
        low = rs.terms[j - k] if j >= k else None
        diff = functional_equation_step(k, j, rs.terms[j], rs.terms[j - 1], low)
        if diff is not None:
            return (j, *diff)
    return None


def closed_product_F_coefficients(
    k: int, j_top: int, q_order: int, a_order: int | None = None
) -> list:
    """x^0..x^{j_top} coefficients of prod_{t>=0} (1 + a x^k q^{tk+1}) / (1 - x q^t).

    Euler's two identities expand the product: the a^d row of the x^j
    coefficient is q^{d + k d(d-1)/2} / ((q^k; q^k)_d (q; q)_{j-kd}), zero
    when kd > j, counted as partitions into the parts k, 2k, ..., dk and
    1, ..., j - kd.  The coefficients must equal the recursion's terms.
    """
    check_params(k, j_top=j_top, q_order=q_order, a_order=a_order)
    if a_order is None:
        a_order = max_overline_count(k, q_order)
    zero = (0,) * (q_order + 1)

    def row(j, d):
        shift = d + k * d * (d - 1) // 2
        if k * d > j or shift > q_order:
            return zero
        parts = [k * t for t in range(1, d + 1)] + list(range(1, j - k * d + 1))
        return (0,) * shift + tuple(_count_by_dp(q_order - shift, parts))

    return [
        BivariateSeries(tuple(row(j, d) for d in range(a_order + 1))) for j in range(j_top + 1)
    ]


def require_depth(k: int, j_max: int, q_order: int) -> None:
    """Refuse a limit that cannot be certified: the settling check at j_max
    covers every q^e below q_order + 1 only when j_max >= q_order + k."""
    if j_max < q_order + k:
        raise StabilizationError(f"not stabilized: j_max={j_max} < q_order+k={q_order + k}")


def limit_step(k: int, j: int, term, prev) -> BivariateSeries:
    """One step of the settling check at j >= k: R_j = term must equal
    R_{j-1} = prev below q^{j-k+1}.  Returns R_j, the limit so far.

    By the closed form the coefficient of q^e is fixed for j >= e + k - 1, so
    a difference below q^{j-k+1} is a settled coefficient that changed; it
    raises with its (a-degree, q-degree), the lowest of each.
    """
    top = j - k + 1
    for m, (row, before) in enumerate(zip(term.coeffs, prev.coeffs)):
        if row[:top] != before[:top]:
            e = next(e for e, (c, b) in enumerate(zip(row, before)) if c != b)
            raise StabilizationError(
                f"not stabilized: coefficient of a^{m} q^{e} changes between"
                f" j={j - 1} and j={j}, though it settles by j={e + k - 1}",
                witness=(m, e),
            )
    return term


def appell_limit(rs: RSequence) -> BivariateSeries:
    """The formal evaluation of lim_{x->1} (1-x) F(a,x,q): R_{j_max}, certified.

    limit_step at each k <= j <= j_max: R_j agrees with R_{j-1} below
    q^{j-k+1}.  As that window grows with j, the agreements chain forward:
    they hold exactly when each R_j agrees with R_{j_max} below q^{j-k+2},
    the closed form's settling bound.  require_depth makes the last step
    cover every q^e; the first changed coefficient raises with its
    (a-degree, q-degree).
    """
    require_depth(rs.k, rs.j_max, rs.q_order)
    for j in range(rs.k, rs.j_max + 1):
        limit = limit_step(rs.k, j, rs.terms[j], rs.terms[j - 1])
    return limit


def theorem_product(k: int, q_order: int, a_order: int | None = None) -> BivariateSeries:
    """The product side (-aq; q^k)_inf / (q; q)_inf of the overpartition identity.

    The numerator prod (1 + a q^e), e = 1, 1 + k, ..., is expanded in place
    on a-rows, largest e first.  With lo the last e taken, row m - 1 is zero
    below least_weight(k, m - 1, lo), so a factor adds row m - 1, shifted by
    e, to row m only from there; row 1 gains q^e alone.  Rows are updated
    from the top a-degree down, so each reads its neighbour before the
    factor.  Each a-row is then divided by (q; q)_inf through the pentagonal
    recurrence, so 1/(q; q)_inf is never expanded or convolved."""
    check_params(k, q_order=q_order, a_order=a_order)
    if a_order is None:
        a_order = max_overline_count(k, q_order)
    n1 = q_order + 1
    rows = [[1] + [0] * q_order] + [[0] * n1 for _ in range(a_order)]
    lo = n1
    for e in reversed(range(1, n1, k)):
        for m in range(a_order, 1, -1):
            s = least_weight(k, m - 1, lo)
            if e + s < n1:
                rows[m][e + s :] = map(add, rows[m][e + s :], rows[m - 1][s : n1 - e])
        if a_order:
            rows[1][e] += 1
        lo = e
    rows = _divide_rows(rows, euler_product(q_order).coeffs)
    return BivariateSeries(tuple(tuple(r) for r in rows))


def pj_series(rs: RSequence, j: int) -> BivariateSeries:
    """P_j built independently as a sum over the largest overline position.

    An admissible configuration with parts <= j either has no overline above
    j-k+1 (counted by R_j), or its largest overline b lies in
    {j-k+2, ..., j}; removing that overline forbids plain parts in [b, j]
    and overlines above b-k, leaving exactly the configurations of R_{b-1}.
    Hence P_j = R_j + sum_b a q^b R_{b-1}.
    """
    out = rs.terms[j]
    for b in range(max(1, j - rs.k + 2), j + 1):
        out = out + rs.terms[b - 1].shift(1, b)
    return out


def congruence_product_series(k: int, i: int, q_order: int) -> QSeries:
    """The product (-q^{2i+1}; q^{2k})_inf / (q^2; q^2)_inf of the corollary family.

    Expanded from the product itself, sharing no algorithm with the allowed
    parts that count_B_table's knapsack sums over, so the two are
    independent routes to B_{i,k}.  The finite numerator prod (1 + q^e)
    starts from 1 and takes its largest e first: with lo the last e taken,
    row[1:lo] is still zero, so a factor adds row[0] at e and the copy
    shifted by e from e + lo on.  Each parity class of the numerator is then
    divided by Euler's product (q; q)_inf (the pentagonal recurrence), which
    is 1/(q^2; q^2)_inf on the exponents of one parity.
    """
    check_params(k, i, q_order=q_order)
    row = [1] + [0] * q_order
    lo = q_order + 1
    for e in reversed(range(2 * i + 1, q_order + 1, 2 * k)):
        row[e] += row[0]
        row[e + lo :] = map(add, row[e + lo :], row[lo : q_order + 1 - e])
        lo = e
    euler = euler_product(q_order // 2).coeffs
    row[::2], row[1::2] = _divide_rows([row[::2], row[1::2]], euler)
    return QSeries(tuple(row))
