"""The generating-function machinery behind the overpartition identity.

This module builds, as executable objects, the sequence R_j(a, q) of
bounded-part generating functions via its recursion

    R_j = R_{j-1} / (1 - q^j)  +  a q^{j-k+1} R_{j-k} / (1 - q^j),

checks the termwise content of the functional equation
(1 - x) F = (1 + a x^k q) F(x -> xq) for F = sum_j R_j x^j, expands the
closed product solution for F, and takes the formal coefficientwise limit
R_infty, which must reproduce the infinite product
(-aq; q^k)_inf / (q; q)_inf.  It also expands the corollary family's
product (-q^{2i+1}; q^{2k})_inf / (q^2; q^2)_inf from the inverse of Euler's
product, so that route shares no algorithm with the B-side knapsack.

The routes work on whole coefficient rows, as lists: a shifted copy is
added as row[e:] = map(add, row[e:], src), the functional equation is
compared a-row by a-row without building series objects, the closed product
expands only the a-rows that can be nonzero, and the limit's stabilization
index walks the transposed columns of each a-row.  Only build_R's division
by (1 - q^j) is a running sum over single coefficients: at q-order 200 its
slice forms measured slower.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import add

from .partitions import check_params
from .series import BivariateSeries, Monomial, QSeries, euler_product, pochhammer_inf


class StabilizationError(ValueError):
    """Raised when a formal limit cannot be certified at the given depth."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness  # (a_degree, q_degree) or None


def max_overline_count(k: int, q_order: int) -> int:
    """Largest m whose minimum admissible weight m + k*m*(m-1)/2 fits in q_order.

    Overlined values are pairwise >= k apart, so m overlines weigh at least
    1 + (1+k) + ... + (1+(m-1)k).  a-degrees above this bound carry only
    zero coefficients below the truncation order.
    """
    m = 0
    while (m + 1) + k * m * (m + 1) // 2 <= q_order:
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


def _add_shifted(rows: list, src, a_exp: int, q_exp: int) -> None:
    """rows += a^{a_exp} q^{q_exp} * src in place, truncated at the orders of
    rows; rows beyond those src reaches are left as they are."""
    for m in range(a_exp, min(len(rows), len(src) + a_exp)):
        row = rows[m]
        row[q_exp:] = map(add, row[q_exp:], src[m - a_exp])


def build_R(k: int, j_max: int, q_order: int, a_order: int | None = None) -> RSequence:
    """Run the recursion from R_0 = 1 (with R_j = 0 for -k < j < 0).

    a_order defaults to the exact overline-count bound for this truncation.
    Each term is built as a running sum in place: R_{j-1} + a q^{j-k+1} R_{j-k},
    then divided by (1 - q^j) through c[n] += c[n - j] for n ascending.
    """
    check_params(k, j_max=j_max)
    if a_order is None:
        a_order = max_overline_count(k, q_order)
    terms = [BivariateSeries.one(a_order, q_order)]
    for j in range(1, j_max + 1):
        rows = [list(r) for r in terms[j - 1].coeffs]
        if j - k >= 0:
            _add_shifted(rows, terms[j - k].coeffs, 1, j - k + 1)
        for row in rows:
            for n in range(j, q_order + 1):
                row[n] += row[n - j]
        terms.append(BivariateSeries(tuple(tuple(r) for r in rows)))
    return RSequence(k, q_order, a_order, terms)


def check_functional_equation(rs: RSequence) -> tuple | None:
    """Verify R_j - R_{j-1} = q^j R_j + a q^{j-k+1} R_{j-k} for 1 <= j <= j_max.

    This is the x^j coefficient of (1-x)F = (1 + a x^k q) F(x -> xq).  Each
    a-row of R_j is compared, as a list, with the same row of
    R_{j-1} + q^j R_j + a q^{j-k+1} R_{j-k}.  Returns the first failing
    (j, a-degree, q-degree), a-degree before q-degree, or None when every
    equation holds.
    """
    k = rs.k
    for j in range(1, rs.j_max + 1):
        term, prev = rs.terms[j].coeffs, rs.terms[j - 1].coeffs
        low = rs.terms[j - k].coeffs if j >= k else ()
        for m, (row, prev_row) in enumerate(zip(term, prev)):
            expected = list(prev_row)
            expected[j:] = map(add, expected[j:], row)
            if m and low:
                expected[j - k + 1 :] = map(add, expected[j - k + 1 :], low[m - 1])
            if tuple(row) != tuple(expected):
                return j, m, next(n for n, (c, e) in enumerate(zip(row, expected)) if c != e)
    return None


def closed_product_F_coefficients(
    k: int, j_top: int, q_order: int, a_order: int | None = None
) -> list:
    """x^0..x^{j_top} coefficients of prod_{t>=0} (1 + a x^k q^{tk+1}) / (1 - x q^t).

    Expanding the closed product solution of the functional equation; the
    returned coefficients must equal the recursion's terms.  Every a comes
    with x^k, so the x^d coefficient has a-degree at most d // k: only those
    rows are expanded, and the rest are returned as zeros.
    """
    check_params(k, j_top=j_top)
    if a_order is None:
        a_order = max_overline_count(k, q_order)
    xc = [[[0] * (q_order + 1) for _ in range(min(d // k, a_order) + 1)] for d in range(j_top + 1)]
    xc[0][0][0] = 1
    # numerator: (1 + a x^k q^{tk+1}) adds a q^{tk+1} xc[d-k] to xc[d]; d descending
    # reads each xc[d-k] before the factor reaches it
    t = 0
    while t * k + 1 <= q_order:
        for d in range(j_top, k - 1, -1):
            _add_shifted(xc[d], xc[d - k], 1, t * k + 1)
        t += 1
    # denominator: 1/(1 - x q^t) is the running sum new[d] = xc[d] + q^t new[d-1];
    # d ascending makes xc[d-1] already the new value
    for t in range(0, q_order + 1):
        for d in range(1, j_top + 1):
            _add_shifted(xc[d], xc[d - 1], 0, t)
    zero = (0,) * (q_order + 1)
    return [
        BivariateSeries(tuple(map(tuple, rows)) + (zero,) * (a_order + 1 - len(rows)))
        for rows in xc
    ]


@dataclass
class FormalLimit:
    """The coefficientwise limit of a series sequence, with certification data.

    stabilization_index[d] is the least j from which the coefficient of q^d
    (at every a-degree) stayed constant through j_max.
    """

    limit: BivariateSeries
    stabilization_index: dict = field(default_factory=dict)


def appell_limit(rs: RSequence) -> FormalLimit:
    """The formal evaluation of lim_{x->1} (1-x) F(a,x,q) as terms[j] stabilize.

    Requires j_max >= q_order + 1 and refuses to certify a limit whose
    coefficients were still moving at the final index.
    """
    if rs.j_max < rs.q_order + 1:
        raise StabilizationError(
            f"not stabilized: j_max={rs.j_max} < q_order+1={rs.q_order + 1}"
        )
    last = rs.terms[-1]
    moved = last.first_difference(rs.terms[-2])
    if moved is not None:
        m, d = moved
        raise StabilizationError(
            f"not stabilized: coefficient of a^{m} q^{d} changed at j={rs.j_max}",
            witness=moved,
        )
    # one column per q-degree: the coefficient of a^m q^d at j = 0..j_max
    index = dict.fromkeys(range(rs.q_order + 1), 0)
    for m in range(rs.a_order + 1):
        for d, column in enumerate(zip(*(term.coeffs[m] for term in rs.terms))):
            final = column[-1]
            j = rs.j_max
            while j > 0 and column[j - 1] == final:
                j -= 1
            if j > index[d]:
                index[d] = j
    return FormalLimit(limit=last, stabilization_index=index)


def theorem_product(k: int, q_order: int, a_order: int | None = None) -> BivariateSeries:
    """The product side (-aq; q^k)_inf / (q; q)_inf of the overpartition identity."""
    check_params(k)
    if a_order is None:
        a_order = max_overline_count(k, q_order)
    numer = pochhammer_inf(Monomial(1, 1, 1), k, q_order, a_order)
    return numer.mul_qseries(euler_product(q_order).invert_unit())


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
    independent routes to B_{i,k}.  1/(q^2; q^2)_inf is the inverse of
    Euler's product (q; q)_inf (the pentagonal recurrence) placed on the even
    exponents; each factor (1 + q^e) then adds a copy shifted by e.
    """
    check_params(k, i, q_order=q_order)
    row = [0] * (q_order + 1)
    row[::2] = euler_product(q_order // 2).invert_unit().coeffs
    for e in range(2 * i + 1, q_order + 1, 2 * k):
        row[e:] = map(add, row[e:], row[: q_order + 1 - e])
    return QSeries(tuple(row))
