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

Euler's two identities give R_j in closed form: its a^d row is
q^{d + k d(d-1)/2} / ((q^k; q^k)_d (q; q)_{j-kd}).  The closed product
counts each row from that form, sharing no code with build_R, and the
limit checks the bound it implies: the coefficient of q^e is fixed once
j >= e + k - 1.  The routes work on whole coefficient rows, as lists: the
functional equation is compared a-row by a-row without building series
objects, and the limit compares row slices.  Only build_R's division by
(1 - q^j) is a running sum over single coefficients: at q-order 200 its
slice forms measured slower.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add

from .partitions import _count_by_dp, check_params
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
    check_params(k, j_max=j_max, q_order=q_order, a_order=a_order)
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


def appell_limit(rs: RSequence) -> BivariateSeries:
    """The formal evaluation of lim_{x->1} (1-x) F(a,x,q): R_{j_max}, certified.

    By the closed form the coefficient of q^e is fixed for j >= e + k - 1.
    That bound is checked: each a-row of R_j, k - 1 <= j < j_max, must equal
    R_{j_max}'s below q^{j-k+2}.  j_max >= q_order + k makes the last
    comparison cover every q^e; the first mismatch raises with its
    (a-degree, q-degree).
    """
    k, last = rs.k, rs.terms[-1].coeffs
    if rs.j_max < rs.q_order + k:
        raise StabilizationError(
            f"not stabilized: j_max={rs.j_max} < q_order+k={rs.q_order + k}"
        )
    for j in range(k - 1, rs.j_max):
        top = j - k + 2
        for m, (row, final) in enumerate(zip(rs.terms[j].coeffs, last)):
            if row[:top] != final[:top]:
                e = next(e for e, (c, f) in enumerate(zip(row, final)) if c != f)
                raise StabilizationError(
                    f"not stabilized: coefficient of a^{m} q^{e} differs between"
                    f" j={j} and j={rs.j_max}, though it settles by j={e + k - 1}",
                    witness=(m, e),
                )
    return rs.terms[-1]


def theorem_product(k: int, q_order: int, a_order: int | None = None) -> BivariateSeries:
    """The product side (-aq; q^k)_inf / (q; q)_inf of the overpartition identity.

    Each a-row of the numerator is divided by (q; q)_inf through the
    pentagonal recurrence, so 1/(q; q)_inf is never expanded or convolved."""
    check_params(k, q_order=q_order, a_order=a_order)
    if a_order is None:
        a_order = max_overline_count(k, q_order)
    numer = pochhammer_inf(Monomial(1, 1, 1), k, q_order, a_order)
    return numer.div_qseries(euler_product(q_order))


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
