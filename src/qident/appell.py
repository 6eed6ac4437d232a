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
factor by factor, largest first, in the slots its own coefficients need,
widened to the product's, then both parity classes divided by Euler's
product at once, so that route shares no algorithm with the B-side
knapsack.  Each product runs the pentagonal recurrence (series._divide)
once: theorem_product on the one plain row 1/(q; q)_inf, the corollary's
product on its packed numerator read back in two-slot columns.  The R_j
stream and the closed product are packed too, in one width.

The recursion is a stream: r_terms yields R_0, R_1, ... and keeps only the
last k terms, and build_R keeps every term it yields.  The functional
equation and the limit are checked one j at a time (functional_equation_step
reads R_j, R_{j-1}, R_{j-k}; limit_step reads R_j, R_{j-1}), so a caller
can check them as the terms arrive; check_functional_equation and
appell_limit run the same steps over an RSequence's terms as they are.

The stream's terms are packed (packed.PackedTerm, as the D_k sweep's
states are), in the width of the D_k counts' bound, the module below's
overpartition_parts: a-row m of R_j is one integer of unsigned counts,
q^0 on top, so a row add is one integer add and a shift by q^s a bare
right shift.  unpack turns a term into a BivariateSeries, as appell_limit
returns its limit and as the machinery's stages read a differing term.

Euler's two identities give R_j in closed form: its a^d row is
q^{d + k d(d-1)/2} / ((q^k; q^k)_d (q; q)_{j-kd}).  The closed product
counts each row from that form on packed rows in the stream's width, so a
caller compares its terms with R_j as integers; it runs its own divisions
and shares no arithmetic with r_terms.  The limit checks the bound the
closed form implies: the coefficient of q^e is fixed once j >= e + k - 1.
Checked between neighbours, that is R_j = R_{j-1} below q^{j-k+1}; the
windows grow with j, so the agreements chain forward to R_{j_max}.
pj_series sums P_j on the stream's last k terms.

theorem_product skips what must be zero: by Euler's expansion of
(-aq; q^k)_inf, row m is zero below the least weight of m overlined parts,
least_weight(k, m) = m + k m(m-1)/2, so each row's adds start there.  The
Appell limit compares whole rows with it, so a start one too late is
caught.  The packed stream needs no such start: a row's zero slots below
its least weight are its leading zeros.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass
from operator import add

from . import packed
from .overpartitions import overpartition_parts
from .packed import PackedTerm
from .partitions import check_params
from .series import BivariateSeries, QSeries, _divide, euler_product


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


def unpack(term: PackedTerm) -> BivariateSeries:
    """The BivariateSeries whose a-rows term packs."""
    return BivariateSeries(tuple(map(tuple, packed.read_rows(term))))


@dataclass
class RSequence:
    """terms[j] = R_j(a, q) for j = 0..j_max, at a shared truncation, each
    the stream's PackedTerm."""

    k: int
    q_order: int
    a_order: int
    terms: list

    @property
    def j_max(self) -> int:
        return len(self.terms) - 1


def r_terms(k: int, j_max: int, q_order: int) -> Iterator:
    """Yield R_0..R_{j_max} from the recursion as PackedTerms, R_0 = 1 (with
    R_j = 0 for -k < j < 0), with a-rows 0..max_overline_count(k, q_order):
    every row above is zero below the truncation.

    Each term starts from R_{j-1}'s rows; row m gains row m - 1 of R_{j-k}
    shifted by q^{j-k+1}, then is divided by (1 - q^j) in doubling steps
    P += q^s P, s = j, 2j, 4j, ... while s <= q_order, the partial products
    of 1/(1 - q^j) = (1 + q^j)(1 + q^{2j})(1 + q^{4j})...  Each shift drops
    the slots past q^{q_order}.

    Every value formed while building R_j is at most the matching
    coefficient of R_j, a count of D_k objects of weight <= q_order (the add
    step forms (1 - q^j) R_j, each doubling step a partial sum of R_j's
    series), so under packed.slot_width's bound for
    overpartition_parts(q_order) no slot reaches its guard bits.  They are
    read once per term, after the doubling steps, as in _packed_knapsack; a
    slot holding one raises SlotOverflowError naming j and the lowest a-row
    holding one.  Given up, as there: were the width wrong by GUARD_BITS
    bits or more, a carry could clear a guard bit before the read, though a
    stream so corrupted would still have to agree with routes sharing none
    of its arithmetic for any stage to pass.  Only the
    last k terms are kept; the parameters are checked at the call, before
    the first term.
    """
    check_params(k, j_max=j_max, q_order=q_order)
    return _r_terms(k, j_max, q_order)


def _r_terms(k: int, j_max: int, q_order: int) -> Iterator:
    a_order = max_overline_count(k, q_order)
    width = packed.slot_width(q_order, *overpartition_parts(q_order))
    guard = packed.guard_mask(width, q_order + 1)

    one = PackedTerm((1 << width * q_order,) + (0,) * a_order, width, q_order)
    window = deque([one], maxlen=k)  # R_{j-k}..R_{j-1}
    yield window[0]
    for j in range(1, j_max + 1):
        rows = list(window[-1].rows)
        s = j - k + 1
        if j >= k and s <= q_order:
            # row m gains row m - 1 shifted by q^s; the slots past q^{q_order} fall off
            bits = width * s
            for m, low in enumerate(window[0].rows[:a_order], 1):
                if low:
                    rows[m] += low >> bits
        # the doubling steps' shifts: q^s for s = j, 2j, 4j, ... <= q_order
        steps = [width * j << t for t in range((q_order // j).bit_length())]
        for m, row in enumerate(rows):
            if row:
                for bits in steps:
                    row += row >> bits
                rows[m] = row
        for m, row in enumerate(rows):
            if row & guard:
                raise packed.SlotOverflowError(
                    f"slot overflow: the a^{m} row of R_{j} reached the guard bits of its"
                    f" {width}-bit slots at q_order={q_order}")
        window.append(PackedTerm(tuple(rows), width, q_order))
        yield window[-1]


def build_R(k: int, j_max: int, q_order: int) -> RSequence:
    """R_0..R_{j_max} from r_terms, all kept as they are yielded."""
    return RSequence(k, q_order, max_overline_count(k, q_order), list(r_terms(k, j_max, q_order)))


def functional_equation_step(k: int, j: int, term, prev, low) -> tuple | None:
    """Verify R_j - R_{j-1} = q^j R_j + a q^{j-k+1} R_{j-k} at one j >= 1.

    term, prev and low are the PackedTerms R_j, R_{j-1} and R_{j-k} (None
    when j < k).  Each a-row of R_j is compared with the same row of
    R_{j-1} + q^j R_j + a q^{j-k+1} R_{j-k}: the shifts drop the slots past
    q^{q_order}, and the difference of four values below 2^{w-3} is zero
    exactly when every slot is.  Only on a mismatch is that sum formed, as
    row - residue, three values below 2^{w-3} a slot, so no slot carries
    and the first slot it differs from R_j in is read off the two rows.
    Returns the first failing (a-degree, q-degree), a-degree before
    q-degree, or None.
    """
    width, slots = term.width, term.q_order + 1
    lows = (0, *low.rows) if low is not None else (0,) * len(term.rows)
    for m, (row, before, under) in enumerate(zip(term.rows, prev.rows, lows)):
        residue = row - before - (row >> width * j)
        if under:  # a q^{j-k+1} R_{j-k}
            residue -= under >> width * (j - k + 1)
        if residue:
            return m, packed.first_slot(row, row - residue, width, slots)
    return None


def check_functional_equation(rs: RSequence) -> tuple | None:
    """functional_equation_step at each 1 <= j <= j_max: the x^j coefficient
    of (1-x)F = (1 + a x^k q) F(x -> xq).  Returns the first failing
    (j, a-degree, q-degree), or None when every equation holds.
    """
    k, terms = rs.k, rs.terms
    for j in range(1, rs.j_max + 1):
        low = terms[j - k] if j >= k else None
        diff = functional_equation_step(k, j, terms[j], terms[j - 1], low)
        if diff is not None:
            return (j, *diff)
    return None


def closed_product_F_coefficients(k: int, j_top: int, q_order: int) -> Iterator:
    """Yield the x^0..x^{j_top} coefficients of
    prod_{t>=0} (1 + a x^k q^{tk+1}) / (1 - x q^t) as PackedTerms, in the R_j
    stream's width: slot_width for overpartition_parts(q_order).

    Euler's two identities expand the product: the a^d row of the x^j
    coefficient is q^{d + k d(d-1)/2} / ((q^k; q^k)_d (q; q)_{j-kd}), zero
    when kd > j, for d <= max_overline_count(k, q_order).  Row d starts at
    j = kd as q^{least_weight(k, d)} divided by (1 - q^{kt}), t = 1..d, and
    each later j divides it by (1 - q^{j-kd}), since row(j, d) =
    row(j-1, d) / (1 - q^{j-kd}).  Each division runs doubling steps
    row += q^s row, s = p, 2p, 4p, ... <= q_order, written here and run by
    no other route, so the only code it shares with the stream it must
    equal is the packed format and the a-order bound.

    Every value formed is at most the matching coefficient of the x^j term,
    which is R_j's, so the stream's width bounds it.  The guard bits are
    read once per j, after its divisions; a slot holding one raises
    SlotOverflowError naming j and the width.  Given up, as in r_terms: a
    carry could clear a guard bit before the read were the width wrong by
    GUARD_BITS bits or more.  The parameters are checked at the call,
    before the first term.
    """
    check_params(k, j_top=j_top, q_order=q_order)
    return _closed_product_terms(k, j_top, q_order)


def _closed_product_terms(k: int, j_top: int, q_order: int) -> Iterator:
    d_max = max_overline_count(k, q_order)
    width = packed.slot_width(q_order, *overpartition_parts(q_order))
    guard = packed.guard_mask(width, q_order + 1)

    def divided(row, p):  # row / (1 - q^p), the slots past q^{q_order} dropped
        s = p
        while s <= q_order:
            row += row >> width * s
            s += s
        return row

    rows = [0] * (d_max + 1)
    for j in range(j_top + 1):
        for d in range(min(-(-j // k), d_max + 1)):  # the rows started before j
            rows[d] = divided(rows[d], j - k * d)
        d, r = divmod(j, k)
        if r == 0 and d <= d_max:
            row = 1 << width * (q_order - least_weight(k, d))
            for t in range(1, d + 1):
                row = divided(row, k * t)
            rows[d] = row
        if any(row & guard for row in rows):
            raise packed.SlotOverflowError(
                f"slot overflow: the closed product's x^{j} coefficient reached the guard bits"
                f" of its {width}-bit slots at q_order={q_order}")
        yield PackedTerm(tuple(rows), width, q_order)


def require_depth(k: int, j_max: int, q_order: int) -> None:
    """Refuse a limit that cannot be certified: the settling check at j_max
    covers every q^e below q_order + 1 only when j_max >= q_order + k."""
    if j_max < q_order + k:
        raise StabilizationError(f"not stabilized: j_max={j_max} < q_order+k={q_order + k}")


def limit_step(k: int, j: int, term, prev) -> PackedTerm:
    """One step of the settling check at j >= k: the PackedTerm R_j = term
    must equal R_{j-1} = prev below q^{j-k+1}.  Returns R_j, the limit so far.

    By the closed form the coefficient of q^e is fixed for j >= e + k - 1, so
    a difference below q^{j-k+1} is a settled coefficient that changed; it
    raises with its (a-degree, q-degree), the lowest of each.  Shifting out
    the slots from q^{j-k+1} up leaves the slots compared.
    """
    width = term.width
    slots = min(j - k + 1, term.q_order + 1)
    cut = width * (term.q_order + 1 - slots)
    for m, (row, before) in enumerate(zip(term.rows, prev.rows)):
        kept, kept_before = row >> cut, before >> cut
        if kept != kept_before:
            e = packed.first_slot(kept, kept_before, width, slots)
            raise StabilizationError(
                f"not stabilized: coefficient of a^{m} q^{e} changes between"
                f" j={j - 1} and j={j}, though it settles by j={e + k - 1}",
                witness=(m, e),
            )
    return term


def appell_limit(rs: RSequence) -> BivariateSeries:
    """The formal evaluation of lim_{x->1} (1-x) F(a,x,q): R_{j_max}, certified.

    limit_step at each k <= j <= j_max, on the packed terms: R_j agrees with
    R_{j-1} below q^{j-k+1}.  As that window grows with j, the agreements
    chain forward: they hold exactly when each R_j agrees with R_{j_max}
    below q^{j-k+2}, the closed form's settling bound.  require_depth makes
    the last step cover every q^e; the first changed coefficient raises with
    its (a-degree, q-degree).
    """
    require_depth(rs.k, rs.j_max, rs.q_order)
    for j in range(rs.k, rs.j_max + 1):
        limit_step(rs.k, j, rs.terms[j], rs.terms[j - 1])
    return unpack(rs.terms[-1])


def theorem_product(k: int, q_order: int, a_order: int | None = None) -> BivariateSeries:
    """The product side (-aq; q^k)_inf / (q; q)_inf of the overpartition identity.

    Row 0 starts as 1/(q; q)_inf, 1 divided by Euler's product by the
    pentagonal recurrence (_divide), the one division, so 1/(q; q)_inf
    is never convolved.  The numerator prod (1 + a q^e), e = 1, 1 + k, ...,
    then multiplies into the a-rows in place, largest e first.  With lo
    the last e taken, row m - 1 is zero below least_weight(k, m - 1, lo),
    so a factor adds row m - 1, shifted by e, to row m only from there.
    Rows are updated from the top a-degree down, so each reads its
    neighbour before the factor."""
    check_params(k, q_order=q_order, a_order=a_order)
    if a_order is None:
        a_order = max_overline_count(k, q_order)
    n1 = q_order + 1
    rows = [_divide([1] + [0] * q_order, euler_product(q_order).coeffs)]
    rows += [[0] * n1 for _ in range(a_order)]
    lo = n1
    for e in reversed(range(1, n1, k)):
        for m in range(a_order, 0, -1):
            s = least_weight(k, m - 1, lo)
            if e + s < n1:
                rows[m][e + s :] = map(add, rows[m][e + s :], rows[m - 1][s : n1 - e])
        lo = e
    return BivariateSeries(tuple(map(tuple, rows)))


def pj_series(k: int, terms, j: int) -> PackedTerm:
    """P_j built independently as a sum over the largest overline position,
    from the stream's terms: terms[-1] is R_j and terms[-1 - t] is R_{j-t}.

    An admissible configuration with parts <= j either has no overline above
    j-k+1 (counted by R_j), or its largest overline b lies in
    {j-k+2, ..., j}; removing that overline forbids plain parts in [b, j]
    and overlines above b-k, leaving exactly the configurations of R_{b-1}.
    Hence P_j = R_j + sum_b a q^b R_{b-1}, which reads only the last k
    terms: row m is R_j's row m plus row m - 1 of each R_{b-1} shifted right
    by q^b, dropping the slots past q^{q_order}.  P_j counts D_k objects, so
    its slots stay under the stream's bound.
    """
    term = terms[-1]
    rows = list(term.rows)
    for b in range(max(1, j - k + 2), j + 1):
        bits = term.width * b
        for m, low in enumerate(terms[b - j - 2].rows[:-1], 1):  # R_{b-1}
            rows[m] += low >> bits
    return PackedTerm(tuple(rows), term.width, term.q_order)


def congruence_product_series(k: int, i: int, q_order: int) -> QSeries:
    """The product (-q^{2i+1}; q^{2k})_inf / (q^2; q^2)_inf of the corollary family.

    Expanded from the product itself, sharing no algorithm with the allowed
    parts that count_B_table's knapsack sums over, so the two are
    independent routes to B_{i,k}.  The finite numerator prod (1 + q^e) is
    packed, q^0 on top, as 1 + rest, the 1 kept outside: taking the largest
    e first, (1 + rest)(1 + q^e) adds q^e and rest shifted by e, and rest
    stays short while e is large.  It runs in its own slots,
    packed.slot_width's bound on prod (1 + q^e) alone, or w if that is no
    narrower; w is the bound on the product's own coefficients, which
    bound the numerator's too.  Narrower, rest's guard bits are read once,
    a trip raising SlotOverflowError naming the numerator's width, and
    each slot is widened to w (packed.widen).

    Read at width 2w, after a zero slot when q_order is even, each chunk is
    the column (q^{2d}, q^{2d+1}), so both parity classes are divided by
    Euler's product (q; q)_inf, which is 1/(q^2; q^2)_inf on the exponents
    of one parity, in one call of _divide.  The recurrence is linear
    over the integers, so the quotient columns are exact and only the
    product's coefficients need to fit their slots.  Each column is read
    back with its low slot signed, so a wrong division still reaches the
    comparison, and a coefficient at or above 2^{w - GUARD_BITS} raises
    SlotOverflowError naming the width.  Given up, as in r_terms: were the
    width wrong by two bits or more, a low slot could pass 2^{w-1} and read
    negative, and then fail the comparison rather than abort.
    """
    check_params(k, i, q_order=q_order)
    n = q_order
    odd = range(2 * i + 1, n + 1, 2 * k)
    w = packed.slot_width(n, range(2, n + 1, 2), odd)
    own = min(packed.slot_width(n, (), odd), w)
    rest = 0
    for e in reversed(odd):
        rest += (1 << own * (n - e)) + (rest >> own * e)
    if own < w:
        if rest & packed.guard_mask(own, n) or rest >> own * n:
            raise packed.SlotOverflowError(
                f"slot overflow: the B_{{{i},{k}}} product's numerator reached the guard bits"
                f" of its {own}-bit slots at q_order={n}")
        rest = packed.widen(rest, own, w, n)
    cols = n // 2 + 1
    numerator = ((1 << w * n) + rest) << w * (2 * cols - 1 - n)
    quotient = _divide(packed.read_slots(numerator, 2 * w, cols), euler_product(n // 2).coeffs)
    low, sign = (1 << w) - 1, 1 << (w - 1)
    coeffs = []
    for col in quotient:
        lo = col & low
        lo -= (lo & sign) << 1
        coeffs += ((col - lo) >> w, lo)
    del coeffs[n + 1 :]
    top = 1 << (w - packed.GUARD_BITS)
    if max(coeffs) >= top:
        e = next(e for e, c in enumerate(coeffs) if c >= top)
        raise packed.SlotOverflowError(
            f"slot overflow: the B_{{{i},{k}}} product's q^{e} coefficient reached the guard"
            f" bits of its {w}-bit slots at q_order={n}")
    return QSeries(tuple(coeffs))
