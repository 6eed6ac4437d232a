"""Top-level identity verifiers and their report format.

Each verifier computes both sides of an identity by independent routes
and reports agreement or the first discrepancy.  The sum sides are
counted by the transfer-matrix sweep; the C and Schur sides are also
tallied from the enumeration walk their witness lists take.  The
product sides with Euler's product as their denominator (D_k's, the
corollary's, and the theorem's product the Appell limit must equal) are
never expanded: appell.euler_check multiplies the counted table by
Euler's product and compares it with the product's numerator, so no
verifier divides; Schur's product is counted by its knapsack.  Reports
are deterministic apart from the timing field, and a report never claims a
pass for a range it did not fully check.  Only a walk is refused past
ENUM_HARD_LIMIT: the C and Schur walks' ranges come back "aborted", and a
D_k witness past it lists no objects.  The sweeps run to any n.

Every verifier turns bad input (`partitions.check_params`, the rule the
library functions raise) or a refused range into an `aborted` report, and
its first witness, or None, into a fail or pass report through `_outcome`.
`verify_machinery` builds R_j once, as a stream, and runs its four stages
in one loop over it; each stage returns its first witness, or None.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field

from . import appell, overpartitions, packed, partitions

SCHEMA_VERSION = 1

# A walk beyond this weight is refused rather than attempted.
ENUM_HARD_LIMIT = 45

WITNESS_CAP = 50


@dataclass
class VerificationReport:
    identity: str
    params: dict
    range: dict
    status: str  # "pass" | "fail" | "aborted"
    witness: dict | None = None
    timing: float = 0.0
    notes: list = field(default_factory=list)
    subreports: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.status == "pass" and all(r.passed for r in self.subreports)

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "identity": self.identity,
            "params": self.params,
            "range": self.range,
            "status": self.status,
            "witness": self.witness,
            "timing": self.timing,
            "notes": list(self.notes),
            "subreports": [r.to_dict() for r in self.subreports],
        }

    def render_text(self, indent: str = "") -> str:
        params = " ".join(f"{k}={v}" for k, v in self.params.items())
        rng = " ".join(f"{k}={v}" for k, v in self.range.items())
        lines = [
            f"{indent}{self.identity}"
            + (f" [{params}]" if params else "")
            + (f" ({rng})" if rng else "")
            + f": {self.status.upper()}  ({self.timing:.2f}s)"
        ]
        for note in self.notes:
            lines.append(f"{indent}  note: {note}")
        if self.witness is not None:
            for k, v in self.witness.items():
                lines.append(f"{indent}  witness {k}: {v}")
        for sub in self.subreports:
            lines.append(sub.render_text(indent + "  "))
        return "\n".join(lines)


def _cap(items: list) -> list:
    out = [str(x) for x in items[:WITNESS_CAP]]
    if len(items) > WITNESS_CAP:
        out.append(f"... ({len(items) - WITNESS_CAP} more truncated)")
    return out


def _timed(report: VerificationReport, start: float) -> VerificationReport:
    report.timing = time.perf_counter() - start
    return report


def _aborted(identity: str, params: dict, rng: dict, note: str, start: float) -> VerificationReport:
    return _timed(VerificationReport(identity, params, rng, "aborted", notes=[note]), start)


def _outcome(
    identity: str, params: dict, rng: dict, witness: dict | None, start: float, notes=()
) -> VerificationReport:
    """The one way a finished check becomes a report: fail with the witness,
    or pass when there is none."""
    status = "pass" if witness is None else "fail"
    return _timed(VerificationReport(identity, params, rng, status, witness, notes=list(notes)), start)


_REFUSED = f"enumeration refused beyond n={ENUM_HARD_LIMIT}"


def _refuse_beyond(n: int) -> None:
    if n > ENUM_HARD_LIMIT:
        raise ValueError(_REFUSED)


# ---------------------------------------------------------------------------
# Theorem 1.4-style overpartition identity
# ---------------------------------------------------------------------------


def verify_overpartition(k: int, n_max: int, m_max: int | None = None) -> VerificationReport:
    """D_k(m, n) from the sweep vs. the coefficient of a^m q^n in the product
    (-aq; q^k)_inf / (q; q)_inf, for m <= m_max: by default every a-row a
    weight n_max holds (appell.max_overline_count), and at least
    min(n_max, 8).  The product's coefficients are never formed:
    appell.euler_check multiplies each a-row of the table by (q; q)_inf and
    compares it with the same row of prod (1 + a q^e), e = 1 mod k, and the
    first differing cell in (n, m) order is the witness.  A slot overflow
    in the sweep or the numerator aborts the report, naming the slot width;
    a pass notes the width the check ran in."""
    start = time.perf_counter()
    params = {"k": k}
    rng = {"n_max": n_max, "m_max": min(n_max, 8) if m_max is None else m_max}
    try:
        partitions.check_params(k, n_max=n_max, m_max=m_max)
        if m_max is None:  # the bound needs the k and n_max just checked
            rng["m_max"] = max(rng["m_max"], appell.max_overline_count(k, n_max))
        m_max = rng["m_max"]
        table = overpartitions.count_Dk_table(n_max, k, m_max)
        width, cells = appell.euler_check(
            table, 1, range(1, n_max + 1, k), f"the D_{k} product's numerator", m_max)
    except (ValueError, packed.SlotOverflowError) as exc:
        return _aborted("overpartition", params, rng, str(exc), start)
    witness, notes = None, []
    if not cells:
        notes = [f"the sweep's table times (q; q)_inf equals the numerator prod (1 + a q^e),"
                 f" e = 1 mod {k}, on every a-row m <= {m_max} at every n <= {n_max},"
                 f" on {width}-bit slots"]
    else:
        m, n, count, coefficient = min(cells, key=lambda cell: (cell[1], cell[0]))
        counts = {"sweep_count": count, "product_coefficient": coefficient}
        if n <= ENUM_HARD_LIMIT:
            # the objects listed at the first difference; their number is the
            # enumeration count, a third count beside the sweep's and the product's
            objects = overpartitions.d_witnesses(m, n, k)
            witness = {"n": n, "m": m, "enumeration_count": len(objects), **counts,
                       "overpartitions": _cap(objects)}
        else:
            witness = {"n": n, "m": m, **counts}
            notes = [f"no objects listed: {_REFUSED}"]
    return _outcome("overpartition", params, rng, witness, start, notes)


# ---------------------------------------------------------------------------
# The corollary family (Andrews family at i=k-1, its dual at i=0)
# ---------------------------------------------------------------------------


def verify_corollary(
    k: int, i: int, n_max: int = 200, enum_limit: int = 25
) -> VerificationReport:
    """Three-way check B = C = product coefficient up to enum_limit, then
    two-way DP-vs-product up to n_max.  The product
    (-q^{2i+1}; q^{2k})_inf / (q^2; q^2)_inf is never expanded:
    appell.euler_check multiplies B's table by (q^2; q^2)_inf and compares
    it with the numerator prod (1 + q^e), e = 2i+1 mod 2k, and its first
    differing n, with the product's coefficient there, is where B and the
    product first differ.  A slot overflow in B's packed knapsack, the
    product's packed numerator or the C sweep (the D_k moves, specialized)
    aborts the report, naming the slot width; a pass notes the width the
    check ran in, and the knapsack's width and the bound it rests on."""
    start = time.perf_counter()
    params = {"k": k, "i": i}
    enum_top = min(n_max, enum_limit)
    rng = {"n_max": n_max, "enum_limit": enum_top}
    try:
        partitions.check_params(k, i, n_max=n_max, enum_limit=enum_limit)
        _refuse_beyond(enum_top)
        b_table = partitions.count_B_table(n_max, k, i)
        width, cells = appell.euler_check(
            [b_table], 2, range(2 * i + 1, n_max + 1, 2 * k), f"the B_{{{i},{k}}} product's numerator")
        c_sweep = partitions.count_C_table(enum_top, k, i)
    except (ValueError, packed.SlotOverflowError) as exc:
        return _aborted("corollary", params, rng, str(exc), start)
    alt_phrasing = "thm12" if i == k - 1 else ("thm13" if i == 0 else None)
    c_table = partitions.walk_C_table(enum_top, k, i, "corollary")
    alt_table = (
        partitions.walk_C_table(enum_top, k, i, alt_phrasing) if alt_phrasing is not None else None
    )
    witness, notes = None, []
    # the first n where B differs from the product, if any
    off = {n: coefficient for _, n, _, coefficient in cells}
    # the first disagreement, in this order: B against the product, then C
    # (the walk, then the sweep) against B, then the theorem phrasing
    # against the walk
    for n, count_b in enumerate(b_table):
        enumerated = n <= enum_top
        if n in off:
            witness = {"n": n, "count_B": count_b, "product_coefficient": off[n]}
        elif enumerated and (c_table[n] != count_b or c_sweep[n] != count_b):
            walked = c_table[n] != count_b
            witness = {
                "n": n,
                "count_B": count_b,
                "count_C": c_table[n] if walked else c_sweep[n],
                **({} if walked else {"route": "sweep"}),
                "B_partitions": _cap(
                    [partitions.format_partition(p) for p in partitions.b_witnesses(n, k, i)]
                ),
                "C_partitions": _cap(
                    [partitions.format_partition(p) for p in partitions.c_witnesses(n, k, i)]
                ),
            }
        elif enumerated and alt_table is not None and alt_table[n] != c_table[n]:
            witness = {
                "n": n,
                "count_C_corollary": c_table[n],
                f"count_C_{alt_phrasing}": alt_table[n],
            }
            notes = [f"phrasing {alt_phrasing} diverged from corollary phrasing"]
        if witness is not None:
            break
    else:
        if alt_phrasing is not None:
            notes.append(
                f"theorem phrasing '{alt_phrasing}' agreed with the corollary phrasing for n <= {enum_top}"
            )
        notes.append(
            f"three-way check for n <= {enum_top}; B times (q^2; q^2)_inf equals the numerator"
            f" prod (1 + q^e), e = {2 * i + 1} mod {2 * k}, at every n <= {n_max},"
            f" on {width}-bit slots")
        notes += _knapsack_note("B's knapsack", n_max, partitions.b_parts(n_max, k, i))
    return _outcome("corollary", params, rng, witness, start, notes)


def _knapsack_note(what: str, n_max: int, allowed: list) -> list:
    """The note on the parts _count_by_dp packs from allowed, if it packs
    any: the last stage's width and bound, and the narrower stages before it."""
    parts = partitions.packed_parts(n_max, allowed)
    if not parts:
        return []
    note = packed.slot_note(f"{what}'s parts p with p^2 > {n_max}", n_max, parts)
    *stages, _ = partitions.knapsack_stages(n_max, parts)
    if stages:
        note += "; the stages before it ran " + ", ".join(
            f"the parts above {low} in {width}-bit slots" for low, width in stages) + (
            f", each stage's counts at most F(x)/x^{n_max} at its own x,"
            f" F(x) = prod 1/(1 - x^p) over low < p <= {n_max}")
    return [note]


def verify_andrews(k: int, n_max: int = 200, enum_limit: int = 25) -> VerificationReport:
    report = verify_corollary(k, k - 1, n_max, enum_limit)
    report.identity = "andrews"
    return report


def verify_dual(k: int, n_max: int = 200, enum_limit: int = 25) -> VerificationReport:
    report = verify_corollary(k, 0, n_max, enum_limit)
    report.identity = "dual"
    return report


# ---------------------------------------------------------------------------
# Schur
# ---------------------------------------------------------------------------


def verify_schur(n_max: int = 40) -> VerificationReport:
    """The product's knapsack against the gap partitions' walk and sweep.  A
    slot overflow in the knapsack or the sweep aborts the report, naming
    the slot width; a pass notes the knapsack's width and the bound it
    rests on."""
    start = time.perf_counter()
    rng = {"n_max": n_max}
    try:
        partitions.check_params(n_max=n_max)
        _refuse_beyond(n_max)
        product = partitions.count_schur_product_table(n_max)
        swept = partitions.count_schur_gap_table(n_max)
    except (ValueError, packed.SlotOverflowError) as exc:
        return _aborted("schur", {}, rng, str(exc), start)
    routes = (("gap_count", partitions.walk_schur_gap_table(n_max)), ("sweep_count", swept))
    witnesses = (
        {
            "n": n,
            "product_count": product[n],
            route: gap[n],
            "gap_partitions": _cap(
                [partitions.format_partition(p) for p in partitions.schur_gap_witnesses(n)]
            ),
        }
        for n in range(n_max + 1)
        for route, gap in routes
        if gap[n] != product[n]
    )
    witness = next(witnesses, None)
    notes = _knapsack_note("the product's knapsack", n_max, partitions.schur_parts(n_max))
    return _outcome("schur", {}, rng, witness, start, notes if witness is None else ())


# ---------------------------------------------------------------------------
# Proof machinery
# ---------------------------------------------------------------------------


def verify_machinery(
    k: int,
    q_order: int = 60,
    j_max: int | None = None,
    closed_product_j: int = 10,
    enum_j: int = 10,
    enum_n: int = 18,
) -> VerificationReport:
    """Bundle the recursion-level checks into one report, a timed sub-report
    per stage.

    R_0..R_{j_max} are built once, by appell.r_terms, and each stage checks
    them as they arrive through a window of the last k + 1 terms, so no more
    is kept than the window.  The terms are packed: the closed-product and
    bounded stages compare their rows as integers, the functional equation
    and the limit steps read them packed, and the limit stage checks its
    last term, packed, against the theorem's product.  A stage is a
    generator: it is sent the window once per term until it returns
    (witness or None, notes), or raises
    StabilizationError, or SlotOverflowError from its own sweep, to abort,
    and its time is the sum of its own steps.  A slot overflow in the
    stream aborts every stage that has not yet returned.
    """
    start = time.perf_counter()
    if j_max is None:
        # the least j_max for which the Appell limit checks every q^d settled
        j_max = q_order + k
    params = {"k": k}
    rng = {"q_order": q_order, "j_max": j_max}
    try:
        partitions.check_params(
            k, q_order=q_order, j_max=j_max, closed_product_j=closed_product_j,
            enum_j=enum_j, enum_n=enum_n,
        )
    except ValueError as exc:
        return _aborted("machinery", params, rng, str(exc), start)
    cp_rng = {"j_max": min(closed_product_j, j_max)}
    enum_rng = {"j_max": min(enum_j, j_max), "n_max": min(enum_n, q_order)}
    stages = (
        ("machinery/functional-equation", {"j_max": j_max}, _functional_equation(k, q_order, j_max)),
        ("machinery/closed-product", cp_rng,
         _closed_product(k, q_order, cp_rng["j_max"])),
        ("machinery/appell-limit", {"q_order": q_order}, _appell_limit(k, q_order, j_max)),
        ("machinery/bounded-enumeration", enum_rng,
         _bounded_enumeration(k, q_order, enum_rng["j_max"], enum_rng["n_max"])),
    )
    outcomes, seconds = [None] * len(stages), [0.0] * len(stages)

    def step(n, window):
        t0 = time.perf_counter()
        try:
            stages[n][2].send(window)
        except StopIteration as done:
            outcomes[n] = done.value
        except (appell.StabilizationError, packed.SlotOverflowError) as exc:
            outcomes[n] = exc
        seconds[n] += time.perf_counter() - t0

    for n in range(len(stages)):
        step(n, None)  # runs each stage up to its first term
    window = deque(maxlen=k + 1)  # R_{j-k}..R_j
    try:
        for term in appell.r_terms(k, j_max, q_order):
            window.append(term)
            for n, outcome in enumerate(outcomes):
                if outcome is None:
                    step(n, window)
            if None not in outcomes:
                break
    except packed.SlotOverflowError as exc:
        # the stream stopped: every stage it had not decided is aborted
        outcomes = [exc if outcome is None else outcome for outcome in outcomes]
    subs = []
    for (name, stage_rng, _), outcome, timing in zip(stages, outcomes, seconds):
        if isinstance(outcome, Exception):
            status, witness, notes = "aborted", None, [f"aborted: {outcome}"]
        else:
            witness, notes = outcome
            status = "pass" if witness is None else "fail"
        subs.append(VerificationReport(name, params, stage_rng, status, witness, timing, notes))
    # a mismatch found decides over a stage that could not certify: fail over
    # aborted over pass
    overall = max((s.status for s in subs), key=("pass", "aborted", "fail").index)
    return _timed(VerificationReport("machinery", params, rng, overall, subreports=subs), start)


def _functional_equation(k: int, q_order: int, j_max: int):
    """R_j against R_{j-1} + q^j R_j + a q^{j-k+1} R_{j-k}, read from the
    window, for 1 <= j <= j_max.  The note names the packed terms' slot
    width and the bound it rests on."""
    window = yield  # R_0 has no equation
    notes = [packed.slot_note("R_j's a-rows", q_order, *overpartitions.overpartition_parts(q_order))]
    for j in range(1, j_max + 1):
        window = yield
        low = window[0] if j >= k else None
        diff = appell.functional_equation_step(k, j, window[-1], window[-2], low)
        if diff is not None:
            return dict(zip(("j", "a_degree", "q_degree"), (j, *diff))), notes
    return None, notes


def _closed_product(k: int, q_order: int, j_top: int):
    """The closed product's x^j coefficients against R_j as each arrives,
    both packed in the stream's width and compared row by row as integers.
    Where rows differ, both terms are unpacked, each in its own width (so a
    narrowed route is compared by value), and their first_difference is the
    witness cell.  The x^j term is built only once R_j has arrived, so a
    stream that stops aborts the stage before the closed form runs past it."""
    xc = iter(appell.closed_product_F_coefficients(k, j_top, q_order))
    for j in range(j_top + 1):
        term = (yield)[-1]
        coeff = next(xc)
        if coeff.rows != term.rows:
            cell = appell.unpack(coeff).first_difference(appell.unpack(term))
            if cell is not None:
                return dict(zip(("j", "a_degree", "q_degree"), (j, *cell))), []
    return None, []


def _appell_limit(k: int, q_order: int, j_max: int):
    """The certified limit of R_j against the theorem's product.  A settled
    coefficient that changes later is a mismatch found, so it fails with its
    cell; a limit too short to certify aborts before the first term.  The
    limit R_{j_max} stays packed: appell.euler_check widens its rows,
    multiplies them by (q; q)_inf and compares them with the numerator
    prod (1 + a q^e), e = 1 mod k, and the first differing cell, a-degree
    first, is the witness."""
    appell.require_depth(k, j_max, q_order)
    try:
        for j in range(j_max + 1):
            window = yield
            if j >= k:
                lim = appell.limit_step(k, j, window[-1], window[-2])
    except appell.StabilizationError as exc:
        return dict(zip(("a_degree", "q_degree"), exc.witness)), [str(exc)]
    width, cells = appell.euler_check(
        lim, 1, range(1, q_order + 1, k), f"the D_{k} product's numerator", len(lim.rows) - 1)
    if cells:
        m, n, limit, product = cells[0]
        return {"a_degree": m, "q_degree": n, "limit": limit, "product": product}, []
    return None, [f"every q^d settled by j = d + {k - 1}, through j = {j_max}",
                  f"R_{j_max} times (q; q)_inf equals the numerator prod (1 + a q^e),"
                  f" e = 1 mod {k}, on every a-row at every q^d, d <= {q_order}, on {width}-bit slots"]


def _bounded_enumeration(k: int, q_order: int, j_top: int, n_top: int):
    """The counts r_j(m, n), p_j(m, n), read off one D_k sweep after each
    value j, against the coefficients of R_j, P_j for j <= j_top, n <= n_top
    and every m the truncation holds; the first mismatch in (j, n, m) order,
    R before P, is the witness.  The sweep steps with the stream at weight
    q_order, so its rows are packed in the stream's width; P_j is added up
    from the window's packed terms.  Every row is shifted down to q^{n_top}
    and compared as an integer.  Only a j whose rows differ is unpacked
    (appell.unpack, each term in its own width) to find the witness cell."""
    m_top = appell.max_overline_count(k, n_top)  # n_top <= q_order: R_j's rows reach m_top

    def head(term):  # the rows up to q^{n_top}, as integers
        bits = term.width * (q_order - n_top)
        return [row >> bits for row in term.rows[: m_top + 1]]

    for j, states in enumerate(overpartitions.dk_sweep(q_order, k, m_top, j_top)):
        window = list((yield))
        routes = (("R", states[k], window[-1]),
                  ("P", partitions.state_total(states), appell.pj_series(k, window, j)))
        if all(head(counts) == head(coeffs) for _, counts, coeffs in routes):
            continue
        read = [(series, appell.unpack(counts).coeffs, appell.unpack(coeffs).coeffs)
                for series, counts, coeffs in routes]
        for n in range(n_top + 1):
            for m in range(m_top + 1):
                for series, counts, coeffs in read:
                    if counts[m][n] != coeffs[m][n]:
                        return {"series": series, "j": j, "m": m, "n": n,
                                "enumeration": counts[m][n], "coefficient": coeffs[m][n]}, []
    return None, []


# ---------------------------------------------------------------------------
# The worked example at n = 10
# ---------------------------------------------------------------------------

GOLDEN_PRODUCT_SIDE_10 = frozenset(
    [
        (9, 1),
        (8, 1, 1),
        (6, 4),
        (6, 1, 1, 1, 1),
        (5, 5),
        (5, 4, 1),
        (5, 1, 1, 1, 1, 1),
        (4, 4, 1, 1),
        (4, 1, 1, 1, 1, 1, 1),
        (1,) * 10,
    ]
)

GOLDEN_SUM_SIDE_10 = frozenset(
    [
        (10,),
        (9, 1),
        (8, 2),
        (7, 3),
        (6, 4),
        (6, 2, 2),
        (5, 4, 1),
        (4, 4, 2),
        (4, 2, 2, 2),
        (2, 2, 2, 2, 2),
    ]
)


def golden_example_n10() -> VerificationReport:
    """Reproduce the worked (k, i) = (2, 0), n = 10 example exactly."""
    start = time.perf_counter()
    params = {"k": 2, "i": 0, "n": 10}
    notes = [
        "the source's sum-side label reads C_{0,1}; treated as a typo for C_{0,2}",
    ]
    product_side = set(partitions.b_witnesses(10, 2, 0))
    sum_side = set(partitions.c_witnesses(10, 2, 0, "thm13"))
    sum_side_corollary = set(partitions.c_witnesses(10, 2, 0, "corollary"))
    # at i = 0 an object of weight w with m overlines specializes to weight
    # 2w - m, so the preimages of weight 10 are those with m = 2w - 10
    image = {
        overpartitions.specialize_overpartition(o, 0, 2)
        for w in range(5, 11)
        for o in overpartitions.d_witnesses(2 * w - 10, w, 2)
    }
    problems = {}
    if product_side != GOLDEN_PRODUCT_SIDE_10:
        problems["product_side_only"] = _cap(sorted(product_side - GOLDEN_PRODUCT_SIDE_10))
        problems["product_expected_only"] = _cap(sorted(GOLDEN_PRODUCT_SIDE_10 - product_side))
    if sum_side != GOLDEN_SUM_SIDE_10:
        problems["sum_side_only"] = _cap(sorted(sum_side - GOLDEN_SUM_SIDE_10))
        problems["sum_expected_only"] = _cap(sorted(GOLDEN_SUM_SIDE_10 - sum_side))
    if sum_side_corollary != sum_side:
        problems["corollary_vs_thm13"] = "phrasings disagree at n=10"
    if image != sum_side:
        problems["specialization_image"] = _cap(sorted(image ^ sum_side))
    if len(product_side) != 10 or len(sum_side) != 10:
        problems["counts"] = {"B": len(product_side), "C": len(sum_side)}
    return _outcome("golden-n10", params, {"n": 10}, problems or None, start, notes)


# ---------------------------------------------------------------------------
# Full suite
# ---------------------------------------------------------------------------


def verify_all(k_max: int = 5) -> list:
    """The default desk-scale suite over every identity and parameter cell,
    run in this process, in order.

    The k-indexed cells (overpartition, corollary, machinery) run for
    2 <= k <= k_max, so k_max < 2 runs only golden-n10 and schur.
    """
    # the verifiers are read from the module at call time, so a patched one is run
    specs = [(golden_example_n10, ()), (verify_schur, (40,))]
    for k in range(2, k_max + 1):
        specs.append((verify_overpartition, (k, 22)))
        specs += [(verify_corollary, (k, i, 200, 25)) for i in range(k)]
        # the Appell limit needs j_max >= q_order + k, past 65 once k > 5
        specs.append((verify_machinery, (k, 60, max(65, 60 + k))))
    return [fn(*args) for fn, args in specs]
