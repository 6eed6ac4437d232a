"""Acceptance suite: every criterion at its stated range, with time budgets.

Each test prints one pass/fail line; run with `pytest tests/test_acceptance.py -s`
to see them as they complete.
"""

import random
import time

from qident import overpartitions, partitions, verify
from qident.series import Monomial, QSeries, euler_product, pochhammer_inf

from test_series import pentagonal_series


def _report(name, ok, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {name}: {status} ({elapsed:.1f}s, budget {budget}s)")
    assert ok
    assert elapsed < budget, f"{name} exceeded {budget}s ({elapsed:.1f}s)"


def test_criterion_1_golden_example():
    start = time.perf_counter()
    rep = verify.golden_example_n10()
    ok = rep.status == "pass"
    b = partitions.count_B_table(10, 2, 0)[10]
    c = partitions.count_C(10, 2, 0)
    ok = ok and b == 10 and c == 10
    _report("1 golden-n10", ok, time.perf_counter() - start, 1.0)


def test_criterion_2_overpartition_identity():
    start = time.perf_counter()
    ok = True
    for k in (2, 3, 4, 5):
        rep = verify.verify_overpartition(k, 22, 22)
        ok = ok and rep.status == "pass"
    _report("2 overpartition k=2..5 n<=22", ok, time.perf_counter() - start, 60.0)


def test_criterion_3_corollary_family():
    start = time.perf_counter()
    ok = True
    for k in (2, 3, 4, 5):
        for i in range(k):
            rep = verify.verify_corollary(k, i, n_max=200, enum_limit=25)
            ok = ok and rep.status == "pass"
            if i in (0, k - 1):
                ok = ok and any("thm1" in note for note in rep.notes)
    _report("3 corollary grid n<=25 enum, n<=200 series", ok, time.perf_counter() - start, 90.0)


def test_criterion_4_schur():
    start = time.perf_counter()
    rep = verify.verify_schur(40)
    _report("4 schur n<=40", rep.status == "pass", time.perf_counter() - start, 30.0)


def test_criterion_5_machinery():
    start = time.perf_counter()
    ok = True
    for k in (2, 3, 4):
        rep = verify.verify_machinery(k, q_order=60, j_max=65,
                                      closed_product_j=10, enum_j=10, enum_n=18)
        ok = ok and rep.status == "pass" and all(s.status == "pass" for s in rep.subreports)
    rep = verify.verify_machinery(2, q_order=240)
    ok = ok and rep.range == {"q_order": 240, "j_max": 242}
    ok = ok and rep.status == "pass" and all(s.status == "pass" for s in rep.subreports)
    _report("5 machinery k=2..4 q_order=60, k=2 q_order=240", ok, time.perf_counter() - start, 60.0)


def test_criterion_6_property_suites():
    start = time.perf_counter()
    ok = True

    # series-core ring axioms on seeded random series
    rng = random.Random(2024)
    for _ in range(100):
        a, b, c = (
            QSeries(tuple(rng.randint(-9, 9) for _ in range(9))) for _ in range(3)
        )
        ok = ok and ((a * b) * c).coeffs == (a * (b * c)).coeffs
        ok = ok and (a * (b + c)).coeffs == (a * b + a * c).coeffs
        unit = QSeries((rng.choice([1, -1]),) + tuple(rng.randint(-9, 9) for _ in range(8)))
        ok = ok and (unit * unit.invert_unit()).coeffs == (1,) + (0,) * 8

    # pentagonal-number oracle and the factor-by-factor product at q-order 200
    ok = ok and euler_product(200).coeffs == pentagonal_series(200)
    ok = ok and euler_product(200) == pochhammer_inf(Monomial(0, 1, -1), 1, 200).to_qseries()

    # specialization injectivity and image characterization, weights <= 12
    for k, i in [(2, 0), (2, 1), (3, 0), (3, 2)]:
        images = {}
        for w in range(13):
            for o in overpartitions.enumerate_overpartitions(w):
                if overpartitions.is_Dk_admissible(o, k):
                    img = overpartitions.specialize_overpartition(o, i, k)
                    ok = ok and img not in images
                    images[img] = o
        for n in range(13):
            got = {img for img in images if sum(img) == n}
            ok = ok and got == set(partitions.c_witnesses(n, k, i, "corollary"))

    _report("6 property suites", ok, time.perf_counter() - start, 120.0)
