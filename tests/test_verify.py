"""Verifier reports, mutation behaviour, route independence, and the command-line interface."""

import ast
import gc
import inspect
import json
import re
import sys
import tracemalloc
from collections import Counter
from collections.abc import Callable, Iterator
from functools import partial
from pathlib import Path
from typing import NamedTuple

import pytest
from click.testing import CliRunner

import qident
from qident import appell, cli, overpartitions, packed, partitions, verify
from qident.cli import main
from qident.series import BivariateSeries, QSeries
import test_frozen_tables
from test_overpartitions import entries_string, filter_admissible


class TestReports:
    def test_pass_reports(self):
        assert verify.verify_overpartition(2, 10).status == "pass"
        assert verify.verify_overpartition(5, 0).status == "pass"
        assert verify.verify_schur(12).status == "pass"
        assert verify.verify_corollary(2, 1, 40, 15).status == "pass"

    def test_andrews_and_dual_aliases(self):
        rep = verify.verify_andrews(2, 30, 12)
        assert rep.identity == "andrews" and rep.status == "pass"
        assert any("thm12" in note for note in rep.notes)
        rep = verify.verify_dual(2, 30, 12)
        assert rep.identity == "dual" and rep.status == "pass"
        assert any("thm13" in note for note in rep.notes)

    def test_middle_i_has_no_theorem_phrasing(self):
        rep = verify.verify_corollary(4, 2, 30, 12)
        assert rep.status == "pass"
        assert not any("thm1" in note for note in rep.notes)

    def test_machinery_report(self):
        rep = verify.verify_machinery(2, 24, 28, closed_product_j=6, enum_j=5, enum_n=10)
        assert rep.status == "pass"
        assert {s.identity for s in rep.subreports} == {
            "machinery/functional-equation",
            "machinery/closed-product",
            "machinery/appell-limit",
            "machinery/bounded-enumeration",
        }
        # each stage is timed by its own steps, inside the report's time
        assert sum(s.timing for s in rep.subreports) <= rep.timing

    def test_machinery_keeps_a_window_of_terms(self):
        # R_j streams through the stages: k + 1 terms, the sweep's states and
        # the closed product's running rows are alive at most; keeping every
        # R_j to j = 205 peaked at 12.5 MB
        tracemalloc.start()
        try:
            rep = verify.verify_machinery(2, 200, 205, 10, 4, 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.status == "pass"
        assert peak <= 2 * 2**20

    @pytest.mark.parametrize("k, q_order", [(2, 12), (3, 20)])
    def test_machinery_stages_run_to_full_range_by_default(self, k, q_order):
        # the closed-product and bounded stages run to j_max and the bounded
        # stage to the q-order too, unless a range is passed, as the suite does
        rep = verify.verify_machinery(k, q_order)
        top = q_order + k
        assert rep.passed
        assert [s.range for s in rep.subreports] == [
            {"j_max": top}, {"j_max": top}, {"q_order": q_order}, {"j_max": top, "n_max": q_order}]
        cells = [r for r in verify.verify_all(3) if r.identity == "machinery"]
        assert [[s.range for s in r.subreports] for r in cells] == [
            [{"j_max": 65}, {"j_max": 10}, {"q_order": 60}, {"j_max": 10, "n_max": 18}]] * 2

    def test_machinery_default_j_max_covers_large_k(self):
        # the limit needs j_max >= q_order + k to check every q^d settled
        rep = verify.verify_machinery(7, 30)
        assert rep.range["j_max"] == 37
        assert rep.status == "pass"

    def test_machinery_aborts_on_a_slot_overflow(self, monkeypatch):
        # 8-bit slots are too narrow at q-order 60: the one D_2 sweep trips at
        # v = 3, where R_3's a^0 row passes 31, before any stage reads R_3,
        # and every stage aborts, naming the sweep
        monkeypatch.setattr(packed, "slot_width", lambda n, plain, distinct=(): 8)
        rep = verify.verify_machinery(2, 60)
        assert rep.status == "aborted"
        assert [(s.status, s.notes) for s in rep.subreports] == [("aborted", [
            "aborted: slot overflow: the D_2 sweep's a^0 row reached the guard bits of its"
            " 8-bit slots at v=3, n_max=60"])] * 4

    @staticmethod
    def narrowing(monkeypatch, caller, width):
        """packed.slot_width, `width` bits wide where the function `caller`
        asks for it and as it was for every other caller."""
        real = packed.slot_width

        def slot_width(n, *parts):
            return width if sys._getframe(1).f_code.co_name == caller else real(n, *parts)

        monkeypatch.setattr(packed, "slot_width", slot_width)

    # each sweep in 8-bit slots, which hold counts below 2^5: the report is
    # aborted, and the note names the sweep and its width; the other routes
    # keep their widths
    @pytest.mark.parametrize("caller, call, note", [
        ("dk_sweep", lambda: verify.verify_overpartition(2, 22),
         "the D_2 sweep's a^0 row reached the guard bits of its 8-bit slots at v=3, n_max=22"),
        # C to n = 25 runs D_2's moves on its own sweep, one a-row at weight 25
        ("count_C_table", lambda: verify.verify_corollary(2, 0, 200, 25),
         "the C_{0,2} sweep's a^0 row reached the guard bits of its 8-bit slots at v=4, n_max=25"),
        ("count_schur_gap_table", lambda: verify.verify_schur(40),
         "Schur's gap sweep's a^0 row reached the guard bits of its 8-bit slots at v=24,"
         " n_max=40"),
    ], ids=["overpartition", "corollary", "schur"])
    def test_sweep_overflow_aborts_the_report(self, monkeypatch, caller, call, note):
        assert call().status == "pass"
        self.narrowing(monkeypatch, caller, 8)
        rep = call()
        assert (rep.status, rep.witness, rep.notes) == ("aborted", None, [f"slot overflow: {note}"])

    def test_sweep_overflow_aborts_the_undecided_stages(self, monkeypatch):
        # the sweep alone in 8-bit slots trips at v = 3: the closed-product
        # and bounded stages, to j = 2, have passed by then, and the two
        # stages that run to j_max abort, naming the sweep
        self.narrowing(monkeypatch, "dk_sweep", 8)
        rep = verify.verify_machinery(2, 60, closed_product_j=2, enum_j=2)
        assert rep.status == "aborted"
        assert [(s.identity, s.status) for s in rep.subreports] == [
            ("machinery/functional-equation", "aborted"), ("machinery/closed-product", "pass"),
            ("machinery/appell-limit", "aborted"), ("machinery/bounded-enumeration", "pass")]
        for sub in rep.subreports[::2]:
            assert (sub.witness, sub.notes) == (None, [
                "aborted: slot overflow: the D_2 sweep's a^0 row reached the guard bits of its"
                " 8-bit slots at v=3, n_max=60"])

    def test_closed_product_overflow_aborts_its_stage_alone(self, monkeypatch):
        # the closed form in 8-bit slots, which hold counts below 2^5: its
        # x^3 term's a^0 row reaches 331 at q^60.  The sweep keeps its
        # width, so the terms before x^3 are read slot by slot and agree,
        # and the other three stages pass
        self.narrowing(monkeypatch, "_closed_product_terms", 8)
        rep = verify.verify_machinery(2, 60)
        sub = {s.identity: s for s in rep.subreports}
        stage = sub.pop("machinery/closed-product")
        assert (rep.status, stage.status, stage.witness) == ("aborted", "aborted", None)
        assert stage.notes == ["aborted: slot overflow: the closed product's x^3 coefficient"
                               " reached the guard bits of its 8-bit slots at q_order=60"]
        assert {s.status for s in sub.values()} == {"pass"}

    def test_closed_product_at_every_j_keeps_no_lists(self):
        # the closed form is packed in the sweep's width and compared as
        # integers: when each R_j was unpacked against tuple rows, the stage
        # at every j to q-order 200 peaked at 10.1 MB
        tracemalloc.start()
        try:
            rep = verify.verify_machinery(2, 200, closed_product_j=202)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.passed
        assert peak < 2**20

    def test_corollary_aborts_on_a_slot_overflow(self, monkeypatch):
        # B's counts at (2, 0), n = 1000 reach 81 bits, and those of its
        # parts above 15, the last stage before them, 58: 88- and 64-bit
        # slots hold them below the guard bits, and 80- and 56-bit slots, one
        # byte narrower, do not; the report is aborted and names the width,
        # and the stage's parts.  The knapsack's bounds alone are narrowed,
        # the stages above 15 to at most the stage's width
        parts = partitions.b_parts(1000, 2, 0)
        assert max(partitions._packed_knapsack(1000, parts)).bit_length() == 81
        above = tuple(p for p in parts if p > 15)
        assert max(partitions._packed_knapsack(1000, above)).bit_length() == 58
        rep = verify.verify_corollary(2, 0, 1000, 8)
        assert rep.status == "pass"
        (note,) = [note for note in rep.notes if note.startswith("B's knapsack")]
        assert "96-bit slots" in note and "< 2^93" in note
        assert "the parts above 500 in 24-bit slots, the parts above 250 in 32-bit slots," \
               " the parts above 125 in 40-bit slots, the parts above 62 in 56-bit slots," \
               " the parts above 31 in 72-bit slots, the parts above 15 in 88-bit slots" in note
        real = packed.slot_width
        for last, stage, status, trip in (
            (88, 64, "pass", None),
            (80, 64, "aborted", "guard bits of its 80-bit slots at n_max=1000"),
            (88, 56, "aborted", "guard bits of its 56-bit slots for its parts above 15 at"),
        ):
            def slot_width(n, plain, distinct=(), last=last, stage=stage):
                if plain == parts:
                    return last
                if isinstance(plain, range) and plain.step == 1 and plain.start >= 16:
                    return min(real(n, plain), stage)
                return real(n, plain, distinct)

            monkeypatch.setattr(packed, "slot_width", slot_width)
            rep = verify.verify_corollary(2, 0, 1000, 8)
            assert (rep.status, rep.witness) == (status, None)
            if trip:
                assert len(rep.notes) == 1 and trip in rep.notes[0], rep.notes

    def test_numerator_overflow_aborts_the_corollary(self, monkeypatch):
        # the product's numerator at (2, 0), n = 1000 reaches 32 bits: its
        # own bound at 40 bits holds it below the guard bits and 32 does not,
        # and the read against that bound, in the check's wider slots, names
        # that width
        odd = range(1, 1001, 4)
        assert packed.slot_width(1000, (), odd) == 48
        real = packed.slot_width
        for own, status in ((40, "pass"), (32, "aborted")):
            monkeypatch.setattr(packed, "slot_width", lambda n, plain, distinct=(), own=own: (
                own if distinct and not plain else real(n, plain, distinct)))
            rep = verify.verify_corollary(2, 0, 1000, 8)
            assert (rep.status, rep.witness) == (status, None)
        assert rep.notes == ["slot overflow: the B_{0,2} product's numerator reached the guard"
                             " bits of its 32-bit slots at q_order=1000"]

    def test_product_overflow_aborts_the_corollary(self, monkeypatch):
        # the product side is its numerator, checked against B's table times
        # Euler's product: its own bound at 8 bits holds counts below 2^5,
        # and prod (1 + q^e), e = 1 mod 4, passes that by n = 200, so its
        # read aborts the report, naming that width; B and C keep theirs
        self.narrowing(monkeypatch, "euler_check", 8)
        rep = verify.verify_corollary(2, 0, 200, 25)
        assert (rep.status, rep.witness, rep.notes) == ("aborted", None, [
            "slot overflow: the B_{0,2} product's numerator reached the guard bits of"
            " its 8-bit slots at q_order=200"])

    def test_schur_aborts_on_a_slot_overflow(self, monkeypatch):
        # the product's knapsack packs every part at n = 40, those above 10
        # in 16-bit slots and then all 13 in 24; an overflow there aborts
        # the report with the knapsack's own words
        note = "slot overflow: the knapsack reached the guard bits of its 8-bit slots"

        def overflowing(n_max, parts):
            raise packed.SlotOverflowError(note)

        rep = verify.verify_schur(40)
        assert rep.status == "pass"
        assert rep.notes == [packed.slot_note(
            "the product's knapsack", 40, partitions.schur_parts(40))
            + "; the stages before it ran the parts above 10 in 16-bit slots, each stage's"
            " counts at most F(x)/x^40 at its own x, F(x) = prod 1/(1 - x^p) over"
            " low < p <= 40"]
        assert "24-bit slots" in rep.notes[0]
        monkeypatch.setattr(partitions, "_packed_knapsack", overflowing)
        rep = verify.verify_schur(40)
        assert (rep.status, rep.witness, rep.notes) == ("aborted", None, [note])

    def test_machinery_aborts_without_stabilization(self):
        rep = verify.verify_machinery(3, 24, 20, closed_product_j=4, enum_j=3, enum_n=8)
        sub = {s.identity: s for s in rep.subreports}
        assert sub["machinery/appell-limit"].status == "aborted"
        assert any("not stabilized" in n for n in sub["machinery/appell-limit"].notes)
        assert rep.status == "aborted"
        assert not rep.passed

    def test_enumeration_range_refused(self):
        # the Schur and C walks refuse n = 46
        for rep in (verify.verify_schur(verify.ENUM_HARD_LIMIT + 1),
                    verify.verify_corollary(2, 0, 60, verify.ENUM_HARD_LIMIT + 1)):
            assert (rep.status, rep.notes) == ("aborted", [verify._REFUSED])

    @pytest.mark.parametrize("k", [2, 5])
    def test_overpartition_past_the_limit(self, k):
        # the sweep and the product enumerate nothing, so n = 100 runs, on
        # every a-row weight 100 holds: 10 overlines 1, 3, ..., 19 at k = 2,
        # and at k = 5 six, fewer than the 8 rows kept at least
        rep = verify.verify_overpartition(k, 100)
        assert rep.status == "pass"
        assert rep.range == {"n_max": 100, "m_max": {2: 10, 5: 8}[k]}

    def test_overpartition_checks_every_a_row_by_default(self):
        for k, n_max in ((2, 0), (2, 5), (2, 22), (2, 200), (3, 200), (5, 400)):
            rep = verify.verify_overpartition(k, n_max)
            rows = max(min(n_max, 8), appell.max_overline_count(k, n_max))
            assert (rep.status, rep.range["m_max"]) == ("pass", rows), (k, n_max)
        # the suite's pinned (k, 22) cells keep their 8 rows
        cells = [r for r in verify.verify_all(5) if r.identity == "overpartition"]
        assert [r.range for r in cells] == [{"n_max": 22, "m_max": 8}] * 4

    def test_machinery_bounded_stage_past_the_limit(self):
        for rep, stage_range in (
            (verify.verify_machinery(2, 46, j_max=48, closed_product_j=2, enum_j=2, enum_n=46),
             {"j_max": 2, "n_max": 46}),
            (verify.verify_machinery(2, 60, enum_j=62, enum_n=60), {"j_max": 62, "n_max": 60}),
        ):
            stage = {s.identity: s for s in rep.subreports}["machinery/bounded-enumeration"]
            assert stage.range == stage_range
            assert all(s.status == "pass" for s in rep.subreports)
            assert rep.passed

    @pytest.mark.parametrize("fn, args, note", [
        (verify.verify_corollary, (3, 5, 20, 5), "i must lie in [0, 2]"),
        (verify.verify_corollary, (1, 0, 20, 5), "k must be at least 2"),
        (verify.verify_corollary, (2, 0, 20, -1), "enum_limit must be non-negative"),
        (verify.verify_andrews, (1,), "k must be at least 2"),
        (verify.verify_dual, (0,), "k must be at least 2"),
        (verify.verify_overpartition, (1, 5), "k must be at least 2"),
        (verify.verify_overpartition, (2, -3), "n_max must be non-negative"),
        (verify.verify_overpartition, (2, 5, -1), "m_max must be non-negative"),
        (verify.verify_schur, (-1,), "n_max must be non-negative"),
        (verify.verify_machinery, (2, -1), "q_order must be non-negative"),
    ], ids=lambda v: v.split()[0] if isinstance(v, str) else None)
    def test_bad_input_is_aborted(self, fn, args, note):
        rep = fn(*args)
        identity = fn.__name__.removeprefix("verify_")
        assert (rep.identity, rep.status, rep.notes) == (identity, "aborted", [note])
        assert not rep.passed

    # each library function names a bad value in the words of the verifier
    # that receives the same value
    @pytest.mark.parametrize("call, report", [
        (lambda: partitions.count_B_table(10, 1, 0), lambda: verify.verify_corollary(1, 0)),
        (lambda: partitions.count_B_table(10, 3, 5), lambda: verify.verify_corollary(3, 5)),
        (lambda: partitions.count_B_table(-1, 2, 0), lambda: verify.verify_corollary(2, 0, -1)),
        (lambda: list(partitions.partitions_up_to(-1)), lambda: verify.verify_schur(-1)),
        (lambda: partitions._tally(-1, partitions._SCHUR_GAP_RULE), lambda: verify.verify_schur(-1)),
        (lambda: appell.build_R(1, 5, 8), lambda: verify.verify_machinery(1)),
        (lambda: appell.build_R(2, -1, 8), lambda: verify.verify_machinery(2, 8, -1)),
        (lambda: appell.build_R(2, 5, -1), lambda: verify.verify_machinery(2, -1)),
        (lambda: appell.closed_product_F_coefficients(1, 4, 8), lambda: verify.verify_machinery(1)),
        (lambda: appell.closed_product_F_coefficients(2, 3, -1), lambda: verify.verify_machinery(2, -1)),
        (lambda: appell.theorem_product(1, 8), lambda: verify.verify_overpartition(1, 5)),
        (lambda: appell.theorem_product(2, -1), lambda: verify.verify_machinery(2, -1)),
        (lambda: appell.theorem_product(2, 5, -1), "a_order must be non-negative"),
        (lambda: overpartitions.dk_sweep(5, 1, 2, 5), lambda: verify.verify_overpartition(1, 5)),
        (lambda: overpartitions.dk_sweep(-2, 2, 2, 5), lambda: verify.verify_overpartition(2, -2)),
        (lambda: overpartitions.dk_sweep(5, 2, 2, -1), lambda: verify.verify_machinery(2, 8, -1)),
        (lambda: overpartitions.dk_sweep(3, 2, -1), lambda: verify.verify_overpartition(2, 5, -1)),
        (lambda: overpartitions.count_Dk_table(5, 2, -1), lambda: verify.verify_overpartition(2, 5, -1)),
        (lambda: overpartitions.specialize_overpartition(overpartitions.Overpartition(()), 5, 3),
         lambda: verify.verify_corollary(3, 5)),
        (lambda: overpartitions.specialize_overpartition(overpartitions.Overpartition(()), 0, 1),
         lambda: verify.verify_corollary(1, 0)),
    ], ids=[
        "count_B_table-k", "count_B_table-i", "count_B_table-n_max", "partitions_up_to-n_max",
        "tally-n_max",
        "build_R-k", "build_R-j_max", "build_R-q_order",
        "closed_product-k",
        "closed_product-q_order", "theorem_product-k", "theorem_product-q_order",
        "theorem_product-a_order", "dk_sweep-k", "dk_sweep-n_max", "dk_sweep-j_max",
        "dk_sweep-m_max", "count_Dk_table-m_max", "specialize-i", "specialize-k",
    ])
    def test_bad_input_has_one_wording(self, call, report):
        with pytest.raises(ValueError) as raised:
            call()
        if isinstance(report, str):
            # no verifier takes this value: the wording is check_params' own
            assert str(raised.value) == report
            return
        rep = report()
        assert rep.status == "aborted"
        assert rep.notes == [str(raised.value)]

    def test_golden_example(self):
        rep = verify.golden_example_n10()
        assert rep.status == "pass"
        assert any("C_{0,1}" in note for note in rep.notes)

    def test_deterministic_apart_from_timing(self):
        a = verify.verify_corollary(3, 1, 30, 12).to_dict()
        b = verify.verify_corollary(3, 1, 30, 12).to_dict()
        a["timing"] = b["timing"] = 0.0
        assert a == b

    def test_json_roundtrip(self):
        rep = verify.verify_machinery(2, 16, 20, closed_product_j=4, enum_j=3, enum_n=8)
        payload = json.loads(json.dumps(rep.to_dict()))
        assert payload["schema_version"] == verify.SCHEMA_VERSION
        assert payload["status"] == "pass"
        assert len(payload["subreports"]) == 4

    def test_verify_all_past_k5_passes(self):
        # the machinery cells keep j_max = 65 up to k = 5 and take
        # q_order + k beyond, where the limit needs it
        reports = verify.verify_all(k_max=6)
        assert all(r.passed for r in reports)
        machinery = [r.range["j_max"] for r in reports if r.identity == "machinery"]
        assert machinery == [65, 65, 65, 65, 66]

    def test_verify_all_smoke(self):
        reports = verify.verify_all(k_max=2)
        assert all(r.passed for r in reports)
        assert {r.identity for r in reports} == {
            "golden-n10",
            "schur",
            "overpartition",
            "corollary",
            "machinery",
        }


def test_public_names_resolve():
    assert all(hasattr(qident, name) for name in qident.__all__)


def state_after(rule, parts):
    """The state a rule's walk reaches at the prefix parts, read off its
    tables."""
    state, nexts = rule
    for p in parts:
        state = dict(nexts(state, p))[p]
    return state


def admitting(real, at, entry):
    """real, partitions_up_to or _tally, except that wherever a rule is
    given its table also lists entry, a (part, child state) pair, in state
    at: the walk, or the merged tally, taking one child its table does not
    list.  Both trust the table, so whatever the child's state lists comes
    along."""

    def walk(n_max, rule=None, **private):
        if rule is not None:
            rule = edited_rule(lambda: rule, adding_entry(at, entry))()
        return real(n_max, rule, **private)

    return walk


def first_weight_below(cut, n_max, accepts):
    """The smallest n whose rule-filtered full enumeration has a partition
    starting with `cut`: the first n a generator pruning `cut` gets wrong."""
    return next(
        n
        for n in range(n_max + 1)
        if any(p[: len(cut)] == cut for p in partitions.enumerate_partitions(n) if accepts(p))
    )


def dropping_new_overlines(real, min_distinct):
    """_overlinable that, once a prefix with its new, smallest value has at
    least min_distinct values, lets no object overline that value."""

    def overlinable(strings, lows, b, above, k):
        # strings[0], the node's object without overlines, holds its values
        values = set(strings[0].split("+")) if strings[0] else set()
        return [] if len(values) + 1 >= min_distinct else real(strings, lows, b, above, k)

    return overlinable


def edited_moves(real, edit):
    """A side's moves factory whose tables pass through edit(v, state,
    moves): one transition off."""

    def factory(*params):
        moves = real(*params)
        return lambda v, state: edit(v, state, moves(v, state))

    return factory


def dropping(kind, at):
    """An edit that drops the moves of one kind from the states at(state) picks."""
    return lambda v, state, moves: [mv for mv in moves if not (mv[0] == kind and at(state))]


def edited_rule(real, edit):
    """A side's walk-rule factory whose tables pass through
    edit(state, entries): one entry added or dropped."""

    def factory(*params):
        start, nexts = real(*params)
        return start, lambda state, top: edit(state, nexts(state, top))

    return factory


def adding_entry(at, entry):
    """An edit that also lists entry, a (part, child state) pair, in state at."""
    return lambda state, entries: (
        sorted([*entries, entry], key=lambda e: e[0]) if state == at else entries
    )


def dropping_entry(at, part):
    """An edit that no longer lists part in state at."""
    return lambda state, entries: [e for e in entries if state != at or e[0] != part]


def cutting(real, cut):
    """A rule factory whose table no longer lists cut's last part in the
    state that cut's parent reaches: one valid branch pruned.  The tallies
    and the witness lists walk the one rule, so both see the cut."""

    def factory(*params):
        at = state_after(real(*params), cut[:-1])
        return edited_rule(real, dropping_entry(at, cut[-1]))(*params)

    return factory


def bumped(real, at, when=None):
    """real, except that what a call returns has 1 added at the cell `at`,
    for the calls when(*args, **kwargs) picks (every call by default).

    at is a path of indices into the output: n into a count list or a
    QSeries, (m, n) into a row matrix, a BivariateSeries or a packed R_j,
    (j, m, n) into the closed product's x^j terms, (j, state, m, n) into
    a sweep's snapshots (state k of the D_k sweep's is R_j) (an iterator is read
    into a list first), t into the sweep's doubling steps, and (bit,) into
    a packed integer.  A path that ends at an object, not a count, drops
    that object from its list.  Each level on the path is copied, so no row that
    real returned, or shares, changes.  slip.calls keeps (args, kwargs,
    real's output) for every bumped call."""

    def slip(*args, **kwargs):
        out = real(*args, **kwargs)
        if when is not None and not when(*args, **kwargs):
            return out
        out = settled(out)
        slip.calls.append((args, kwargs, out))
        return _bumped_at(out, at)

    slip.calls = []
    return slip


def slip_source(monkeypatch, module, name, old, new):
    """Replace module.name with the function its source defines once the
    text old is replaced by new: a code mutant, where a bump of the
    route's output cannot express the slip."""
    source = inspect.getsource(getattr(module, name))
    slipped = source.replace(old, new)
    assert slipped != source
    namespace = dict(vars(module))
    exec(slipped, namespace)
    monkeypatch.setattr(module, name, namespace[name])


def settled(out):
    """out, or the list of what it yields if it is an iterator."""
    return list(out) if isinstance(out, Iterator) else out


def _bumped_at(out, at):
    if isinstance(out, packed.PackedTerm):  # one slot of one row, +1
        (m, n), rows = at, list(out.rows)
        rows[m] += 1 << out.width * (out.q_order - n)
        return out._replace(rows=tuple(rows))
    if isinstance(out, int):  # a packed integer, +1 at bit at[0]
        return out + (1 << at[0])
    if isinstance(out, (QSeries, BivariateSeries)):
        return type(out)(_bumped_at(out.coeffs, at))
    here, rest = at[0], at[1:]
    cells = dict(out) if isinstance(out, dict) else list(out)
    if rest:
        cells[here] = _bumped_at(cells[here], rest)
    elif isinstance(cells[here], int):
        cells[here] += 1
    else:
        del cells[here]
    return cells if isinstance(out, (dict, list)) else type(out)(cells)


# the calls that catch a route slip, each small enough to run per row; a
# name with a slash is one stage of the machinery report
VERIFIERS = {
    "overpartition": lambda: verify.verify_overpartition(2, 10),
    "corollary": lambda: verify.verify_corollary(2, 0, 60, 25),
    "schur": lambda: verify.verify_schur(12),
    "golden-n10": verify.golden_example_n10,
    "machinery": lambda: verify.verify_machinery(
        2, 16, 20, closed_product_j=6, enum_j=6, enum_n=10),
}


class RouteSlip(NamedTuple):
    """A ROUTE_SLIPS row: route, a name verify reads, bumped at `at` for the
    calls `when` picks.  Each report or stage in caught fails with a witness
    holding its items, every stage it does not list passes, and calls gives
    a report in caught a call of its own in place of VERIFIERS'."""
    route: str
    at: tuple
    caught: dict
    when: Callable | None = None
    calls: dict | None = None


def theorems(parts, q_order, width, a_order=None):
    """The product_numerator calls that build a-rows, the theorem's."""
    return a_order is not None


def corollaries(parts, q_order, width, a_order=None):
    """The product_numerator calls that build one row at a = 1, the corollary's."""
    return a_order is None


# one row per route a verifier compares, so dropping any row fails
# test_every_route_has_a_slip; a route may have further rows at other cells
ROUTE_SLIPS = [
    # the theorem's numerator, one high at a cell: each check that reads it
    # finds its table's row times (q; q)_inf one short there, so the
    # product, the numerator divided by (q; q)_inf, is one high
    RouteSlip("appell.product_numerator", (1, 1), {
        "overpartition": {"n": 1, "m": 1, "sweep_count": 1, "product_coefficient": 2,
                          "enumeration_count": 1, "overpartitions": ["1~"]},
        "machinery/appell-limit": {"a_degree": 1, "q_degree": 1, "limit": 1, "product": 2},
    }, when=theorems),
    RouteSlip("appell.product_numerator", (0, 5), {
        "machinery/appell-limit": {"a_degree": 0, "q_degree": 5, "limit": 7, "product": 8}},
        when=theorems),
    RouteSlip("appell.product_numerator", (2, 9), {
        "machinery/appell-limit": {"a_degree": 2, "q_degree": 9, "limit": 12, "product": 13}},
        when=theorems),
    RouteSlip("overpartitions.count_Dk_table", (2, 7), {
        "overpartition": {"n": 7, "m": 2, "sweep_count": 5, "product_coefficient": 4}}),
    # the corollary's numerator, its one row at a = 1, one high at q^7 and
    # at q^41, where B is 4 and 1850
    RouteSlip("appell.product_numerator", (0, 7), {
        "corollary": {"n": 7, "count_B": 4, "product_coefficient": 5}},
        when=corollaries),
    RouteSlip("appell.product_numerator", (0, 41), {
        "corollary": {"n": 41, "count_B": 1850, "product_coefficient": 1851}},
        when=corollaries),
    # Euler's product 2 at q^7, where it is 1: each table times it is one
    # too high t * 7 past its constant term, so the product reads one short
    # there, at n = 14 for the corollary's (q^2; q^2) and n = 7 for the
    # theorem's (q; q)
    RouteSlip("appell.euler_product", (7,), {
        "corollary": {"n": 14, "count_B": 24, "product_coefficient": 23},
        "overpartition": {"n": 7, "m": 0, "sweep_count": 15, "product_coefficient": 14}},
        when=lambda q_order: q_order >= 7),
    RouteSlip("partitions.count_B_table", (40,), {
        "corollary": {"n": 40, "count_B": 1618, "product_coefficient": 1617}}),
    RouteSlip("partitions.count_C_table", (9,), {
        "corollary": {"n": 9, "count_B": 8, "count_C": 9, "route": "sweep"}}),
    # both phrasings' walks are bumped alike, so the walk differs from B
    RouteSlip("partitions.walk_C_table", (9,), {
        "corollary": {"n": 9, "count_B": 8, "count_C": 9}}),
    RouteSlip("partitions.count_schur_product_table", (5,), {
        "schur": {"n": 5, "product_count": 3, "gap_count": 2}}),
    RouteSlip("partitions.walk_schur_gap_table", (5,), {
        "schur": {"n": 5, "product_count": 2, "gap_count": 3}}),
    RouteSlip("partitions.count_schur_gap_table", (5,), {
        "schur": {"n": 5, "product_count": 2, "sweep_count": 3}}),
    RouteSlip("appell.closed_product_F_coefficients", (3, 1, 5), {
        "machinery/closed-product": {"j": 3, "a_degree": 1, "q_degree": 5}}),
    RouteSlip("appell.closed_product_F_coefficients", (0, 1, 2), {
        "machinery/closed-product": {"j": 0, "a_degree": 1, "q_degree": 2}}),
    RouteSlip("appell.closed_product_F_coefficients", (6, 1, 8), {
        "machinery/closed-product": {"j": 6, "a_degree": 1, "q_degree": 8}}),
    # every step returns its R_j bumped, and the last is the limit compared
    RouteSlip("appell.limit_step", (2, 9), {
        "machinery/appell-limit": {"a_degree": 2, "q_degree": 9, "limit": 13, "product": 12}}),
    RouteSlip("appell.pj_series", (2, 7), {
        "machinery/bounded-enumeration": {"series": "P", "j": 4, "m": 2, "n": 7,
                                          "enumeration": 2, "coefficient": 3}},
        when=lambda k, terms, j: j == 4),
    # (0, 0) is the constant term, which every P_j has
    RouteSlip("appell.pj_series", (0, 0), {
        "machinery/bounded-enumeration": {"series": "P", "j": 6, "m": 0, "n": 0,
                                          "enumeration": 1, "coefficient": 2}},
        when=lambda k, terms, j: j == 6),
    RouteSlip("appell.pj_series", (1, 10), {
        "machinery/bounded-enumeration": {"series": "P", "j": 3, "m": 1, "n": 10,
                                          "enumeration": 9, "coefficient": 10}},
        when=lambda k, terms, j: j == 3),
    # the snapshot after value 3, in state k = 2: R_3 off at a q^5.  P_3 is
    # summed from the same R_3, so the bounded stage sees it at j = 4, where
    # P_4 takes R_3 shifted by a q^4 and the sweep's own states do not
    RouteSlip("overpartitions.dk_sweep", (3, 2, 1, 5), {
        "machinery/functional-equation": {"j": 3, "a_degree": 1, "q_degree": 5},
        "machinery/closed-product": {"j": 3, "a_degree": 1, "q_degree": 5},
        "machinery/bounded-enumeration": {"series": "P", "j": 4, "m": 2, "n": 9,
                                          "enumeration": 3, "coefficient": 4}}),
    # the snapshots after values 4 and 55, in state 1: P alone off, the
    # second past the enumeration limit
    RouteSlip("overpartitions.dk_sweep", (4, 1, 2, 7), {
        "machinery/bounded-enumeration": {"series": "P", "j": 4, "m": 2, "n": 7,
                                          "enumeration": 3, "coefficient": 2}}),
    RouteSlip("overpartitions.dk_sweep", (55, 1, 3, 50), {
        "machinery/bounded-enumeration": {"series": "P", "j": 55, "m": 3, "n": 50,
                                          "enumeration": 363170, "coefficient": 363169}},
        calls={"machinery": lambda: verify.verify_machinery(2, 60, enum_j=62, enum_n=60)}),
    # R_6 off at a^1 q^3, settled since j = 4: the bounded stage, to j = 6,
    # sums P_6 from the same R_6 and passes
    RouteSlip("overpartitions.dk_sweep", (6, 2, 1, 3), {
        "machinery/functional-equation": {"j": 6, "a_degree": 1, "q_degree": 3},
        "machinery/closed-product": {"j": 6, "a_degree": 1, "q_degree": 3},
        "machinery/appell-limit": {"a_degree": 1, "q_degree": 3},
    }),
    # R_14 off at a q^15: past the closed-product and bounded stages' heads
    # (j <= 6), and at or above q^{j-k+1} in both limit steps that read R_14
    # (j = 14, 15), so the functional equation alone sees it
    RouteSlip("overpartitions.dk_sweep", (14, 2, 1, 15), {
        "machinery/functional-equation": {"j": 14, "a_degree": 1, "q_degree": 15}}),
    # a q^5 settles by j = 6, so R_6 off there also fails the limit; the
    # closed-product and bounded stages stop below j = 6
    RouteSlip("overpartitions.dk_sweep", (6, 2, 1, 5), {
        "machinery/functional-equation": {"j": 6, "a_degree": 1, "q_degree": 5},
        "machinery/appell-limit": {"a_degree": 1, "q_degree": 5}},
        calls={"machinery": lambda: verify.verify_machinery(
            2, 16, 20, closed_product_j=4, enum_j=3, enum_n=8)}),
    RouteSlip("partitions.state_total", (2, 7), {
        "machinery/bounded-enumeration": {"series": "P", "j": 0, "m": 2, "n": 7}}),
    # the sweep's division by 1 - q^2 with its first doubling step one slot
    # too far, q^3 for q^2: each sweep first falls short at q^2, where the
    # part 2 is lost.  R_2 is short there, so the recursion, the closed form
    # and the limit see it; P_2 is summed from the same R_2 and the bounded
    # stage passes
    RouteSlip("partitions._doublings", (0,), {
        "overpartition": {"n": 2, "m": 0, "sweep_count": 1, "product_coefficient": 2},
        "machinery/functional-equation": {"j": 2, "a_degree": 0, "q_degree": 2},
        "machinery/closed-product": {"j": 2, "a_degree": 0, "q_degree": 2},
        "machinery/appell-limit": {"a_degree": 0, "q_degree": 2, "limit": 1, "product": 2}},
        when=lambda v, n_max: v == 2),
    # the one slot reader, which every packed route reads through to a
    # table: slot 1 read one high, so B's knapsack, the D_k sweep and the C
    # sweep count 2 at n = 1, and B is off the product first.  The checks
    # against Euler's product and the machinery's stages compare packed
    # rows whole and read no slot on a pass, so the machinery passes
    RouteSlip("packed.read_slots", (1,), {
        "overpartition": {"n": 1, "m": 0, "sweep_count": 2, "product_coefficient": 1},
        "corollary": {"n": 1, "count_B": 2, "product_coefficient": 1},
        "schur": {"n": 1, "product_count": 2, "gap_count": 1},
    }),
    # bit 24 of every widened integer: at n = 60 B widens its knapsack from
    # 16 to 24 bits, where that bit is the foot of q^59's slot; the check
    # packs B's table and builds its numerator in their 24-bit slots and
    # widens neither, so the slip lands on B alone, at q^59
    RouteSlip("packed.widen", (24,), {
        "corollary": {"n": 59, "count_B": 17489, "product_coefficient": 17488}}),
    RouteSlip("partitions.b_witnesses", (0,), {
        "golden-n10": {"product_expected_only": ["(9, 1)"]}}),
    RouteSlip("partitions.c_witnesses", (0,), {
        "golden-n10": {"sum_expected_only": ["(10,)"], "specialization_image": ["(10,)"]}}),
    # the weight-5 preimages have no overline; the first, 5, maps to 10
    RouteSlip("overpartitions.d_witnesses", (0,), {
        "golden-n10": {"specialization_image": ["(10,)"]}},
        when=lambda m, n, k: n == 5),
    # 5 maps to 11 in place of 10
    RouteSlip("overpartitions.specialize_overpartition", (0,), {
        "golden-n10": {"specialization_image": ["(10,)", "(11,)"]}},
        when=lambda o, i, k: str(o) == "5"),
]


def slip_ids(rows) -> list:
    """A test id per row: its route's name, and the cell too after the
    route's first row."""
    names = [row.route.split(".")[1] for row in rows]
    return [name if names.index(name) == i else "-".join(map(str, (name, *row.at)))
            for i, (name, row) in enumerate(zip(names, rows))]


def slip_misses(monkeypatch, slip: RouteSlip) -> dict:
    """Each report or stage that is not as the row slip says, with its
    status and witness: slip.route is bumped and each report slip.caught
    names is run once.  The report must fail (a mismatch never aborts it),
    each report or stage listed must fail with a witness holding its items,
    and every stage not listed must pass."""
    module_name, name = slip.route.split(".")
    module = getattr(verify, module_name)
    real = getattr(module, name)
    bump = bumped(real, slip.at, slip.when)
    monkeypatch.setattr(module, name, bump)
    calls = {**VERIFIERS, **(slip.calls or {})}
    misses = dict.fromkeys(slip.caught, "not run")
    for report in dict.fromkeys(check.split("/")[0] for check in slip.caught):
        rep = calls[report]()
        for check, sub in [(report, rep), *((s.identity, s) for s in rep.subreports)]:
            want = slip.caught.get(check, {} if sub is rep else None)
            if want is None:
                right = sub.status == "pass"
            else:
                right = sub.status == "fail" and want.items() <= (sub.witness or {}).items()
            misses.pop(check, None)
            if not right:
                misses[check] = (sub.status, sub.witness)
    # the bump edited copies: what the real route returned is as it was
    assert bump.calls
    for args, kwargs, out in bump.calls:
        assert settled(real(*args, **kwargs)) == out
    return misses


# the names verify reads that yield no value a verifier compares
UNROUTED = {
    "partitions.check_params": "the bad-input rule: it raises or returns nothing",
    "appell.max_overline_count": "an a-order bound: it sizes a comparison",
    "partitions.format_partition": "the string form of a listed witness",
    "partitions.schur_gap_witnesses": "it only lists a failing witness's objects",
    "appell.functional_equation_step": "the comparison itself",
    "appell.euler_check": "the comparison itself: its numerator and Euler's product have rows",
    "appell.unpack": "it reads the cells of two terms already found to differ, for the witness",
    "appell.require_depth": "a precondition: it raises or returns nothing",
    "appell.StabilizationError": "a type",
    "packed.SlotOverflowError": "a type",
    "packed.slot_note": "the text of a note",
    "overpartitions.overpartition_parts": "a route's parts: the text of a note",
    "partitions.knapsack_stages": "a route's stages: the text of a note",
    "partitions.b_parts": "a route's parts: the text of a note",
    "partitions.schur_parts": "a route's parts: the text of a note",
}

# the library modules whose definitions test_every_definition_has_a_caller reads
LIBRARY = ("series", "packed", "partitions", "overpartitions", "appell", "verify")

# the definitions nothing in src references, each with the reason it stays;
# a name the benchmark (perfbench/) binds or calls needs none
UNCALLED = {
    "series.pochhammer_inf": "a test oracle: the products multiplied out factor by factor",
    "series.BivariateSeries.to_qseries": "a test oracle's step: the a^0 row of such a product",
    "series.specialize": "the specialization route the tests check, which a bridge"
                         " between D_k and the corollary would call",
    "partitions.satisfies_corollary": "a test oracle: the corollary's definition",
    "partitions.satisfies_thm12": "a test oracle: the i = k-1 phrasing's definition",
    "partitions.satisfies_thm13": "a test oracle: the i = 0 phrasing's definition",
    "partitions.satisfies_schur_gap": "a test oracle: Schur's gap definition",
    "overpartitions.Overpartition.overline_count": "a test oracle: the filters bin objects by it",
    "overpartitions.Overpartition.weight": "a test oracle: the specialization tests read it",
}


def definitions(tree: ast.Module, module: str) -> Iterator:
    """(key, node) of each module-level function and class, keyed
    module.name, and of each public method, keyed module.Class.name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node
        if isinstance(node, ast.ClassDef):
            for method in node.body:
                if isinstance(method, ast.FunctionDef) and not method.name.startswith("_"):
                    yield f"{module}.{node.name}.{method.name}", method


def references(node: ast.AST, local: frozenset = frozenset()) -> Iterator[str]:
    """Every name node reads: a bare name that is no parameter or local of
    a function it sits in, and an attribute by its name, or as "Cls.attr"
    alone when it is read off a capitalized name, a class."""
    if isinstance(node, (ast.FunctionDef, ast.Lambda)):
        inner = list(ast.walk(node))
        local = local | {n.arg for n in inner if isinstance(n, ast.arg)} | {
            n.id for n in inner if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
    if isinstance(node, ast.Name) and node.id not in local:
        yield node.id
    elif isinstance(node, ast.Attribute):
        owner = node.value.id if isinstance(node.value, ast.Name) else ""
        yield f"{owner}.{node.attr}" if owner[:1].isupper() else node.attr
    for child in ast.iter_child_nodes(node):
        yield from references(child, local)


# the product sides' own coefficients, worked out before any route runs:
# the tables the product routes check against Euler's product
DK_PRODUCT = appell.theorem_product(2, 60).coeffs
B_PRODUCT = appell.congruence_product_series(2, 0, 200).coeffs

# every route a verifier compares, as one call at a range where it packs
# whatever it packs.  A product side is the check: a table times Euler's
# product against the product's numerator
ROUTES = {
    "Dk-sweep": lambda: overpartitions.count_Dk_table(60, 2, 8),
    "Dk-product": lambda: appell.euler_check(DK_PRODUCT, 1, range(1, 61, 2), "D_2", 7),
    "B": lambda: partitions.count_B_table(200, 2, 0),
    "B-product": lambda: appell.euler_check([B_PRODUCT], 2, range(1, 201, 4), "B_{0,2}"),
    "C-walk": lambda: partitions.walk_C_table(30, 2, 0),
    "C-sweep": lambda: partitions.count_C_table(200, 2, 0),
    "C-walk-i1": lambda: partitions.walk_C_table(30, 2, 1),
    "thm12-walk": lambda: partitions.walk_C_table(30, 2, 1, "thm12"),
    "thm13-walk": lambda: partitions.walk_C_table(30, 2, 0, "thm13"),
    "schur-knapsack": lambda: partitions.count_schur_product_table(45),
    "schur-walk": lambda: partitions.walk_schur_gap_table(45),
    "schur-sweep": lambda: partitions.count_schur_gap_table(45),
    # R_j, the D_k sweep's state-k snapshots, and P_j summed from them
    "stream": lambda: [appell.unpack(term) for term in appell.build_R(2, 62, 60).terms],
    "pj-stream": lambda: [appell.pj_series(2, terms[: j + 1], j)
                          for terms in [appell.build_R(2, 20, 18).terms] for j in range(21)],
    "closed-product": lambda: list(appell.closed_product_F_coefficients(2, 10, 60)),
    "bounded-sweep": lambda: list(map(partitions.state_total, overpartitions.dk_sweep(18, 2, 3, 10))),
    "pj": lambda: overpartitions.count_pj(2, 12, 9, 2),
    "rj": lambda: overpartitions.count_rj(2, 12, 9, 2),
}

# what each pair of compared routes may both enter besides check_params,
# the bad-input rule, each with the reason that no count rests on it
A_ORDER = dict.fromkeys(["appell.least_weight", "appell.max_overline_count"], "the a-order bound")
# the packed format a sweep or the closed form shares with the other packed
# routes: the width sizes the slots and the guard read can only abort, so no
# count rests on them
FORMAT = {
    "packed.slot_width": "the slot bound: a width too narrow trips the guard read",
    "packed.saddle": "the slot bound's x: every 0 < x < 1 gives a valid bound",
    "packed.whole_bytes": "the slot bound's rounding to whole bytes",
    "packed.guard_mask": "the guard read, which can only abort",
    "packed._repeated": "the guard read's mask",
}
WALKER = dict.fromkeys(
    ["partitions._tally", "partitions.walk_C_table", "partitions._c_rule"],
    "the walker, which hands each phrasing its own rule table: the tables are what is compared")
# the closed-product stage compares the closed form's rows with the D_k
# sweep's R_j as integers, so both are packed in the sweep's width
SWEEP_WIDTH = {"overpartitions.overpartition_parts": "the parts of the D_k sweep's slot bound"}
# the bounded stage reads both its sides off the one D_k sweep: P_j summed
# from state k's R_j by the largest overline, against every state's total.
# It checks an identity between the sweep's own states, so a slip that keeps
# that identity is left to the other three stages
ONE_SWEEP = dict.fromkeys(
    ["partitions.sweep", "partitions._same_size", "partitions._doublings",
     "overpartitions.dk_sweep", "overpartitions._dk_moves", "overpartitions._dk_moves.moves"],
    "the one D_k sweep, whose state k the bounded stage sums into P_j")
PAIRS = {
    ("Dk-sweep", "Dk-product"): FORMAT,
    ("B", "B-product"): {
        **FORMAT,
        "packed.slot_width": "the slot bound: a width too narrow trips each route's own guard read",
    },
    ("B", "C-walk"): {},
    ("B", "C-sweep"): {**FORMAT, "packed.read_slots":
                       "the slot reader, which the C walk and the product's check never run"},
    ("C-walk-i1", "thm12-walk"): WALKER,
    ("C-walk", "thm13-walk"): WALKER,
    ("schur-knapsack", "schur-walk"): {},
    ("schur-knapsack", "schur-sweep"): {**FORMAT, "packed.read_slots":
                                        "the slot reader, which the gap walk never runs"},
    ("stream", "closed-product"): {**A_ORDER, **FORMAT, **SWEEP_WIDTH},
    ("pj-stream", "bounded-sweep"): {**FORMAT, **SWEEP_WIDTH, **ONE_SWEEP},
    ("stream", "Dk-product"): FORMAT,
    ("pj", "Dk-product"): FORMAT,
    ("rj", "Dk-product"): FORMAT,
}


def _functions() -> dict:
    """(file, first line) of each code object in src/qident -> (module.qualname,
    first line) of the function a call of it counts as: itself, or the one a
    comprehension is written in.  Closures share a co_name, and Python 3.10
    has no co_qualname, so names are read off the compiled modules."""
    functions = {}

    def walk(code, owner):
        for inner in filter(inspect.iscode, code.co_consts):
            comprehension = inner.co_name in ("<listcomp>", "<setcomp>", "<dictcomp>", "<genexpr>")
            name = owner if comprehension else (f"{owner[0]}.{inner.co_name}", inner.co_firstlineno)
            functions[inner.co_filename, inner.co_firstlineno] = name
            walk(inner, name)

    for path in Path(verify.__file__).parent.glob("*.py"):
        walk(compile(path.read_text(), str(path), "exec"), (path.stem, 0))
    return functions


FUNCTIONS = _functions()


def function(name: str) -> tuple:
    """The function a module-level name in qident is, through a cache's
    __wrapped__, or with more dots a function defined in it, by its name."""
    module, attr, *inner = name.split(".")
    code = inspect.unwrap(getattr(sys.modules[f"qident.{module}"], attr)).__code__
    for part in inner:
        (code,) = [c for c in code.co_consts if inspect.iscode(c) and c.co_name == part]
    return FUNCTIONS[code.co_filename, code.co_firstlineno]


def entered(route) -> set:
    """The functions in src/qident that route() enters, with the packed
    caches cleared first so that a cached width is worked out again.  The
    garbage collector runs first and is held off during the call, so a
    generator it finalizes is not counted as one the route entered."""
    for cached in vars(packed).values():
        getattr(cached, "cache_clear", lambda: None)()
    gc.collect()
    codes, previous = set(), sys.getprofile()
    gc.disable()
    sys.setprofile(lambda frame, event, arg: event == "call" and codes.add(frame.f_code))
    try:
        route()
    finally:
        sys.setprofile(previous)
        gc.enable()
    return {FUNCTIONS.get((code.co_filename, code.co_firstlineno)) for code in codes} - {None}


def sharing(left: str, right: str) -> tuple:
    """(unexplained, stale) for a PAIRS row: the functions both routes enter
    that it does not list, check_params aside, and those it lists that they
    do not share."""
    shared = entered(ROUTES[left]) & entered(ROUTES[right])
    listed = set(map(function, PAIRS[left, right]))
    return shared - listed - {function("partitions.check_params")}, listed - shared


class TestIndependence:
    # a kernel both routes of a pair run would carry one slip into both
    # sides of a comparison: it fails here until it is listed with a reason
    @pytest.mark.parametrize("left, right", PAIRS, ids=[f"{a}+{b}" for a, b in PAIRS])
    def test_routes_share_only_what_is_listed(self, left, right):
        assert sharing(left, right) == (set(), set())

    def test_an_unlisted_shared_function_is_reported(self, monkeypatch):
        real = appell.euler_check

        def also_allowing(*args):
            partitions.b_part_allowed(1, 2, 0)
            return real(*args)

        monkeypatch.setattr(appell, "euler_check", also_allowing)
        assert sharing("B", "B-product") == ({function("partitions.b_part_allowed")}, set())

    def test_a_collected_generator_is_not_entered(self):
        # a started sweep reachable only from a reference cycle: the
        # collector finalizes it before the route runs, not during it
        cycle = [overpartitions.dk_sweep(4, 2, 1)]
        next(cycle[0]), next(cycle[0]), cycle.append(cycle)
        del cycle
        collected = entered(lambda: (gc.collect(), ROUTES["closed-product"]()))
        assert function("partitions.sweep") not in collected

    def test_no_verifier_enters_series_arithmetic(self):
        # every compared route keeps its own arithmetic: none of the
        # verifiers runs BivariateSeries' or QSeries' algebra
        def run():
            verify.verify_all(5)
            for k in (2, 4):
                verify.verify_machinery(k, 200, 205, 10, 4, 6)
            verify.verify_corollary(2, 0, 1000, 8)

        arithmetic = {"__add__", "__sub__", "__mul__", "shift", "mul_qseries", "mul_binomial",
                      "invert_unit", "set_a", "conv_trunc", "bivar_mul", "_termwise", "_shifted"}
        assert {f for f, _ in entered(run) if f.rsplit(".", 1)[1] in arithmetic} == set()

    def test_no_verifier_expands_a_product(self):
        # each product side is checked by multiplying its table by Euler's
        # product: no verifier expands a product or runs the division
        def run():
            verify.verify_all(5)
            verify.verify_machinery(2, 200, 205, 10, 4, 6)
            verify.verify_corollary(2, 0, 1000, 8)

        expanding = ["series._divide", "appell.theorem_product", "appell.congruence_product_series",
                     "appell._expanded"]
        assert entered(run).isdisjoint(map(function, expanding))

    def test_batch_checks_read_the_stream_terms_as_they_are(self):
        # build_R keeps the D_k sweep's own state-k PackedTerms, and the batch
        # checks read them with no unpacking and no repacking
        for k, j_max, q_order in ((2, 62, 60), (5, 25, 20)):
            a_order = appell.max_overline_count(k, q_order)
            assert appell.build_R(k, j_max, q_order).terms == [
                states[k] for states in overpartitions.dk_sweep(q_order, k, a_order, j_max)]
        rs = appell.build_R(2, 62, 60)
        assert entered(lambda: appell.check_functional_equation(rs)).isdisjoint(
            {function("appell.unpack"), function("packed.pack_row")})
        assert function("packed.pack_row") not in entered(lambda: appell.appell_limit(rs))

    def test_no_route_runs_a_definition(self):
        # the satisfies_* predicates are what the tests check the routes against
        for name, route in ROUTES.items():
            assert not {f for f, _ in entered(route) if ".satisfies_" in f}, name


class TestMutations:
    @pytest.mark.parametrize("slip", ROUTE_SLIPS, ids=slip_ids(ROUTE_SLIPS))
    def test_route_slip(self, monkeypatch, slip):
        assert slip_misses(monkeypatch, slip) == {}

    def test_a_stage_left_off_a_slip_is_reported(self, monkeypatch):
        # R_6 off at a^1 q^3 fails three stages: a row that lists only the
        # functional equation has the other two reported
        (row,) = [r for r in ROUTE_SLIPS if r[:2] == ("overpartitions.dk_sweep", (6, 2, 1, 3))]
        stage = "machinery/functional-equation"
        cut = row._replace(caught={stage: row.caught[stage]})
        assert slip_misses(monkeypatch, cut).keys() == {
            "machinery/closed-product", "machinery/appell-limit"}

    @staticmethod
    def narrowed(monkeypatch, route, at, **ranges):
        """The misses of the ROUTE_SLIPS row bumping route at `at`, run
        under VERIFIERS' machinery call with the stage ranges given."""
        (row,) = [r for r in ROUTE_SLIPS if r[:2] == (route, at)]
        ranges = {"closed_product_j": 6, "enum_j": 6, "enum_n": 10, **ranges}
        call = partial(verify.verify_machinery, 2, 16, 20, **ranges)
        return slip_misses(monkeypatch, row._replace(calls={"machinery": call}))

    # three rows' slips, still caught alone when another stage's range shrinks
    @pytest.mark.parametrize("series, j, m, n", [("R", 3, 1, 5)])
    def test_bounded_enumeration_perturbed_table(self, monkeypatch, series, j, m, n):
        assert self.narrowed(monkeypatch, "overpartitions.dk_sweep", (j, 2, m, n),
                             closed_product_j=4) == {}

    @pytest.mark.parametrize("j, m, n", [(4, 2, 7)])
    def test_bounded_enumeration_perturbed_pj_series(self, monkeypatch, j, m, n):
        assert self.narrowed(monkeypatch, "appell.pj_series", (m, n), closed_product_j=4) == {}

    @pytest.mark.parametrize("j", [3])
    def test_closed_product_perturbed_coefficient(self, monkeypatch, j):
        assert self.narrowed(monkeypatch, "appell.closed_product_F_coefficients",
                             (j, 1, j + 2), enum_j=3, enum_n=8) == {}

    def test_every_route_has_a_slip(self):
        # every module name verify reads has a row, or a reason in UNROUTED
        tree = ast.parse(Path(verify.__file__).read_text())
        read = {
            f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in ("appell", "packed", "partitions", "overpartitions")
        }
        slipped = {row.route for row in ROUTE_SLIPS}
        assert read - slipped - UNROUTED.keys() == set()
        assert UNROUTED.keys() <= read

    def test_every_definition_has_a_caller(self):
        # a library function, class or public method that nothing in src
        # references outside its own body is dead code, unless the benchmark
        # uses its name or UNCALLED gives a reason; imports are not references
        src = Path(verify.__file__).parent
        trees = {path.stem: ast.parse(path.read_text()) for path in src.glob("*.py")}
        used = Counter(name for tree in trees.values() for name in references(tree))
        bench = set()
        for path in (Path(__file__).parents[1] / "perfbench").rglob("*.py"):
            tree = ast.parse(path.read_text())
            bench.update(name.rsplit(".", 1)[-1] for name in references(tree))
            bench.update(n.value for n in ast.walk(tree) if isinstance(n, ast.Constant))
        defined = dict(kv for module in LIBRARY for kv in definitions(trees[module], module))
        # module.Cls.name is read as name or as Cls.name, module.name as name
        own = {key: Counter(references(node)) for key, node in defined.items()}
        uncalled = {key for key, node in defined.items()
                    if all(used[n] == own[key][n] for n in {key.split(".", 1)[1], node.name})}
        unexplained = {key for key in uncalled if key.rsplit(".", 1)[1] not in bench}
        assert unexplained - UNCALLED.keys() == set()
        # and each reason still names a definition nothing calls
        assert UNCALLED.keys() <= unexplained

    # each slip lists extra's last part, leading to state leads_to, where
    # the corollary's table refuses it: an odd part repeated, or a part at
    # the top of an odd part's even window (each window one value short)
    @pytest.mark.parametrize("k, i, extra, leads_to", [
        (2, 0, (1, 1), (1, 1)),
        (3, 1, (3, 3), (3, 3)),
        (2, 0, (2, 1), (1, 1)),
        (3, 1, (4, 3), (3, 3)),
        (2, 1, (3, 2), (2, 3)),
    ], ids=["repeat-2-0", "repeat-3-1", "window-2-0", "window-3-1", "window-2-1"])
    def test_corollary_new_part_slip(self, monkeypatch, k, i, extra, leads_to):
        # extra is the one partition the slip admits at the first weight it
        # affects, so C exceeds B by one there and nowhere below
        n = sum(extra)
        assert not partitions.satisfies_corollary(extra, k, i)
        at = state_after(partitions._corollary_rule(k, i), extra[:-1])
        monkeypatch.setattr(partitions, "_corollary_rule", edited_rule(
            partitions._corollary_rule, adding_entry(at, (extra[-1], leads_to))
        ))
        rep = verify.verify_corollary(k, i, 40, 25)
        assert (rep.status, rep.notes) == ("fail", [])
        assert (rep.witness["n"], rep.witness["count_C"]) == (n, rep.witness["count_B"] + 1)
        assert partitions.format_partition(extra) in rep.witness["C_partitions"]

    @pytest.mark.parametrize("k, i, child, leads_to", [
        (2, 0, (3, 3), (3, 3)), (2, 0, (4, 3), (3, 3)), (3, 2, (5, 4), (4, 5)),
    ], ids=["2-0-child0", "2-0-child1", "3-2-child2"])
    def test_walk_extends_a_rejected_prefix(self, monkeypatch, k, i, child, leads_to):
        # every rule assumes the walk and the tally take only the children
        # its table lists; one unlisted child taken anyway must be caught at
        # its weight
        assert partitions.satisfies_corollary(child[:-1], k, i)
        assert not partitions.satisfies_corollary(child, k, i)
        at = state_after(partitions._corollary_rule(k, i), child[:-1])
        for name in ("partitions_up_to", "_tally"):
            monkeypatch.setattr(partitions, name, admitting(
                getattr(partitions, name), at, (child[-1], leads_to)
            ))
        rep = verify.verify_corollary(k, i, 40, 25)
        assert (rep.status, rep.notes) == ("fail", [])
        assert rep.witness["n"] == sum(child)
        assert rep.witness["count_C"] > rep.witness["count_B"]
        assert partitions.format_partition(child) in rep.witness["C_partitions"]

    @pytest.mark.parametrize("call, witness, listed", [
        (lambda: verify.verify_corollary(2, 0, 40, 25), {"n": 6, "count_B": 4, "count_C": 3},
         ("C_partitions", 4)),
        (lambda: verify.verify_schur(30), {"n": 12, "product_count": 6, "gap_count": 5},
         ("gap_partitions", 6)),
    ], ids=["corollary-2-0", "schur"])
    def test_tally_overwriting_a_merged_state(self, monkeypatch, call, witness, listed):
        # the tally overwrites a child state's count with its last parent's
        # in place of adding to it, so the prefixes that meet in one state
        # count as the last one alone: the walk tables fall short where two
        # first meet, while the witness lists, which do not merge, still
        # list every partition
        slip_source(monkeypatch, partitions, "_tally",
                    "below[child] = below.get(child, 0) + ways", "below[child] = ways")
        rep = call()
        assert (rep.status, rep.notes) == ("fail", [])
        assert witness.items() <= rep.witness.items()
        key, length = listed
        assert len(rep.witness[key]) == length

    # each cut is the lightest prefix to reach its parent's state and then
    # add its last part, so the first weight the cut costs is its own
    @pytest.mark.parametrize("k, i, cut", [(2, 0, (5, 4)), (3, 1, (6,)), (4, 3, (15, 8, 2))])
    def test_corollary_pruned_branch(self, monkeypatch, k, i, cut):
        first = first_weight_below(cut, 25, lambda p: partitions.satisfies_corollary(p, k, i))
        assert first == sum(cut)
        listed = len(partitions.c_witnesses(first, k, i))
        monkeypatch.setattr(
            partitions, "_corollary_rule", cutting(partitions._corollary_rule, cut)
        )
        rep = verify.verify_corollary(k, i, 40, 25)
        assert rep.status == "fail"
        assert rep.witness["n"] == first
        assert rep.witness["count_C"] < rep.witness["count_B"]
        # the cut reaches the witness list as well as the tally
        lost = rep.witness["count_B"] - rep.witness["count_C"]
        assert len(partitions.c_witnesses(first, k, i)) == listed - lost

    @pytest.mark.parametrize("cut", [(4,), (7, 1), (12, 6)])
    def test_schur_pruned_branch(self, monkeypatch, cut):
        first = first_weight_below(cut, 30, partitions.satisfies_schur_gap)
        assert first == sum(cut)  # each cut is a gap partition itself
        real = partitions._SCHUR_GAP_RULE
        monkeypatch.setattr(partitions, "_SCHUR_GAP_RULE", cutting(lambda: real, cut)())
        rep = verify.verify_schur(30)
        assert rep.status == "fail"
        assert rep.witness["n"] == first
        assert rep.witness["gap_count"] == rep.witness["product_count"] - 1

    @pytest.mark.parametrize("min_distinct, n, m, lost", [(1, 1, 1, "1~"), (2, 3, 1, "2+1~")])
    def test_overpartition_dropped_mask_against_sweep(self, monkeypatch, min_distinct, n, m, lost):
        # lost is the first admissible object the mutant drops, at weight n.
        # The verifier counts D_k by the sweep, which runs no mask step, so
        # the slip reaches the witness lists alone; the sweep's table is the
        # count they fall short of, first at (n, m)
        assert lost in {str(o) for o in overpartitions.d_witnesses(m, n, 2)}
        table = overpartitions.count_Dk_table(10, 2, 8)
        monkeypatch.setattr(
            overpartitions, "_overlinable",
            dropping_new_overlines(overpartitions._overlinable, min_distinct),
        )
        assert overpartitions.count_Dk_table(10, 2, 8) == table
        assert verify.verify_overpartition(2, 10).status == "pass"
        listed = [[len(overpartitions.d_witnesses(mm, nn, 2)) for nn in range(11)] for mm in range(9)]
        short = [(nn, mm) for nn in range(11) for mm in range(9) if listed[mm][nn] != table[mm][nn]]
        assert short[0] == (n, m)
        assert listed[m][n] == table[m][n] - 1
        assert lost not in {str(o) for o in overpartitions.d_witnesses(m, n, 2)}

    def test_Dk_sweep_transition_off(self, monkeypatch):
        # plain copies of v one past an overlined v - 1 (d = k - 1 = 1) are
        # refused, as if they needed d = k; the first object lost is 2+1~,
        # at n = 3 with m = 1.  The C count reads the same sweep, so it
        # loses 2+1~'s image, 4+1 at i = 0 and 4+3 at i = 1
        def plain_needs_k(v, d, moves):
            return [(partitions.SKIP, t) if d == 1 and kind == partitions.ANY else (kind, t)
                    for kind, t in moves]

        monkeypatch.setattr(overpartitions, "_dk_moves",
                            edited_moves(overpartitions._dk_moves, plain_needs_k))
        rep = verify.verify_overpartition(2, 10)
        assert rep.status == "fail"
        w = rep.witness
        assert (w["n"], w["m"]) == (3, 1)
        assert w["sweep_count"] == w["enumeration_count"] - 1 == w["product_coefficient"] - 1
        assert "2+1~" in w["overpartitions"]
        # the machinery counts R_j on the same sweep: R_2 loses 2+1~, so the
        # recursion, the closed form and the limit each fail at a q^3.  P_j
        # is summed from the same states, and the bounded stage passes
        rep = verify.verify_machinery(2, 16, 20, closed_product_j=4, enum_j=6, enum_n=10)
        assert [(s.status, s.witness) for s in rep.subreports] == [
            ("fail", {"j": 2, "a_degree": 1, "q_degree": 3}),
            ("fail", {"j": 2, "a_degree": 1, "q_degree": 3}),
            ("fail", {"a_degree": 1, "q_degree": 3, "limit": 2, "product": 3}),
            ("pass", None)]
        for i, n, image in ((0, 5, "4+1"), (1, 7, "4+3")):
            rep = verify.verify_corollary(2, i, 40, 25)
            assert (rep.status, rep.notes) == ("fail", [])
            w = rep.witness
            assert (w["n"], w["route"], w["count_C"]) == (n, "sweep", w["count_B"] - 1)
            assert image in w["C_partitions"]

    def test_Dk_sweep_plain_copies_early_past_30(self, monkeypatch):
        # plain copies of v allowed one state early (d = k - 2) at v >= 30
        # only, at k = 3: past the suite's bounded range (j <= 10, n <= 18),
        # so only the counted R_j shows it.  Stage 1 checks the recursion on
        # them and fails at R_31, first at a q^59; the limit, R_63, is one
        # over the product there.  The closed-product and bounded stages
        # fail too at their full-range defaults, and pass at the suite's
        def early(v, d, moves):
            return [(partitions.ANY, t) if v >= 30 and d == 1 and kind == partitions.SKIP
                    else (kind, t) for kind, t in moves]

        monkeypatch.setattr(overpartitions, "_dk_moves",
                            edited_moves(overpartitions._dk_moves, early))
        stage_1 = ("fail", {"j": 31, "a_degree": 1, "q_degree": 59})
        limit = ("fail", {"a_degree": 1, "q_degree": 59, "limit": 1876120, "product": 1876119})
        rep = verify.verify_machinery(3, 60)
        outcomes = [(s.status, s.witness) for s in rep.subreports]
        assert (rep.status, outcomes[0], outcomes[2]) == ("fail", stage_1, limit)
        assert {status for status, _ in outcomes} == {"fail"}
        rep = verify.verify_machinery(3, 60, closed_product_j=10, enum_j=10, enum_n=18)
        assert [(s.status, s.witness) for s in rep.subreports] == [
            stage_1, ("pass", None), limit, ("pass", None)]

    def test_schur_sweep_transition_off(self, monkeypatch):
        # a part exactly 3 above the last is dropped; 4+1 is lost at n = 5
        real, edit = partitions._schur_moves, dropping(partitions.ONE, lambda state: state[0] == 3)
        monkeypatch.setattr(partitions, "_schur_moves",
                            lambda v, state: edit(v, state, real(v, state)))
        rep = verify.verify_schur(12)
        assert rep.status == "fail"
        w = rep.witness
        assert (w["n"], "gap_count" in w) == (5, False)
        assert w["sweep_count"] == w["product_count"] - 1
        assert "4+1" in w["gap_partitions"]

    def test_overpartition_product_slip_past_the_limit(self, monkeypatch):
        # a slip at n = 60 is caught there, and the witness lists no objects:
        # no walk runs past ENUM_HARD_LIMIT
        def walked(*args, **kwargs):
            raise AssertionError("an enumeration ran")

        monkeypatch.setattr(appell, "product_numerator", bumped(appell.product_numerator, (0, 60)))
        monkeypatch.setattr(overpartitions, "d_witnesses", walked)
        monkeypatch.setattr(overpartitions, "_walk_to", walked)
        rep = verify.verify_overpartition(2, 100)
        assert rep.status == "fail"
        w = rep.witness
        assert list(w) == ["n", "m", "sweep_count", "product_coefficient"]
        assert (w["n"], w["m"], w["product_coefficient"]) == (60, 0, w["sweep_count"] + 1)
        assert rep.notes == [f"no objects listed: {verify._REFUSED}"]

    def test_corollary_reports_product_before_c(self, monkeypatch):
        # the product and C both differ from B at n = 7 (the numerator one
        # high there puts the product one high): B against the product is
        # reported; with the product mended, the C sweep against B
        real_numerator = appell.product_numerator
        monkeypatch.setattr(partitions, "count_C_table", bumped(partitions.count_C_table, (7,)))
        monkeypatch.setattr(appell, "product_numerator", bumped(real_numerator, (0, 7)))
        count_b = partitions.count_B_table(30, 2, 0)[7]
        rep = verify.verify_corollary(2, 0, 30, 12)
        assert (rep.status, rep.notes) == ("fail", [])
        assert rep.witness == {"n": 7, "count_B": count_b, "product_coefficient": count_b + 1}
        monkeypatch.setattr(appell, "product_numerator", real_numerator)
        rep = verify.verify_corollary(2, 0, 30, 12)
        assert (rep.status, rep.notes) == ("fail", [])
        assert (rep.witness["n"], rep.witness["count_B"], rep.witness["count_C"]) == (
            7, count_b, count_b + 1
        )

    def test_packed_doubling_slip(self, monkeypatch):
        # the packed knapsack's first doubling step for each part shifts one
        # slot too far, q^{p+1} for q^p: at (2, 0) its smallest part, 1,
        # lands 1+1 on q^3, and B loses that partition of 2; the product
        # route packs no knapsack and catches it at that first n
        count_b = partitions.count_B_table(60, 2, 0)
        slip_source(monkeypatch, partitions, "_packed_knapsack",
                    "rest += rest >> width * s", "rest += rest >> width * (s + (s == p))")
        slipped_b = partitions.count_B_table(60, 2, 0)
        first = next(n for n, (a, b) in enumerate(zip(slipped_b, count_b)) if a != b)
        assert (first, slipped_b[first]) == (2, count_b[2] - 1)
        rep = verify.verify_corollary(2, 0, 60, 25)
        assert (rep.status, rep.notes) == ("fail", [])
        assert rep.witness == {"n": 2, "count_B": count_b[2] - 1,
                               "product_coefficient": count_b[2]}

    @staticmethod
    def closed_product_fails_alone_at(cell):
        """Assert that the closed form, as patched, first differs from the
        sweep's R_j at cell, (j, a-degree, q-degree), and that the
        closed-product stage at every j to q-order 60 fails there while the
        others pass."""
        counted = [appell.unpack(t) for t in appell.build_R(2, 62, 60).terms]
        closed = [appell.unpack(t) for t in appell.closed_product_F_coefficients(2, 62, 60)]
        assert next((j, *c.first_difference(t))
                    for j, (c, t) in enumerate(zip(closed, counted)) if c != t) == cell
        rep = verify.verify_machinery(2, 60, closed_product_j=62)
        sub = {s.identity: s for s in rep.subreports}
        stage = sub.pop("machinery/closed-product")
        assert (rep.status, stage.status) == ("fail", "fail")
        assert stage.witness == dict(zip(("j", "a_degree", "q_degree"), cell))
        assert {s.status for s in sub.values()} == {"pass"}

    def test_closed_product_running_part_off_by_one(self, monkeypatch):
        # each running row takes the part j - kd + 1 in place of j - kd, so
        # the a^0 row of the x^1 term takes 2 for 1 and loses q^1
        slip_source(monkeypatch, appell, "_closed_product_terms",
                    "divided(rows[d], j - k * d)", "divided(rows[d], j - k * d + 1)")
        self.closed_product_fails_alone_at((1, 0, 1))

    def test_closed_product_doubling_one_step_short(self, monkeypatch):
        # each division skips its step s = q_order: 1/(1 - q^15), the first
        # with a step there, loses q^60 from the x^15 term's a^0 row
        slip_source(monkeypatch, appell, "_closed_product_terms",
                    "while s <= q_order", "while s < q_order")
        self.closed_product_fails_alone_at((15, 0, 60))

    def test_closed_product_row_started_one_slot_late(self, monkeypatch):
        # each new row d >= 1 starts at q^{least_weight(k, d) + 1}: the a^1
        # row of the x^2 term loses q^1
        monkeypatch.setattr(appell, "least_weight", self.one_late_in("_closed_product_terms"))
        self.closed_product_fails_alone_at((2, 1, 1))

    def test_C_sweep_overline_two_too_heavy(self, monkeypatch):
        # the C sweep weighs an overlined v as 2v + 2i + 1 in place of
        # 2v + 2i - 1: at (2, 0) the overlined 1 maps to 3 for 1, and C
        # loses the partition 1 at n = 1, its first n
        slip_source(monkeypatch, partitions, "count_C_table", "2 * v + 2 * i - 1", "2 * v + 2 * i + 1")
        rep = verify.verify_corollary(2, 0, 40, 25)
        assert (rep.status, rep.notes) == ("fail", [])
        w = rep.witness
        assert (w["n"], w["count_B"], w["count_C"], w["route"]) == (1, 1, 0, "sweep")
        assert w["C_partitions"] == ["1"]

    def test_bounded_enumeration_first_cell_of_a_j(self, monkeypatch):
        # two slips after value 4, in state 1, so P alone is off: at
        # (m, n) = (0, 8) and (2, 7).  The witness is the first cell in
        # (n, m) order, though m = 0 comes before m = 2
        monkeypatch.setattr(overpartitions, "dk_sweep", bumped(
            bumped(overpartitions.dk_sweep, (4, 1, 0, 8)), (4, 1, 2, 7)))
        rep = verify.verify_machinery(2, 16, 20, closed_product_j=4, enum_j=6, enum_n=10)
        sub = {s.identity: s for s in rep.subreports}["machinery/bounded-enumeration"]
        w = sub.witness
        assert (sub.status, w["series"], w["j"], w["m"], w["n"]) == ("fail", "P", 4, 2, 7)
        assert w["enumeration"] == w["coefficient"] + 1

    def test_dual_thm13_phrasing_accepts_extra_partition(self, monkeypatch):
        # 3+3 repeats an odd part, so no phrasing at k = 2 counts it; a thm13
        # table that lists 3 below a 3 must be caught at n = 6 against the
        # corollary
        extra = (3, 3)
        assert not partitions.satisfies_thm13(extra, 2)
        at = state_after(partitions._thm13_rule(2), extra[:-1])
        monkeypatch.setattr(partitions, "_thm13_rule", edited_rule(
            partitions._thm13_rule, adding_entry(at, (3, 3))
        ))
        count_c = partitions.count_C_table(6, 2, 0)[6]
        rep = verify.verify_dual(2, 30, 12)
        assert rep.status == "fail"
        assert rep.witness == {"n": 6, "count_C_corollary": count_c, "count_C_thm13": count_c + 1}
        assert rep.notes == ["phrasing thm13 diverged from corollary phrasing"]

    def test_andrews_thm12_window_slip(self, monkeypatch):
        # a thm12 table that lists the even part 4 below the odd part 5 lets
        # it into 5's downward window.  At k = 3 the first part 3 is
        # refused, so 5+4 at n = 9 is the first partition that slips in
        extra = (5, 4)
        assert not partitions.satisfies_thm12(extra, 3)
        at = state_after(partitions._thm12_rule(3), extra[:-1])
        monkeypatch.setattr(partitions, "_thm12_rule", edited_rule(
            partitions._thm12_rule, adding_entry(at, (4, (4, 5)))
        ))
        assert partitions.c_witnesses(9, 3, 2, "thm12") == sorted(
            [*partitions.c_witnesses(9, 3, 2), extra], reverse=True
        )
        count_c = partitions.count_C_table(9, 3, 2)[9]
        rep = verify.verify_andrews(3, 30, 12)
        assert rep.status == "fail"
        assert rep.witness == {"n": 9, "count_C_corollary": count_c, "count_C_thm12": count_c + 1}
        assert rep.notes == ["phrasing thm12 diverged from corollary phrasing"]

    def test_machinery_fail_over_aborted(self, monkeypatch):
        # R_3 off at a q^5 with j_max short of q_order + k: three stages fail
        # while the limit stage cannot certify, and the mismatch found
        # decides the report.  The bounded stage sees R_3 in P_4, at a^2 q^9
        monkeypatch.setattr(overpartitions, "dk_sweep", bumped(overpartitions.dk_sweep, (3, 3, 1, 5)))
        rep = verify.verify_machinery(3, 24, 20, closed_product_j=4, enum_j=4, enum_n=10)
        sub = {s.identity: s for s in rep.subreports}
        assert sub.pop("machinery/appell-limit").status == "aborted"
        cell = {"j": 3, "a_degree": 1, "q_degree": 5}
        assert sub["machinery/functional-equation"].witness == cell
        assert sub["machinery/closed-product"].witness == cell
        w = sub["machinery/bounded-enumeration"].witness
        assert (w["series"], w["j"], w["m"], w["n"]) == ("P", 4, 2, 9)
        assert all(s.status == "fail" for s in sub.values())
        assert rep.status == "fail"

    def test_appell_limit_perturbed_settled_term(self, monkeypatch):
        # R_15 off at a q^5, long after q^5 settles (j = 6) and before the
        # last two terms, which still agree: the settling bound catches it
        monkeypatch.setattr(overpartitions, "dk_sweep", bumped(overpartitions.dk_sweep, (15, 2, 1, 5)))
        rep = verify.verify_machinery(2, 16, 20, closed_product_j=4, enum_j=3, enum_n=8)
        sub = {s.identity: s for s in rep.subreports}["machinery/appell-limit"]
        assert (sub.status, sub.witness) == ("fail", {"a_degree": 1, "q_degree": 5})
        assert "a^1 q^5" in sub.notes[0]
        assert "between j=14 and j=15" in sub.notes[0]
        assert "settles by j=6" in sub.notes[0]
        assert rep.status == "fail"

    @staticmethod
    def one_late_in(reader):
        """appell.least_weight one too high at a-degree m >= 1 where the
        function `reader` reads it, and as it was for every other reader."""
        real = appell.least_weight

        def late(k, m, lo=1):
            frame = sys._getframe(1)
            while frame.f_code.co_name.startswith("<"):  # a comprehension's own frame
                frame = frame.f_back
            return real(k, m, lo) + (m >= 1 and frame.f_code.co_name == reader)

        return late

    def test_expansion_slip_changes_the_frozen_digests(self, monkeypatch):
        # the division one high at q^7 of every row: no verifier expands a
        # product (each multiplies its table by Euler's product), so the
        # suite still passes, and the frozen digests of theorem_product(2, 60)
        # and of B's table at 200, which the corollary's product equals, are
        # what catch it
        frozen = json.loads(test_frozen_tables.DIGESTS.read_text())
        expansions = {
            "theorem_product(2, 60)": lambda: appell.theorem_product(2, 60).coeffs,
            "count_B_table(200, 2, 0)": lambda: appell.congruence_product_series(2, 0, 200).coeffs,
        }
        for name, expand in expansions.items():
            assert test_frozen_tables.digest(expand()) == frozen[name]
        real = appell.congruence_product_series(2, 0, 200)
        monkeypatch.setattr(appell, "_divide", bumped(appell._divide, (7,)))
        slipped = appell.congruence_product_series(2, 0, 200)
        assert slipped.coefficient(7) == real.coefficient(7) + 1
        for name, expand in expansions.items():
            assert test_frozen_tables.digest(expand()) != frozen[name], name
        assert {r.status for r in verify.verify_all(5)} == {"pass"}


class TestCli:
    def run(self, *args):
        return CliRunner().invoke(main, list(args))

    def test_golden(self):
        result = self.run("golden-n10")
        assert result.exit_code == 0
        assert "PASS" in result.output

    def test_verify_schur(self):
        result = self.run("verify", "schur", "--n-max", "12")
        assert result.exit_code == 0

    def test_verify_overpartition_json(self):
        result = self.run("--format", "json", "verify", "overpartition", "--k", "2", "--n-max", "8")
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["status"] == "pass"

    def test_verify_andrews_dual(self):
        assert self.run("verify", "andrews", "--k", "2", "--n-max", "30", "--enum-limit", "10").exit_code == 0
        assert self.run("verify", "dual", "--k", "2", "--n-max", "30", "--enum-limit", "10").exit_code == 0

    def test_verify_machinery(self):
        result = self.run("verify", "machinery", "--k", "2", "--q-order", "16", "--j-max", "20")
        assert result.exit_code == 0

    def test_verify_machinery_default_j_max(self):
        result = self.run("--format", "json", "verify", "machinery", "--k", "7", "--q-order", "30")
        assert result.exit_code == 0
        assert json.loads(result.output)["range"]["j_max"] == 37

    @pytest.mark.parametrize("args", [
        ("verify", "schur", "--n-max", "-1"),
        ("verify", "machinery", "--k", "2", "--q-order", "-3"),
        ("verify", "machinery", "--k", "1"),
        ("verify", "corollary", "--k", "3", "--i", "5"),
        ("verify", "all", "--k-max", "1"),
        ("verify", "all", "--k-max", "0"),
    ])
    def test_bad_input_is_usage_error(self, args):
        result = self.run(*args)
        assert result.exit_code == 2
        assert "Invalid value" in result.output

    @pytest.mark.parametrize("args", [
        ("verify", "corollary", "--k", "3", "--i", "5"),
        ("coeffs", "--side", "product", "--k", "2", "--i", "-1"),
        ("list", "--side", "B", "--k", "4", "--i", "4", "--n", "5"),
    ])
    def test_i_rule_has_the_library_wording(self, args):
        k = int(args[args.index("--k") + 1])
        with pytest.raises(ValueError) as exc:
            partitions.check_params(k, int(args[args.index("--i") + 1]))
        result = self.run(*args)
        assert result.exit_code == 2
        assert f"Invalid value for '--i': {exc.value}" in result.output
        assert f"i must lie in [0, {k - 1}]" in result.output

    def test_nonzero_exit_on_abort(self):
        result = self.run("verify", "schur", "--n-max", str(verify.ENUM_HARD_LIMIT + 1))
        assert result.exit_code == 1

    def test_coeffs_product_csv(self):
        result = self.run("--format", "csv", "coeffs", "--side", "product", "--k", "2",
                          "--i", "0", "--n-max", "10")
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert lines[0] == "n,coefficient"
        assert lines[-1] == "10,10"

    # csv has rows only in coeffs; every other command refuses it alike
    @pytest.mark.parametrize("args", [
        ("list", "--side", "B", "--k", "2", "--n", "6"),
        ("verify", "schur", "--n-max", "6"),
        ("golden-n10",),
    ])
    def test_csv_outside_coeffs_is_usage_error(self, args):
        result = self.run("--format", "csv", *args)
        assert result.exit_code == 2
        assert "csv format applies to `coeffs` only" in result.output

    def test_csv_refused_before_the_work(self, monkeypatch):
        def work(*args, **kwargs):
            raise AssertionError("verify_all ran")

        monkeypatch.setattr(verify, "verify_all", work)
        result = self.run("--format", "csv", "verify", "all")
        assert result.exit_code == 2
        assert "csv format applies to `coeffs` only" in result.output

    def test_coeffs_overpartition_product_json(self):
        result = self.run("--format", "json", "coeffs", "--side", "overpartition-product",
                          "--k", "2", "--n-max", "5")
        assert result.exit_code == 0
        rows = {(r["m"], r["n"]): r["coefficient"] for r in json.loads(result.output)}
        assert rows[(1, 1)] == 1

    def test_coeffs_overpartition_product_reads_no_i(self):
        # --i belongs to the corollary's sides: the D_k product ignores it
        result = self.run("coeffs", "--side", "overpartition-product", "--k", "2", "--i", "3")
        assert result.exit_code == 0
        assert result.output == self.run("coeffs", "--side", "overpartition-product", "--k", "2").output

    def test_list_d_reads_no_i(self):
        # --i belongs to the corollary's sides: D_k's list ignores it
        result = self.run("list", "--side", "D", "--k", "2", "--i", "5", "--n", "3")
        assert result.exit_code == 0
        assert result.output == self.run("list", "--side", "D", "--k", "2", "--n", "3").output
        assert result.output.endswith("total: 6\n")

    def test_coeffs_sum_runs_past_the_limit(self):
        # the sum side is the sweep's table, so it runs past ENUM_HARD_LIMIT
        n_max = str(verify.ENUM_HARD_LIMIT + 1)
        out_sum = self.run("coeffs", "--side", "sum", "--k", "2", "--i", "0", "--n-max", n_max)
        out_prod = self.run("coeffs", "--side", "product", "--k", "2", "--i", "0", "--n-max", n_max)
        assert out_sum.exit_code == 0
        assert "refused" not in out_sum.output
        assert out_sum.output == out_prod.output

    def test_coeffs_sum_matches_product(self):
        out_sum = self.run("coeffs", "--side", "sum", "--k", "2", "--i", "0", "--n-max", "12")
        out_prod = self.run("coeffs", "--side", "product", "--k", "2", "--i", "0", "--n-max", "12")
        assert out_sum.output == out_prod.output

    @pytest.mark.parametrize("k", range(2, 7))
    def test_list_d_prints_the_objects(self, k):
        for n in (0, 1, 7, 16):
            expected = [
                str(o) for o in overpartitions.enumerate_overpartitions(n)
                if overpartitions.is_Dk_admissible(o, k)
            ]
            result = self.run("--format", "json", "list", "--side", "D", "--k", str(k), "--n", str(n))
            assert json.loads(result.output) == expected, (k, n)
            result = self.run("list", "--side", "D", "--k", str(k), "--n", str(n))
            assert result.output.splitlines() == [*expected, f"total: {len(expected)}"], (k, n)

    @staticmethod
    def oracle_list(side, k, i, n):
        """The strings of a list, built by the tests: B and C joined here
        from the walks' tuples, D from the filter's entries."""
        if side == "D":
            return [entries_string(o) for o in filter_admissible(n, k)]
        witnesses = {"B": partitions.b_witnesses, "C": partitions.c_witnesses}[side]
        return ["+".join(map(str, p)) or "0" for p in witnesses(n, k, i)]

    @staticmethod
    def oracle_bytes(fmt, expected):
        if fmt == "json":
            want = json.dumps(expected, indent=2) + "\n"
        else:
            want = "".join(line + "\n" for line in [*expected, f"total: {len(expected)}"])
        return want.encode()

    @pytest.mark.parametrize("k", (2, 3, 5))
    @pytest.mark.parametrize("fmt", ("json", "text"))
    @pytest.mark.parametrize("side", "BCD")
    def test_list_prints_the_oracles_bytes(self, side, fmt, k):
        # the bytes of every list against the oracle's strings (the
        # filter's enumeration stops at n = 14, so D stops at n = 10)
        for i in range(k):
            for n in (0, 1, 2, 5, 10) if side == "D" else (0, 1, 2, 5, 10, 26):
                expected = self.oracle_list(side, k, i, n)
                result = self.run("--format", fmt, "list", "--side", side, "--k", str(k),
                                  "--i", str(i), "--n", str(n))
                assert result.exit_code == 0, (side, k, i, n)
                assert result.stdout_bytes == self.oracle_bytes(fmt, expected), (side, k, i, n)

    # (k, i, n) of a list of each length (B and C have equal lengths); D is
    # never empty, since the plain partition of n is always admissible
    SIZED_BC = {0: (2, 1, 1), 1: (2, 0, 0), 2: (2, 0, 4), 3: (2, 0, 5)}
    SIZED = {"B": SIZED_BC, "C": SIZED_BC, "D": {1: (2, 0, 0), 2: (2, 0, 1), 3: (2, 0, 2)}}

    @pytest.mark.parametrize("chunk", (1, 2))
    @pytest.mark.parametrize("fmt", ("json", "text"))
    @pytest.mark.parametrize("side", "BCD")
    def test_list_bytes_across_chunks(self, monkeypatch, side, fmt, chunk):
        # lists of 0, 1, chunk and chunk + 1 items: the first write, a full
        # chunk and a chunk that follows one
        monkeypatch.setattr(cli, "CHUNK", chunk)
        for length in {0, 1, chunk, chunk + 1} & self.SIZED[side].keys():
            k, i, n = self.SIZED[side][length]
            expected = self.oracle_list(side, k, i, n)
            assert len(expected) == length, (side, k, i, n)
            result = self.run("--format", fmt, "list", "--side", side, "--k", str(k),
                              "--i", str(i), "--n", str(n))
            assert result.exit_code == 0, (side, k, i, n)
            assert result.stdout_bytes == self.oracle_bytes(fmt, expected), (side, k, i, n)

    @pytest.mark.parametrize("side", "BCD")
    def test_json_list_is_json_dumps(self, side):
        # the writer quotes each chunk with one join, which is json.dumps's
        # layout only while no string needs escaping
        strings = {
            "B": partitions.b_strings,
            "C": partitions.c_strings,
            "D": lambda n, k, i: overpartitions.d_strings(n, k),
        }[side]
        lengths = set()
        for k, i in ((2, 0), (2, 1), (3, 1), (5, 4)):
            for n in (0, 1, 10):
                items = list(strings(n, k, i))
                lengths.add(len(items))
                assert all(re.fullmatch(r"[0-9+~]+", x) for x in items), (side, k, i, n)
                result = self.run("--format", "json", "list", "--side", side, "--k", str(k),
                                  "--i", str(i), "--n", str(n))
                assert result.exit_code == 0, (side, k, i, n)
                assert result.stdout_bytes == (json.dumps(items, indent=2) + "\n").encode()
        # B and C at (3, 1, 1) are empty; D never is
        assert (0 in lengths) == (side != "D")

    def test_list_prints_the_empty_array_and_the_empty_object(self):
        result = self.run("--format", "json", "list", "--side", "B", "--k", "3", "--i", "1", "--n", "1")
        assert result.stdout_bytes == b"[]\n"
        for side in "BCD":
            result = self.run("--format", "json", "list", "--side", side, "--k", "2", "--n", "0")
            assert result.stdout_bytes == b'[\n  "0"\n]\n', side

    @pytest.mark.parametrize("args", [
        ("list", "--side", "D", "--k", "2", "--n", "8"),
        ("verify", "all", "--k-max", "2"),
    ], ids=["list-D", "verify-all"])
    def test_text_is_the_lines_joined(self, monkeypatch, args):
        emitted = []
        real = cli._emit

        def capturing(ctx, payload, text_lines):
            emitted.append(list(text_lines))
            real(ctx, payload, emitted[-1])

        monkeypatch.setattr(cli, "_emit", capturing)
        result = self.run(*args)
        assert result.exit_code == 0
        [lines] = emitted
        assert result.stdout_bytes == ("\n".join(lines) + "\n").encode()

    def test_list_sides(self):
        result = self.run("list", "--side", "B", "--k", "2", "--i", "0", "--n", "10")
        assert result.exit_code == 0
        assert "total: 10" in result.output
        assert "9+1" in result.output
        result = self.run("list", "--side", "C", "--k", "2", "--i", "0", "--n", "10")
        assert "total: 10" in result.output
        result = self.run("list", "--side", "D", "--k", "2", "--i", "0", "--n", "2")
        assert "total: 3" in result.output
