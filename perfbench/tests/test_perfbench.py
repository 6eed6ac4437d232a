"""Tests of the benchmark itself; run with  python3 -m pytest perfbench/tests

They use the tiny input size, so each run takes seconds.
"""

import contextlib
import io
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from qident import appell, partitions, verify  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_command(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def result_of(proc):
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("size", sorted(workloads.SIZES))
def test_expected_counts_match_dp_and_product_routes(size):
    spec = workloads.SIZES[size]
    n = spec["list_bc"]["n"]
    for (k, i), count in workloads.EXPECTED_BC[size].items():
        assert count == partitions.count_B_table(n, k, i)[n]
    assert sorted(workloads.EXPECTED_BC[size]) == [
        (k, i) for k in spec["list_bc"]["ks"] for i in range(k)
    ]
    n = spec["list_d"]["n"]
    assert workloads.EXPECTED_D[size] == {
        k: appell.theorem_product(k, n).set_a(1).coefficient(n) for k in spec["list_d"]["ks"]
    }
    co = spec["coeffs_sum"]
    assert workloads.EXPECTED_COEFFS[size] == partitions.count_B_table(co["n_max"], co["k"], co["i"])


def test_benchmark_json_names_what_the_command_prints():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == tracer.catalog()
    assert list(tracer.LAYERS) == list(run.LAYERS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_reports_every_metric(workload):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = run_command("--workload", workload, "--seed", "7", "--seconds", "0",
                           "--trace", str(trace), "--size", "tiny")
        assert proc.returncode == 0, proc.stderr
        result = result_of(proc)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
        assert {name: m["unit"] for name, m in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in SPEC[section]
        }
        for line in proc.stdout.splitlines()[:-1]:
            assert not line.startswith("{")
        if trace:
            metrics = {name: m["value"] for name, m in result["metrics"].items()}
            self_total = sum(metrics[f"{layer}.self_s"] for layer in tracer.LAYERS)
            assert 0 < self_total <= metrics["trace.wall_s"]
            assert 0 <= metrics["overpartitions.keep_ratio"] <= 1
            assert 0 <= metrics["partitions.keep_ratio"] <= 1


def test_traced_self_times_are_within_the_pass():
    t = tracer.Tracer()
    cells = workloads.build("series-range", "tiny", 1, t)
    with t.installed():
        wall, rows = workloads.run_pass(cells, t)
    assert all(err is None for *_, err in rows)
    selfs = t.self_times()
    assert min(selfs.values()) >= -1e-9
    assert sum(selfs.values()) <= wall
    # the patches are undone
    assert partitions.c_witnesses.__module__ == "qident.partitions"
    assert not hasattr(partitions.c_witnesses, "__wrapped__")


def test_computed_mul_adds_match_the_kernel_loops():
    rng = random.Random(5)

    def sparse(n):
        return [rng.choice((0, 0, rng.randint(-9, 9))) for _ in range(n)]

    for _ in range(20):
        c1, c2, order = sparse(rng.randint(1, 12)), sparse(rng.randint(1, 12)), rng.randint(0, 14)
        direct = sum(1 for i, a in enumerate(c1) for j, b in enumerate(c2)
                     if a and b and i + j <= order)
        assert tracer.conv_trunc_mul_adds((c1, c2, order)) == direct
        rows1 = [sparse(6) for _ in range(rng.randint(1, 3))]
        rows2 = [sparse(6) for _ in range(rng.randint(1, 3))]
        a_order, q_order = rng.randint(0, 4), rng.randint(0, 7)
        direct = sum(
            1
            for i, r1 in enumerate(rows1) for j, r2 in enumerate(rows2) if i + j <= a_order
            for p, a in enumerate(r1) for s, b in enumerate(r2) if a and b and p + s <= q_order
        )
        assert tracer.bivar_mul_mul_adds((rows1, rows2, a_order, q_order)) == direct


def test_speed_scale_converts_to_reference_speed():
    ref = worker.REFERENCE_S
    assert worker.scale_of([ref, ref]) == pytest.approx(1.0)
    # half the time at half speed: the mean speed is 3/4 of the reference
    assert worker.scale_of([ref, 2 * ref]) == pytest.approx(0.75)
    sampler = worker.SpeedSampler()
    sampler.samples = [(1.0, ref), (2.0, 2 * ref), (3.0, 4 * ref)]
    assert sampler.scale(1.5, 1.0) == pytest.approx(0.5)
    assert sampler.scale(9.0, 1.0) == pytest.approx(sampler.scale())


def in_process_worker(args, timeout):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert worker.main(args) == 0
    return json.loads(out.getvalue().splitlines()[-1])


def test_wrong_expected_count_trips_the_gate(monkeypatch, capsys):
    monkeypatch.setitem(workloads.EXPECTED_BC["tiny"], (2, 0), workloads.EXPECTED_BC["tiny"][(2, 0)] + 1)
    _, rows = workloads.run_pass(workloads.build("witness-list", "tiny", 1))
    failed = sorted(cell for cell, *_, err in rows if err)
    assert failed == ["list --side B --k 2 --i 0 --n 10", "list --side C --k 2 --i 0 --n 10"]

    monkeypatch.setattr(run, "spawn_worker", in_process_worker)
    code = run.main(["--workload", "witness-list", "--seed", "1", "--seconds", "0",
                     "--trace", "0", "--size", "tiny"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] == 2 * run.MIN_PASSES
    assert result["metrics"]["pass_share"]["value"] < 1


def test_report_with_another_range_trips_the_gate():
    report = verify.verify_corollary(2, 1, 30, 6)
    assert workloads.report_error(report, workloads.corollary_expectation(2, 1, 30, 6)) is None
    assert "range" in workloads.report_error(report, workloads.corollary_expectation(2, 1, 31, 6))


def test_fails_without_a_source_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_command("--workload", "suite", "--seed", "1", "--seconds", "1", "--trace", "0",
                       cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
