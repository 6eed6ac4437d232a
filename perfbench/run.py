#!/usr/bin/env python3
"""qident's benchmark command.

    python3 perfbench/run.py --workload suite --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout.  Each pass of the workload runs in
a fresh single-threaded Python process (perfbench/worker.py) that imports
qident from ./src; passes repeat until --seconds have gone by, and at least
MIN_PASSES run.  SETUP_PROBES extra processes only import and set up, so
setup_s is a median of several set-ups.  Every outcome is checked; the
command exits 1 if any verifier cell failed.

With --trace 0 the result carries the end-to-end metrics (medians over the
passes), with times scaled to the reference speed the worker samples (see
worker.py and README.md); a line before the result gives them as measured.  With --trace 1 one untraced pass and one traced pass run, and the
result carries the per-layer metrics of the traced pass; the spans are
written to .perfbench-out/ in the checkout.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it print the run's
context and every metric by name, with its unit.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
WORKLOADS = ("suite", "series-range", "witness-list")
LAYERS = ("overpartitions", "partitions", "appell", "series", "verify", "cli")

MIN_PASSES = 2
SETUP_PROBES = 9
# a run must end within 180 s; no pass starts that is expected to end later
RUN_DEADLINE_S = 165

END_TO_END = {  # name -> unit
    "wall_s": "s",
    "slowest_cell_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_share": "ratio",
}


class WorkerFailed(Exception):
    pass


def git_sha(root: Path) -> str:
    """HEAD's commit read from .git, or "unknown" outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def spawn_worker(args: list, timeout: float) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"worker timed out after {timeout:.0f} s: {' '.join(args)}")
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def measure(opts, deadline: float) -> dict:
    """Run the passes of one benchmark run; return what the result line needs."""
    base = ["--workload", opts.workload, "--seed", str(opts.seed), "--size", opts.size]
    setups, passes, cells, per_layer = [], [], [], None

    def remaining():
        return deadline - time.monotonic()

    if opts.trace:
        untraced = spawn_worker(base, remaining())
        OUT_DIR.mkdir(exist_ok=True)
        trace_out = OUT_DIR / f"trace-{opts.workload}-seed{opts.seed}.jsonl"
        traced = spawn_worker(base + ["--trace", "1", "--trace-out", str(trace_out)], remaining())
        per_layer = traced["per_layer"]
        per_layer["trace.overhead_s"]["value"] = traced["wall_s"] - untraced["wall_s"]
        passes = [untraced]
        cells = untraced["cells"] + traced["cells"]
    else:
        for _ in range(SETUP_PROBES):
            setups.append(spawn_worker(base + ["--setup-only"], remaining()))
        start = time.monotonic()
        while len(passes) < MIN_PASSES or time.monotonic() - start < opts.seconds:
            if passes and remaining() < 1.2 * passes[-1]["wall_s"]:
                break
            passes.append(spawn_worker(base, remaining()))
            cells += passes[-1]["cells"]
    setups += passes
    return {"setups": setups, "passes": passes, "cells": cells, "per_layer": per_layer}


def end_to_end(run: dict, scaled: bool = True) -> dict:
    """The end-to-end metrics; times are at reference speed unless scaled is false."""
    passes, cells = run["passes"], run["cells"]
    failed = sum(1 for *_, err in cells if err)

    def scale(factor):
        return factor if scaled else 1.0

    return {
        "wall_s": statistics.median(p["wall_s"] * scale(p["scale"]) for p in passes),
        "slowest_cell_s": statistics.median(
            max(s * scale(f) for _, s, f, _ in p["cells"]) for p in passes),
        "setup_s": statistics.median(s["setup_s"] * scale(s["setup_scale"]) for s in run["setups"]),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "pass_share": (len(cells) - failed) / len(cells),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny runs seconds-long inputs, for the benchmark's own tests")
    opts = ap.parse_args(argv)

    if not (SRC / "qident" / "__init__.py").is_file():
        print(f"perfbench: no qident sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    compileall.compile_dir(str(SRC), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1)

    deadline = time.monotonic() + RUN_DEADLINE_S
    try:
        run = measure(opts, deadline)
    except WorkerFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1

    cells = run["cells"]
    failed = [c for c in cells if c[3]]
    context = {
        "workload": opts.workload, "seed": opts.seed, "size": opts.size,
        "backend": run["passes"][0]["backend"], "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)), "git_sha": git_sha(ROOT),
        "passes": len(run["passes"]), "setup_samples": len(run["setups"]),
    }
    print("context " + json.dumps(context))
    for cell_id, seconds, _, error in failed:
        print(f"FAILED {cell_id} ({seconds:.3f} s): {error}")
    if opts.trace:
        metrics = run["per_layer"]
        wall = metrics["trace.wall_s"]["value"]
        for layer in LAYERS:
            print(f"layer_share {layer} {metrics[layer + '.self_s']['value'] / wall:.4f} of traced wall_s")
    else:
        measured = end_to_end(run, scaled=False)
        print("measured " + " ".join(f"{k}={measured[k]}" for k in ("wall_s", "slowest_cell_s", "setup_s"))
              + f" speed_scale={statistics.median(p['scale'] for p in run['passes'])}")
        metrics = {name: {"value": value, "unit": END_TO_END[name]}
                   for name, value in end_to_end(run).items()}
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    print(f"fail_share {len(failed) / len(cells)} ratio ({len(failed)}/{len(cells)} cells)")
    print(json.dumps({"correct": not failed, "attempted": len(cells), "failed": len(failed),
                      "metrics": metrics}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
