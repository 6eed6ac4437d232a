"""One pass of one workload, in the fresh process that run.py starts for it.

Prints one JSON object on its last line of standard output:
setup_s (from the first line of this script to the first cell: imports and
building the cells), wall_s, the verifier cells as [id, seconds, scale,
error], and peak_rss_mb (ru_maxrss of this process).  With --trace 1 it
also returns the per-layer metrics and writes the spans to --trace-out.

The machine this runs on changes speed by tens of percent over seconds to
minutes, because its cores are shared with other tenants.  So the worker
also samples that speed: it times a fixed reference loop every
SAMPLE_EVERY_S seconds of an untraced pass (from a SIGALRM handler, so the
samples spread evenly over the pass), and again right after set-up.
``scale`` (for the pass and for each cell) and ``setup_scale`` convert
measured seconds into seconds at the speed where the loop takes
REFERENCE_S; run.py reports times at that speed.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import qident  # noqa: E402
import workloads  # noqa: E402

# about the reference loop's time, between a pass's calls, on the 2-core
# box the bounds were tuned on, so scaled seconds read close to measured ones
REFERENCE_S = 900e-6
SAMPLE_EVERY_S = 0.05
SETUP_SAMPLES = 25


def reference_loop() -> int:
    """Fixed pure-Python work of the kind qident does: it builds tuples,
    lists and a dict, and sums a generator of small-int products."""
    seen = {}
    acc = 0
    for i in range(200):
        t = tuple(range(i % 32, i % 32 + 16))
        seen[t] = [x * 3 + 1 for x in t]
        acc += sum(a * b for a, b in zip(t, t[1:]))
    return acc + len(seen)


def timed_reference() -> float:
    t0 = time.perf_counter()
    reference_loop()
    return time.perf_counter() - t0


def scale_of(samples: list) -> float:
    """REFERENCE_S over the harmonic mean of the samples.

    Samples evenly spread over an interval make this the mean of the
    machine's speed relative to the reference speed, which turns the
    interval's measured seconds into seconds at reference speed.
    """
    return REFERENCE_S * sum(1 / s for s in samples) / len(samples)


class SpeedSampler:
    """Times the reference loop every SAMPLE_EVERY_S seconds while active."""

    def __init__(self):
        self.samples = []  # (perf_counter at the sample, reference loop seconds)

    def _sample(self, signum, frame):
        self.samples.append((time.perf_counter(), timed_reference()))

    def scale(self, start=float("-inf"), seconds=float("inf")) -> float:
        """scale_of the samples taken in [start, start + seconds], or of all
        samples when none fell in that interval."""
        inside = [d for t, d in self.samples if start <= t <= start + seconds]
        return scale_of(inside or [d for _, d in self.samples])

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:  # a pass shorter than one interval
            self.samples.append((time.perf_counter(), timed_reference()))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--size", choices=sorted(workloads.SIZES), default="full")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-out", default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    if Path(qident.__file__).resolve().parent != SRC / "qident":
        print(f"qident imported from {qident.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
    cells = workloads.build(args.workload, args.size, args.seed, tracer)
    setup_s = time.perf_counter() - T0
    setup_scale = scale_of([timed_reference() for _ in range(SETUP_SAMPLES)])
    out = {"setup_s": setup_s, "setup_scale": setup_scale, "backend": qident.BACKEND}
    if not args.setup_only:
        if tracer is None:
            with SpeedSampler() as sampler:
                wall_s, rows = workloads.run_pass(cells)
            out["scale"] = sampler.scale()
            rows = [(cell, seconds, sampler.scale(start, seconds), error)
                    for cell, start, seconds, error in rows]
        else:
            with tracer.installed():
                wall_s, rows = workloads.run_pass(cells, tracer)
            rows = [(cell, seconds, None, error) for cell, _, seconds, error in rows]
            out["per_layer"] = tracer.metrics(wall_s)
            if args.trace_out:
                tracer.write(args.trace_out, {"workload": args.workload, "seed": args.seed,
                                              "size": args.size, "wall_s": wall_s})
        out.update(wall_s=wall_s, cells=rows,
                   peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
