"""One workload in one fresh process: set up, run timed passes, check outputs.

Started by run.py, which passes the monotonic clock reading taken just
before the process was started, so that set-up time covers the interpreter,
``import hyperatl`` and building the workload's inputs.  The last line of
standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from hostspeed import NOMINAL_REF_S, HostSpeed, reference
from spans import METRICS, Tracer, median_metrics
from workloads import WORKLOADS

OUT_DIR = Path(__file__).resolve().parent / "out"
# End-to-end metrics measured here; run.py adds setup_s.
END_TO_END_UNITS = {"wall_s": "s", "slowest_check_s": "s", "peak_rss_mb": "MB"}


class Outcome:
    """Verdict checks and size fingerprints of every check attempted."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: dict[str, list[str]] = {}
        self.fingerprints: dict[str, dict] = {}

    @property
    def failed(self) -> int:
        return sum(len(v) for v in self.failures.values())

    def fail(self, check_id: str, message: str) -> None:
        self.failures.setdefault(check_id, []).append(message)

    def record(self, check, output) -> None:
        error = check.verify(output)
        if error is not None:
            self.fail(check.id, error)
        self.fingerprints.setdefault(check.id, check.fingerprint(output))


def run_pass(
    checks, outcome: Outcome, tracer: "Tracer | None" = None, speed: "HostSpeed | None" = None
):
    """One closed-loop pass; returns each check's (seconds, start, end).

    Only the call into the program is timed; its output is checked after
    the clock stops.  Time the host-speed sampler spent inside a check is
    not counted.
    """
    times = []
    for check in checks:
        if tracer is not None:
            tracer.check_id = check.id
        outcome.attempted += 1
        start = time.perf_counter()
        try:
            output = check.call()
        except Exception as e:  # a failed check is counted and the pass goes on
            end = time.perf_counter()
            outcome.fail(check.id, f"{type(e).__name__}: {e}")
        else:
            end = time.perf_counter()
            outcome.record(check, output)
        busy = speed.busy(start, end) if speed is not None else 0.0
        times.append((end - start - busy, start, end))
    return times


def measure(checks, outcome: Outcome, seconds: float) -> dict:
    """End-to-end metrics, tracing off: passes until ``seconds`` of checks ran.

    Times are at nominal host speed (hostspeed.py); the raw ones are kept
    to be printed beside them.  The slowest check is the check whose median
    time over the passes is the longest.
    """
    passes = []
    with HostSpeed() as speed:
        while not passes or sum(t for p in passes for t, _a, _b in p) < seconds:
            passes.append(run_pass(checks, outcome, speed=speed))
    raw = [[t for t, _a, _b in p] for p in passes]
    nominal = [[speed.nominal(t, a, b) for t, a, b in p] for p in passes]

    def wall(per_pass):
        return statistics.median(map(sum, per_pass))

    def slowest(per_pass):
        return max(statistics.median(check) for check in zip(*per_pass))

    return {
        "wall_s": wall(nominal),
        "slowest_check_s": slowest(nominal),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "raw_wall_s": wall(raw),
        "raw_slowest_check_s": slowest(raw),
        "passes": len(passes),
    }


def measure_traced(checks, outcome: Outcome, seconds: float, spans_path: Path) -> dict:
    """Per-layer metrics from traced passes, run until ``seconds`` of checks.

    Untraced and traced passes alternate, so that the tracing overhead, the
    difference of their medians, is not mostly the host's drift between them.
    """
    tracer = Tracer()
    untraced, traced, per_pass = [], [], []
    while sum(traced) < seconds:
        untraced.append(sum(t for t, _a, _b in run_pass(checks, outcome)))
        with tracer:
            traced.append(sum(t for t, _a, _b in run_pass(checks, outcome, tracer)))
        result = tracer.end_pass()
        check_s = result["metrics"]["trace.check_s"]
        if abs(result["self_sum_s"] - check_s) > 1e-6 * max(check_s, 1.0):
            outcome.fail(
                "trace", f"self times sum to {result['self_sum_s']} s, checks took {check_s} s"
            )
        per_pass.append(result["metrics"])
    spans_path.write_text(json.dumps(tracer.dump()), encoding="utf-8")
    metrics = median_metrics(per_pass)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    metrics["passes"] = len(traced)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True, help="time.monotonic() before start")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    checks = WORKLOADS[args.workload](args.seed)
    raw_setup_s = time.monotonic() - args.t0
    # host speed right after set-up, to put set-up time at nominal speed too
    setup_s = raw_setup_s * NOMINAL_REF_S / statistics.median(reference() for _ in range(3))
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "raw_setup_s": raw_setup_s}))
        return 0

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    outcome = Outcome()
    if args.trace:
        metrics = measure_traced(checks, outcome, args.seconds, OUT_DIR / f"spans-{stem}.json")
        units = dict(METRICS)
    else:
        metrics = measure(checks, outcome, args.seconds)
        units = END_TO_END_UNITS
    sizes_path = OUT_DIR / f"sizes-{stem}.json"
    sizes_path.write_text(
        json.dumps(dict(sorted(outcome.fingerprints.items())), indent=1), encoding="utf-8"
    )
    print(
        json.dumps(
            {
                "setup_s": setup_s,
                "raw_setup_s": raw_setup_s,
                "checks": len(checks),
                "passes": metrics.pop("passes"),
                # printed beside the metrics; too noisy to gate on
                "raw": {k: v for k, v in metrics.items() if k.startswith("raw_")},
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "failures": outcome.failures,
                "sizes": str(sizes_path),
                "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
