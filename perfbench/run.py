"""Benchmark of the hyperatl pipeline on three workloads.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each workload runs in a fresh process (worker.py) with the package taken
from ``src/`` of this checkout.  Set-up time is the median over several
fresh processes.  With ``--trace 0`` the last line of output is a JSON object
with the end-to-end metrics; with ``--trace 1`` it has the per-layer metrics
of a traced run instead.  Outputs are checked in both.  Sizes of every check
go to ``perfbench/out/sizes-*.json`` and traced spans to
``perfbench/out/spans-*.json``.  See README.md for the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
# The names of workloads.WORKLOADS, repeated so that this process never
# imports hyperatl.
WORKLOAD_NAMES = ("table5a", "table5b-11", "solve-random")

# Fresh processes that only set up, besides the measuring one.
SETUP_SAMPLES = 4
# A whole invocation for one workload must end within this many seconds.
TIME_LIMIT_S = 170


def _worker(args: list[str], env: dict, deadline: float) -> dict:
    t0 = time.monotonic()
    timeout = deadline - t0
    if timeout <= 0:
        raise RuntimeError("time limit reached before the workload finished")
    proc = subprocess.run(
        [sys.executable, str(WORKER), *args, "--t0", repr(t0)],
        env=env,
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: int, trace: int) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = str(seed % 2**32)
    base = ["--workload", name, "--seed", str(seed)]
    run_args = base + ["--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        return _worker(run_args, env, deadline)
    samples = [_worker(base + ["--setup-only"], env, deadline) for _ in range(SETUP_SAMPLES)]
    result = _worker(run_args, env, deadline)
    samples.append({k: result.pop(k) for k in ("setup_s", "raw_setup_s")})
    setup_s = statistics.median(s["setup_s"] for s in samples)
    result["metrics"] = {"setup_s": {"value": setup_s, "unit": "s"}, **result["metrics"]}
    result["raw"]["raw_setup_s"] = statistics.median(s["raw_setup_s"] for s in samples)
    return result


def _report(name: str, seed: int, result: dict) -> None:
    attempted, failed = result["attempted"], result["failed"]
    print(f"== {name} (seed {seed}): {result['checks']} checks x {result['passes']} passes")
    for key, m in result["metrics"].items():
        print(f"  {key:34} {m['value']:14.6f} {m['unit']}")
    for key, value in result["raw"].items():
        print(f"  {key:34} {value:14.6f} s (not at nominal speed; not steady)")
    print(f"  {'fail_ratio':34} {failed / attempted:14.6f} ({failed} of {attempted} checks)")
    for check_id, messages in sorted(result["failures"].items()):
        print(f"  FAILED {check_id}: {'; '.join(messages)}")
    print(f"  sizes: {os.path.relpath(result['sizes'], ROOT)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hyperatl" / "__init__.py").is_file():
        print(f"error: no hyperatl package under {SRC}", file=sys.stderr)
        return 2
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace)
            _report(name, args.seed, results[name])
    except (RuntimeError, subprocess.TimeoutExpired) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    summaries = {
        name: {
            "correct": r["failed"] == 0,
            "attempted": r["attempted"],
            "failed": r["failed"],
            "metrics": r["metrics"],
        }
        for name, r in results.items()
    }
    print(json.dumps(summaries[names[0]] if len(names) == 1 else summaries))
    return 0


if __name__ == "__main__":
    sys.exit(main())
