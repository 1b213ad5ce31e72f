"""Benchmark of regretsim: one workload per call, result as the last stdout line.

    python3 benchmarks/run.py --workload cli_diagnose --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout. The workload runs in its own process
(workload.py) against the checkout's ``src``. With ``--trace 0`` the result
holds the end-to-end metrics listed in BENCHMARK.json; with ``--trace 1``
it holds the per-layer metrics of a separate traced run. ``setup_s`` is the
median of 11 set-ups, each timed from the start of a fresh workload process.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Set-ups are timed in extra processes before and after the measured one, so
# that the median spans the whole run rather than one moment of a shared host.
SETUP_PROBES_BEFORE = 5
SETUP_PROBES_AFTER = 5
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def _spawn(args: list[str], env: dict, deadline: float) -> tuple[float, dict]:
    """Run workload.py to its end; return its start time and its JSON report."""
    started = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "workload.py"), *args], cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"workload process timed out: {' '.join(args)}") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"workload process exited with {proc.returncode}: {' '.join(args)}")
    return started, json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    # Turn SIGTERM into an exception, so subprocess.run kills and reaps the workload process.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise BenchError(f"unknown workload {args.workload!r}")
    if not (ROOT / "src" / "regretsim" / "__init__.py").is_file():
        raise BenchError(f"no regretsim sources under {ROOT / 'src'}")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                        os.environ.get("PYTHONPATH")])))
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    def setup_probe() -> float:
        started, probe = _spawn(common + ["--setup-only"], env, deadline)
        return probe["ready"] - started

    setups = [setup_probe() for _ in range(0 if args.trace else SETUP_PROBES_BEFORE)]
    started, report = _spawn(common + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
                             env, deadline)
    setups.append(report["ready"] - started)
    setups += [setup_probe() for _ in range(0 if args.trace else SETUP_PROBES_AFTER)]

    if args.trace:
        values, listed = report["layers"], spec["per_layer"]
    else:
        if report["wall_s"] is None:
            raise BenchError("no repetition completed")
        values = {"wall_s": report["wall_s"], "setup_s": statistics.median(setups),
                  "peak_rss_mb": report["peak_rss_mb"]}
        listed = spec["end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not measured: {', '.join(missing)}")
    reps = report["repetitions"]
    print(f"{args.workload} seed {args.seed}: {len(reps)} untraced repetitions, "
          f"raw walls {[round(r['raw_s'], 4) for r in reps]}, "
          f"references {[round(r['reference_s'], 4) for r in reps]}, "
          f"setups {[round(s, 4) for s in setups]}", file=sys.stderr)
    print(json.dumps({
        "correct": report["correct"], "attempted": report["attempted"], "failed": report["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed},
    }))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
