"""The benchmark's one command: render inputs, measure, check, report.

    python3 perfbench/run.py --workload stream_scale --seed 1 \\
        --seconds 10 --trace 0

Run it from the repository root.  It renders the workload's inputs in
one fresh interpreter (``render.py``), measures and checks the program
in another (``measure.py``), both with ``src`` on ``PYTHONPATH`` and
``PYTHONHASHSEED=0``, and prints one JSON object as its last line:
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics
with ``--trace 1``), each metric as ``{"value": ..., "unit": ...}``.
The exit code is 0 only when every correctness check passed.

Repeat mode runs one workload N times on consecutive seeds and prints
each metric's median, quartiles and quartile spread, then the drift of
each median from the previous repeat set of that workload:

    python3 perfbench/run.py --workload stream_scale --repeat 10 --seed 1
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORK_DIR = BENCH_DIR / ".work"
WORKLOADS = ("stream_scale", "batch_cascades", "serve_placements")
RENDER_TIMEOUT_S = 800
MEASURE_TIMEOUT_S = 170


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def program_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_once(args, spec: dict) -> int:
    metrics_spec = spec["per_layer"] if args.trace else spec["end_to_end"]
    run_dir = WORK_DIR / "runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    env = program_env()
    try:
        subprocess.run(
            [sys.executable, str(BENCH_DIR / "render.py"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--out", str(run_dir)],
            cwd=ROOT, env=env, check=True, timeout=RENDER_TIMEOUT_S,
            stdout=sys.stderr,
        )
        result_path = run_dir / "result.json"
        subprocess.run(
            [sys.executable, str(BENCH_DIR / "measure.py"),
             "--workload", args.workload, "--inputs", str(run_dir),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--result", str(result_path)],
            cwd=ROOT, env=env, check=True, timeout=MEASURE_TIMEOUT_S,
            stdout=sys.stderr,
        )
        result = json.loads(result_path.read_text())
    except (subprocess.SubprocessError, OSError, ValueError) as exc:
        return fail(f"{args.workload} seed {args.seed}: {exc}")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for name, outcome in result["checks"].items():
        print(f"check {name}: {outcome}", file=sys.stderr)
    if result.get("info"):
        print(f"info {json.dumps(result['info'])}", file=sys.stderr)
    missing = [m["name"] for m in metrics_spec if m["name"] not in result["metrics"]]
    if missing:
        return fail(f"metrics not measured: {missing}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]}
            for m in metrics_spec
        },
    }))
    return 0 if result["correct"] else 1


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def run_repeat(args, spec: dict) -> int:
    """Run N seeds, report medians and spreads, compare with the last set."""
    rows = []
    for seed in range(args.seed, args.seed + args.repeat):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stderr[-2000:], file=sys.stderr)
            return fail(f"seed {seed} failed (exit {proc.returncode})")
        row = json.loads(lines[-1])
        rows.append(row)
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.6g}" for k, v in row["metrics"].items()
        ), flush=True)
    summary = {
        "workload": args.workload,
        "trace": args.trace,
        "seeds": [args.seed, args.seed + args.repeat - 1],
        "at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "failed_share": [r["failed"] / r["attempted"] for r in rows],
        "metrics": {},
    }
    print(f"{'metric':<28}{'q1':>14}{'median':>14}{'q3':>14}{'spread':>9}")
    for name in rows[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in rows]
        q1, median, q3 = quartiles(values)
        spread = (q3 - q1) / median if median else float("nan")
        summary["metrics"][name] = {
            "values": values, "q1": q1, "median": median, "q3": q3,
            "spread": spread,
        }
        print(f"{name:<28}{q1:>14.6g}{median:>14.6g}{q3:>14.6g}{spread:>9.2%}")
    log = WORK_DIR / f"repeat-{args.workload}-trace{args.trace}.jsonl"
    previous = None
    if log.exists():
        lines = log.read_text().splitlines()
        previous = json.loads(lines[-1]) if lines else None
    if previous is not None:
        print(f"drift of medians from the set made at {previous['at']}:")
        for name, now in summary["metrics"].items():
            before = previous["metrics"].get(name, {}).get("median")
            if before:
                print(f"  {name:<26}{now['median'] / before - 1:>+9.2%}")
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    with open(log, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(summary) + "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--repeat", type=int, default=0,
        help="run this many consecutive seeds and summarise them",
    )
    args = parser.parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro").is_dir() or not spec_path.is_file():
        return fail("run from the repository root (src/repro and "
                    "BENCHMARK.json not found)")
    spec = json.loads(spec_path.read_text())
    if args.repeat:
        return run_repeat(args, spec)
    return run_once(args, spec)


if __name__ == "__main__":
    sys.exit(main())
