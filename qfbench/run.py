"""qflab benchmark: three CLI workloads, end to end or layer by layer.

Run from the repository root:

    python3 qfbench/run.py --workload price-ladder --seed 1 --seconds 30 --trace 0
    python3 qfbench/run.py --workload all            # every workload in turn

Each workload runs in a fresh process of its own (``workloads.py``),
single-threaded. ``--trace 0`` reports the end-to-end metrics
(``setup_s``, ``ops_per_s``, ``op_p50_ms``, ``peak_rss_mb``);
``--trace 1`` reports the per-layer metrics of a separate traced run and
writes its spans to ``qfbench/out/``. The last line of standard output
is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from tracing import parse_importtime

HERE = Path(__file__).resolve().parent
WORKLOADS = ("price-ladder", "grid-refine", "monte-carlo")
SETUP_REPS = 5
IMPORTTIME_REPS = 3
SETUP_TIMEOUT = 30.0
# time a workload process may take beyond its measured seconds: imports,
# the warm-up round, the last round's overrun and the traced calibration
CHILD_SLACK = 90.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class BenchError(RuntimeError):
    pass


def unit_of(name: str) -> str:
    """Unit of a metric, from its name."""
    name = name.rsplit("/", 1)[-1]
    if name.endswith("ops_per_s"):
        return "1/s"
    if ".ns_per_" in name:
        return "ns"
    if ".us_per_" in name:
        return "us"
    if name.endswith("bytes_out"):
        return "bytes"
    for suffix, unit in (("_ms", "ms"), ("_us", "us"), ("_mb", "MB"), ("_s", "s")):
        if name.endswith(suffix):
            return unit
    return "count"


def _env(root: Path) -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(root / "src")
    return env


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _import_run(env: dict, extra: tuple = ()) -> tuple[float, str]:
    """CPU time (user + system) of a fresh interpreter importing
    qflab.cli, and its stderr."""
    before = _children_cpu()
    proc = subprocess.run(
        [sys.executable, *extra, "-c", "import qflab.cli"],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        timeout=SETUP_TIMEOUT,
    )
    cpu = _children_cpu() - before
    if proc.returncode != 0:
        raise BenchError(f"import qflab.cli failed:\n{proc.stderr}")
    return cpu, proc.stderr


def measure_setup(env: dict) -> float:
    """Median of SETUP_REPS fresh imports, after one import that lets
    the bytecode cache fill."""
    _import_run(env)
    return statistics.median(_import_run(env)[0] for _ in range(SETUP_REPS))


def measure_imports(env: dict) -> dict:
    runs = [parse_importtime(_import_run(env, ("-X", "importtime"))[1]) for _ in range(IMPORTTIME_REPS)]
    return {key: statistics.median(r[key] for r in runs) for key in runs[0]}


def run_workload(name: str, seed: int, seconds: float, trace: int, root: Path) -> dict:
    env = _env(root)
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{trace}"
    work = out / f"work-{stem}-{os.getpid()}"
    result_path = out / f"result-{stem}.json"
    spans_path = out / f"spans-{name}-seed{seed}.jsonl"
    metrics: dict = {}
    if trace:
        metrics.update(measure_imports(env))
    else:
        metrics["setup_s"] = measure_setup(env)
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", name, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(trace), "--work", str(work),
           "--result", str(result_path)]
    if trace:
        cmd += ["--spans", str(spans_path)]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL, timeout=seconds + CHILD_SLACK)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        raise BenchError(f"workload {name} exited with code {proc.returncode}")
    result = json.loads(result_path.read_text())
    if trace:
        metrics.update(result["layers"])
    else:
        metrics.update({key: result[key] for key in ("ops_per_s", "op_p50_ms", "peak_rss_mb")})
    result["metrics"] = metrics
    return result


def _report(result: dict, trace: int) -> None:
    print(f"== {result['workload']} (seed {result['seed']}, {result['rounds']} rounds of "
          f"{result['ops_per_round']} operations)")
    print(f"   attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {str(result['correct']).lower()}")
    for problem in result["unexpected"]:
        print(f"   UNEXPECTED: {problem}")
    for problem in result["known_fault"][:2]:
        print(f"   known fault: {problem}")
    for name, value in result["metrics"].items():
        print(f"   {name:32s} {value:14.6g} {unit_of(name)}")
    if not trace:
        for kind, stats in result["kinds"].items():
            print(f"   p50 {kind:38s} {stats['p50_ms']:9.3f} ms  (n={stats['n']})")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="qflab benchmark")
    ap.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "qflab" / "cli.py").is_file():
        sys.stderr.write(f"no qflab sources under {root / 'src'}; run from the repository root\n")
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [run_workload(n, args.seed, args.seconds, args.trace, root) for n in names]
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1

    for result in results:
        _report(result, args.trace)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": v for r in results for k, v in r["metrics"].items()}
    summary = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
