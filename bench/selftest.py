"""Tiny-size self-test of the benchmark (J=3, N=11, 3 verify seeds).

    python3 bench/selftest.py

Runs every workload untraced and traced against golden outputs freshly made
at the tiny size, and checks that each result line carries exactly the
metrics BENCHMARK.json names, that nothing failed, and that the traced self
times add up to the traced wall time. Then it corrupts one golden value and
checks that the run reports the failure, and runs the benchmark in a
directory holding only BENCHMARK.json and bench/, where it must exit nonzero
without a result. Exits 0 when every check passes. Takes about a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORK = os.path.join(BENCH_DIR, ".work", "selftest")
SEED = 1
FAILURES: list = []


def check(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        FAILURES.append(what)


def bench(workload: str, trace: int, golden_dir: str, cwd: str = ROOT):
    """Run bench/run.py at the tiny size; returns (exit code, result or None)."""
    proc = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "0.1", "--trace", str(trace),
         "--size", "tiny", "--golden-dir", golden_dir],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if proc.returncode != 0 and cwd == ROOT:
        sys.stderr.write(proc.stderr)
    return proc.returncode, result


def main() -> int:
    sys.path.insert(0, BENCH_DIR)
    import workloads
    from golden import golden_file

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = {0: {m["name"] for m in spec["end_to_end"]},
             1: {m["name"] for m in spec["per_layer"]}}

    shutil.rmtree(WORK, ignore_errors=True)
    golden_dir = os.path.join(WORK, "golden")
    subprocess.run([sys.executable, os.path.join(BENCH_DIR, "golden.py"),
                    "--size", "tiny", "--out", golden_dir,
                    "--seeds", str(workloads.data_seed(SEED))],
                   check=True, capture_output=True, timeout=170)

    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            code, result = bench(workload, trace, golden_dir)
            what = f"{workload} trace {trace}"
            check(code == 0 and result is not None, f"{what}: result line")
            if result is None:
                continue
            metrics = result["metrics"]
            check(result["correct"] and result["failed"] == 0
                  and result["attempted"] >= 2, f"{what}: no failed command")
            check(set(metrics) == names[trace],
                  f"{what}: metrics are those BENCHMARK.json names")
            if trace and "trace.wall_s" in metrics:
                layers = sum(v["value"] for k, v in metrics.items()
                             if k.startswith("layer."))
                check(abs(layers - metrics["trace.wall_s"]["value"]) < 1e-6,
                      f"{what}: layer self times add up to trace.wall_s")

    corrupt_dir = os.path.join(WORK, "golden-corrupt")
    shutil.copytree(golden_dir, corrupt_dir)
    path = golden_file(corrupt_dir, "quickstart_j8", workloads.data_seed(SEED))
    with open(path) as fh:
        content = json.load(fh)
    content["files"]["report.json"]["strategies"]["average"]["mu_a"]["median"] += 1e-3
    with open(path, "w") as fh:
        json.dump(content, fh)
    code, result = bench("quickstart_j8", 0, corrupt_dir)
    check(code == 0 and result is not None and not result["correct"]
          and result["failed"] >= 1,
          "corrupted golden value is reported as a failed command")

    bare = os.path.join(WORK, "bare")
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(BENCH_DIR, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    code, result = bench("quickstart_j8", 0, golden_dir, cwd=bare)
    check(code != 0 and result is None,
          "without the package sources: nonzero exit and no result")

    print(f"{'FAILED' if FAILURES else 'passed'}: "
          f"{len(FAILURES)} failed check(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
