"""Seeded, closed-loop benchmark of the camsmeta command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client runs the workload's CLI command sequence (bench/workloads.py) in
a fresh child process, over and over, until ``--seconds`` have passed and at
least MIN_REPEATS sequences have run. The child times each command around
``camsmeta.io_cli.main``; this process reads the child's peak RSS from
``os.wait4`` and checks every output: exit code, golden values
(bench/golden.py), byte identity with every earlier repeat of the same
code, and ``all_pass`` in verify.json.

With ``--trace 0`` the result holds the end-to-end metrics: ``setup_s`` (the
median of a fresh interpreter's ``import camsmeta``; one import per round,
at least SETUP_IMPORTS), ``wall_s`` (the mean sequence time over the
repeats) and ``peak_rss_mb`` (the median over the repeats). Per-command
times are printed and written to the results file. With
``--trace 1`` each round runs one untraced and one traced sequence, and the
result holds the per-layer metrics of bench/tracer.py (medians over the
traced repeats) plus ``trace.overhead_s``.

The last line of standard output is one JSON object: correct, attempted,
failed (commands) and metrics. Details, run metadata and input hashes go to
bench/.work/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(BENCH_DIR, ".work")
CHILD = os.path.join(BENCH_DIR, "child.py")

MIN_REPEATS = 2  # byte identity needs two repeats to compare
SETUP_IMPORTS = 7
RUN_LIMIT_S = 170.0  # hard stop for one run, children included
# One BLAS thread: on the 2-core machine the benchmark was tuned on, a second
# thread made no workload faster, added 30 MB to fit_j1000's peak RSS and
# made timings depend on what else ran on the other core.
BLAS_THREADS = "1"
IMPORT_TIMER = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import camsmeta; "
                "print(repr(time.perf_counter() - t))")


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def run_process(argv, deadline: float, stdout, stderr):
    """Run argv to completion; returns (exit code or None on timeout,
    peak RSS in KiB). The child is killed at ``deadline`` (monotonic)."""
    proc = subprocess.Popen(argv, stdout=stdout, stderr=stderr, cwd=ROOT,
                            env=child_env())
    timed_out = False
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline and not timed_out:
            proc.kill()
            timed_out = True
        time.sleep(0.02)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (None if timed_out else proc.returncode), usage.ru_maxrss


def import_seconds(deadline: float) -> float:
    """Seconds of ``import camsmeta`` in a fresh interpreter."""
    proc_out = os.path.join(WORK, f"import-{os.getpid()}.txt")
    with open(proc_out, "w") as out:
        code, _ = run_process([sys.executable, "-c", IMPORT_TIMER, SRC],
                              deadline, out, subprocess.DEVNULL)
    with open(proc_out) as fh:
        text = fh.read().strip()
    os.remove(proc_out)
    if code != 0:
        raise SystemExit(f"error: import camsmeta failed (exit {code})")
    return float(text)


def code_identity() -> str:
    """sha256 over the package sources, the BLAS thread count and the numpy
    version: what the byte-identity check holds fixed. The last two can
    change the last bits of a result; the sources identify the code in a
    checkout that is not a git repository."""
    import numpy
    h = hashlib.sha256(f"{BLAS_THREADS} {numpy.__version__}".encode())
    pkg = os.path.join(SRC, "camsmeta")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


class Repeat:
    """One child-process run of the command sequence and its checks."""

    def __init__(self, commands, result, peak_rss_kib, failures):
        self.commands = commands
        self.result = result
        self.peak_rss_kib = peak_rss_kib
        self.failures = failures  # {command label: [reason, ...]}

    def seconds(self, label=None) -> float:
        return sum(c["seconds"] for c in self.result["commands"]
                   if label is None or c["label"] == label)


def mean_seconds(repeats, label=None) -> float:
    """The command's (or, without a label, the sequence's) mean time over
    the repeats. The shared 2-core host the benchmark was tuned on slows
    every command by 15-40 % for minutes at a time (CPU time grows with wall
    time, so it is not descheduling). Over 55 s windows of back-to-back
    sequences the mean spread between windows no more than the median, the
    fastest repeat or the sum of per-command minima, and a little less on
    average. README.md, design notes, has the measurements."""
    return statistics.fmean(r.seconds(label) for r in repeats)


class Runner:
    def __init__(self, args):
        import golden
        import workloads
        self.golden, self.workloads = golden, workloads
        self.args = args
        self.run_dir = os.path.join(
            WORK, f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}")
        shutil.rmtree(self.run_dir, ignore_errors=True)
        os.makedirs(self.run_dir)
        self.data_seed = workloads.data_seed(args.seed)
        self.inputs = workloads.make_inputs(args.workload, args.seed, args.size,
                                            os.path.join(self.run_dir, "in"))
        self.identity = code_identity()
        self.hash_file = os.path.join(
            WORK, "hashes",
            f"{args.workload}-{args.size}-seed{self.data_seed}.json")
        self.reference = self._load_reference()
        self.count = 0
        self.spans_written = False

    def _load_reference(self) -> dict:
        """Output hashes of an earlier run of the same code, if any."""
        try:
            with open(self.hash_file) as fh:
                stored = json.load(fh)
        except (OSError, ValueError):
            return {}
        return stored["files"] if stored.get("identity") == self.identity else {}

    def _store_reference(self) -> None:
        os.makedirs(os.path.dirname(self.hash_file), exist_ok=True)
        with open(self.hash_file, "w") as fh:
            json.dump({"identity": self.identity, "files": self.reference}, fh,
                      sort_keys=True, indent=1)

    def repeat(self, traced: bool, deadline: float) -> Repeat:
        self.count += 1
        rep_dir = os.path.join(self.run_dir, f"r{self.count}")
        out_dir = os.path.join(rep_dir, "out")
        os.makedirs(out_dir)
        commands = self.workloads.commands(self.args.workload, self.args.seed,
                                           self.args.size, self.inputs, out_dir)
        spec = {"src": SRC, "trace": traced,
                "commands": [[c.label, list(c.argv)] for c in commands],
                "result": os.path.join(rep_dir, "result.json"),
                "spans": None}
        if traced and not self.spans_written:
            # one span log per run: a traced verify battery makes ~10^5 spans
            spec["spans"] = os.path.join(rep_dir, "spans.jsonl")
            self.spans_written = True
        spec_path = os.path.join(rep_dir, "spec.json")
        with open(spec_path, "w") as fh:
            json.dump(spec, fh)
        with open(os.path.join(rep_dir, "child.log"), "w") as log:
            code, rss = run_process([sys.executable, CHILD, spec_path],
                                    deadline, log, log)
        result = None
        if code == 0:
            with open(spec["result"]) as fh:
                result = json.load(fh)
        return Repeat(commands, result,
                      rss, self._check(commands, result, code, out_dir))

    def _check(self, commands, result, code, out_dir) -> dict:
        failures = {}
        new_reference = not self.reference
        for i, cmd in enumerate(commands):
            reasons = []
            if result is None:
                reasons.append("child process " + (
                    "timed out" if code is None else f"exited {code}"))
            elif result["commands"][i]["exit"] != 0:
                reasons.append(f"exit {result['commands'][i]['exit']}")
            for name in cmd.outputs:
                path = os.path.join(out_dir, name)
                if not os.path.exists(path):
                    reasons.append(f"{name} not written")
                    continue
                digest = self.golden.sha256(path)
                if self.reference.setdefault(name, digest) != digest:
                    reasons.append(f"{name} not byte-identical to an earlier "
                                   f"repeat")
            if cmd.golden and not reasons:
                for name, errors in self.golden.compare(
                        self.args.golden_dir, self.args.workload, self.data_seed,
                        out_dir, cmd.golden, self.inputs).items():
                    reasons += errors
            if cmd.label == "verify" and not reasons:
                with open(os.path.join(out_dir, "verify.json")) as fh:
                    if json.load(fh).get("all_pass") is not True:
                        reasons.append("verify.json: all_pass is not true")
            if reasons:
                failures[cmd.label] = reasons
        if new_reference and self.reference:
            self._store_reference()
        return failures


def metadata(args, runner) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    git_sha = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            git_sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                     capture_output=True, text=True,
                                     timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version",
                                          "openblas configuration")},
        "blas_threads": int(BLAS_THREADS),
        "git_sha": git_sha,
        "code_identity_sha256": runner.identity,
        "seed": args.seed,
        "data_seed": runner.data_seed,
        "size": args.size,
        "inputs_sha256": {n: runner.golden.sha256(p)
                          for n, p in sorted(runner.inputs.items())},
    }


def unit(name: str) -> str:
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_per_quantile"):
        return "calls/quantile"
    return "count"


def median_metrics(dicts) -> dict:
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload of bench/workloads.py, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny is the self-test size (bench/selftest.py)")
    parser.add_argument("--golden-dir", default=os.path.join(BENCH_DIR, "golden"))
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "camsmeta", "__init__.py")):
        print(f"error: no camsmeta package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads
    if args.workload == "all":
        return run_all(workloads.WORKLOADS)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"have {', '.join(workloads.WORKLOADS)} or all")
    return run_one(args)


def run_all(names) -> int:
    """Run each workload in its own invocation of this script; the last line
    sums the counts and prefixes each metric with its workload."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        argv = [sys.executable, os.path.abspath(__file__)] + sys.argv[1:]
        argv[argv.index("--workload") + 1] = name
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        total["metrics"].update({f"{name}.{k}": v
                                 for k, v in result["metrics"].items()})
    print(json.dumps(total))
    return 0


def run_one(args) -> int:
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    os.makedirs(WORK, exist_ok=True)
    runner = Runner(args)
    if not args.trace:
        import_seconds(deadline)  # untimed: leaves the bytecode caches written

    # Rounds run until the next one would end more than half a round past
    # --seconds, so a run measures for about --seconds on every workload.
    # The import timings are spread over the run, one per round, so that
    # setup_s sees the same machine as wall_s.
    plain, traced, setup = [], [], []
    loop_start = time.monotonic()
    while True:
        if not args.trace:
            setup.append(import_seconds(deadline))
        plain.append(runner.repeat(False, deadline))
        if args.trace:
            traced.append(runner.repeat(True, deadline))
        elapsed = time.monotonic() - loop_start
        per_round = elapsed / len(plain)
        if len(plain) + len(traced) >= MIN_REPEATS and \
                elapsed + 0.5 * per_round >= args.seconds:
            break
        if time.monotonic() + 1.5 * per_round > deadline:
            break
    while not args.trace and len(setup) < SETUP_IMPORTS:
        setup.append(import_seconds(deadline))

    repeats = plain + traced
    attempted = sum(len(r.commands) for r in repeats)
    failed = sum(len(r.failures) for r in repeats)
    done = [r for r in plain if r.result is not None]
    done_traced = [r for r in traced if r.result is not None]

    metrics = {}
    per_command = {}
    if done:
        per_command = {f"{c.label}_s": mean_seconds(done, c.label)
                       for c in done[0].commands}
        wall = mean_seconds(done)
        if args.trace and done_traced:
            metrics = median_metrics([r.result["layers"] for r in done_traced])
            metrics["trace.overhead_s"] = mean_seconds(done_traced) - wall
        elif not args.trace:
            metrics = {"setup_s": statistics.median(setup),
                       "wall_s": wall,
                       "peak_rss_mb": statistics.median(
                           r.peak_rss_kib for r in done) / 1024.0}

    report = {
        "metadata": metadata(args, runner),
        "walls_s": [r.seconds() for r in done],
        "traced_walls_s": [r.seconds() for r in done_traced],
        "run_seconds": time.monotonic() - started,
        "commands_s": per_command,
        "failures": [r.failures for r in repeats if r.failures],
        "metrics": metrics,
    }
    results_dir = os.path.join(WORK, "results")
    os.makedirs(results_dir, exist_ok=True)
    results_path = os.path.join(
        results_dir,
        f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}.json")
    with open(results_path, "w") as fh:
        json.dump(report, fh, sort_keys=True, indent=1)

    print(f"workload {args.workload}  seed {args.seed} (data seed "
          f"{runner.data_seed})  repeats {len(plain)}"
          + (f" + {len(traced)} traced" if args.trace else ""))
    for failure in report["failures"]:
        for label, reasons in failure.items():
            print(f"FAILED {label}: {'; '.join(reasons)}")
    for name, value in per_command.items():
        print(f"  {name:40s} {value:12.6f} s")
    for name, value in metrics.items():
        print(f"  {name:40s} {value:12.6f} {unit(name)}")
    print(f"  details: {os.path.relpath(results_path, ROOT)}")
    print(json.dumps({
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
