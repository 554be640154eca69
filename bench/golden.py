"""Golden outputs: storage, leaf-by-leaf comparison and regeneration.

A golden set is one JSON file per (workload, data seed) holding the parsed
content of every compared output file and the sha256 of each input file.
JSON outputs are compared leaf by leaf; CSV outputs cell by cell, numeric
cells as numbers. Numbers must agree to the package's grid tier (1e-4
absolute), except the Monte Carlo fields of report.json, which get the mc
tier below.

Regenerate the stored set (only when the package's outputs are meant to
change, and say so in the change):

    python3 bench/golden.py
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import sys

TOL_GRID = 1e-4
# report.json's Beta-marginalized mu_a, mu_b and overall come from 20 000
# Monte Carlo draws. Three standard errors of a 2.5 % quantile of a normal
# sample that size are 0.057 sd, about 0.0145 of the 95 % interval width;
# three standard errors of a probability are at most 3 * 0.5 / sqrt(20000).
MC_WIDTH_SHARE = 0.015
MC_PROB = 0.011
MC_SUMMARIES = ("mu_a", "mu_b", "overall")
MAX_ERRORS = 5

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
GOLDEN_DIR = os.path.join(BENCH_DIR, "golden")


def sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def load_output(path: str):
    if path.endswith(".json"):
        with open(path) as fh:
            return json.load(fh)
    with open(path, newline="") as fh:
        return [[_cell(c) for c in row] for row in csv.reader(fh)]


def golden_file(golden_dir: str, workload: str, seed: int) -> str:
    return os.path.join(golden_dir, workload, f"seed{seed}.json")


def save(golden_dir: str, workload: str, seed: int, out_dir: str,
         files, inputs: dict) -> None:
    path = golden_file(golden_dir, workload, seed)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    content = {"inputs": {n: sha256(p) for n, p in sorted(inputs.items())},
               "files": {n: load_output(os.path.join(out_dir, n))
                         for n in files}}
    with open(path, "w") as fh:
        json.dump(content, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def compare_leaves(golden, actual, path: str, tol: float, errors: list) -> None:
    if isinstance(golden, dict):
        if not isinstance(actual, dict) or set(golden) != set(actual):
            errors.append(f"{path}: keys differ from golden")
            return
        for key in sorted(golden):
            compare_leaves(golden[key], actual[key], f"{path}.{key}", tol, errors)
    elif isinstance(golden, list):
        if not isinstance(actual, list) or len(golden) != len(actual):
            errors.append(f"{path}: length differs from golden")
            return
        for i, (g, a) in enumerate(zip(golden, actual)):
            compare_leaves(g, a, f"{path}[{i}]", tol, errors)
    elif _is_number(golden):
        if not (_is_number(actual) and abs(actual - golden) <= tol):
            errors.append(f"{path}: {actual!r}, golden {golden!r}, tol {tol:g}")
    elif actual != golden:
        errors.append(f"{path}: {actual!r}, golden {golden!r}")


def _compare_mc(golden: dict, actual: dict, ratio_g, ratio_a, path: str,
                errors: list) -> None:
    """A Monte Carlo summary and its exp-mapped ratio-scale triple."""
    if not isinstance(actual, dict) or set(golden) != set(actual):
        errors.append(f"{path}: keys differ from golden")
        return
    tol = MC_WIDTH_SHARE * (golden["upper"] - golden["lower"]) + TOL_GRID
    for key in ("median", "lower", "upper"):
        compare_leaves(golden[key], actual[key], f"{path}.{key}", tol, errors)
    compare_leaves(golden["p_positive"], actual["p_positive"],
                   f"{path}.p_positive", MC_PROB, errors)
    if not (isinstance(ratio_a, list) and len(ratio_a) == len(ratio_g)
            and all(_is_number(v) and v > 0 for v in ratio_a)):
        errors.append(f"{path} ratio_scale: malformed {ratio_a!r}")
        return
    compare_leaves([math.log(v) for v in ratio_g],
                   [math.log(v) for v in ratio_a],
                   f"{path} ratio_scale (log)", tol, errors)


def compare_file(name: str, golden, actual) -> list:
    errors: list = []
    if name == "report.json" and isinstance(actual, dict):
        golden = json.loads(json.dumps(golden))
        actual = json.loads(json.dumps(actual))
        g_beta = golden.get("strategies", {}).get("beta")
        a_beta = actual.get("strategies", {}).get("beta")
        if isinstance(g_beta, dict) and isinstance(a_beta, dict):
            for key in MC_SUMMARIES:
                _compare_mc(g_beta.pop(key), a_beta.pop(key, None),
                            g_beta["ratio_scale"].pop(key),
                            a_beta.get("ratio_scale", {}).pop(key, None),
                            f"strategies.beta.{key}", errors)
    compare_leaves(golden, actual, name, TOL_GRID, errors)
    return errors[:MAX_ERRORS]


def compare(golden_dir: str, workload: str, seed: int, out_dir: str,
            files, inputs: dict) -> dict:
    """{file name: [error, ...]} for each compared file that disagrees."""
    path = golden_file(golden_dir, workload, seed)
    if not os.path.exists(path):
        return {n: [f"no golden set {path}"] for n in files}
    with open(path) as fh:
        golden = json.load(fh)
    input_shas = {n: sha256(p) for n, p in sorted(inputs.items())}
    if input_shas != golden["inputs"]:
        return {n: ["inputs differ from the golden set's inputs"] for n in files}
    failures = {}
    for name in files:
        out_path = os.path.join(out_dir, name)
        if name not in golden["files"]:
            errors = [f"{name}: not in golden set"]
        elif not os.path.exists(out_path):
            errors = [f"{name}: not written"]
        else:
            try:
                errors = compare_file(name, golden["files"][name],
                                      load_output(out_path))
            except (ValueError, OSError) as exc:
                errors = [f"{name}: unreadable ({exc})"]
        if errors:
            failures[name] = errors
    return failures


def generate(golden_dir: str, size: str, seeds, work_dir: str) -> None:
    """Run every workload in this process and store its golden outputs.

    The verify battery stores no golden set; its run must still pass."""
    import workloads
    from camsmeta import io_cli

    for workload in workloads.WORKLOADS:
        for seed in seeds:
            tmp = os.path.join(work_dir, f"golden-{workload}-{seed}")
            shutil.rmtree(tmp, ignore_errors=True)
            inputs = workloads.make_inputs(workload, seed, size,
                                           os.path.join(tmp, "in"))
            out_dir = os.path.join(tmp, "out")
            compared = []
            for cmd in workloads.commands(workload, seed, size, inputs, out_dir):
                code = io_cli.main(list(cmd.argv))
                if code != 0:
                    raise SystemExit(f"{workload} seed {seed}: {cmd.label} "
                                     f"exited {code}")
                compared += cmd.golden
            if compared:
                save(golden_dir, workload, seed, out_dir, compared, inputs)
            print(f"{workload} seed {seed}: ok", flush=True)
            shutil.rmtree(tmp)


def main() -> int:
    import workloads
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full")
    parser.add_argument("--out", default=GOLDEN_DIR)
    parser.add_argument("--seeds", type=int, nargs="*",
                        default=list(range(workloads.GOLDEN_SEEDS)))
    args = parser.parse_args()
    root = os.path.dirname(BENCH_DIR)
    sys.path.insert(0, os.path.join(root, "src"))
    generate(args.out, args.size, args.seeds, os.path.join(BENCH_DIR, ".work"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
