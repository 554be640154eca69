"""The benchmark's workloads: seeded inputs and the CLI command sequence of each.

Every workload is closed loop with one client: its commands run one after
another in a single child process, each through ``camsmeta.io_cli.main``.
Why each workload exists is in README.md next to this file.

Inputs come from ``camsmeta.verify.simulate`` and ``camsmeta.io_cli.save_csv``
with data seed ``seed % GOLDEN_SEEDS``; golden outputs are stored for each of
those data seeds, so every benchmark seed has outputs to check against.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

GOLDEN_SEEDS = 8

# full: the measured sizes; tiny: the self-test sizes. quick_verify_seeds is
# the verify step of the README quick start, verify_seeds the CLI default the
# stand-alone battery runs.
SIZES = {
    "full": {"j_small": 8, "j_large": 1000, "nodes": 101,
             "quick_verify_seeds": 20, "verify_seeds": 50},
    "tiny": {"j_small": 3, "j_large": 3, "nodes": 11,
             "quick_verify_seeds": 2, "verify_seeds": 3},
}

PLOT_CSVS = ("forest.csv", "bubble.csv", "bubble_lines.csv",
             "width_curve.csv", "trace.csv")
PLOT_SVGS = ("forest.svg", "bubble.svg", "width_curve.svg", "trace.svg")
ESTIMATORS = ("cams", "bim", "bms", "overall")


@dataclass(frozen=True)
class Command:
    """One CLI invocation and the files it must write into its output dir."""

    label: str
    argv: tuple
    outputs: tuple
    golden: tuple  # the outputs compared leaf by leaf with the golden set


# BENCHMARK.json lists the first two; verify_battery is run by hand (README.md
# says why).
WORKLOADS = ("quickstart_j8", "fit_j1000", "verify_battery")


def data_seed(seed: int) -> int:
    return seed % GOLDEN_SEEDS


def make_inputs(workload: str, seed: int, size: str, in_dir: str) -> dict:
    """Write the workload's input files; returns {file name: path}."""
    from camsmeta.io_cli import save_csv
    from camsmeta.verify import SimScenario, simulate

    dims = SIZES[size]
    os.makedirs(in_dir, exist_ok=True)
    if workload == "verify_battery":
        return {}  # the battery simulates its own data from --seed
    if workload == "quickstart_j8":
        # the CLI simulate defaults, with per-subgroup counts so that the
        # trial_weighted prevalence strategy runs too
        scenario = SimScenario(n_studies=dims["j_small"], gamma=0.3, tau=0.1,
                               tau_gamma=0.1, uisd=1.0, seed=data_seed(seed))
    elif workload == "fit_j1000":
        scenario = SimScenario(n_studies=dims["j_large"], gamma=0.3, tau=0.1,
                               tau_gamma=0.1, seed=data_seed(seed))
    else:
        raise ValueError(f"unknown workload {workload!r}; have {WORKLOADS}")
    path = os.path.join(in_dir, "data.csv")
    save_csv(simulate(scenario), path)
    return {"data.csv": path}


def commands(workload: str, seed: int, size: str, inputs: dict,
             out_dir: str) -> list:
    dims = SIZES[size]
    common = ("--output-dir", out_dir)

    def verify(seeds: int) -> Command:
        return Command("verify",
                       ("verify", "--seed", str(data_seed(seed)),
                        "--verify-seeds", str(seeds)) + common,
                       ("verify.json",), ())

    if workload == "verify_battery":
        return [verify(dims["verify_seeds"])]
    data = ("--input", inputs["data.csv"], "--grid-nodes", str(dims["nodes"]))
    fits = tuple(f"fit_{e}.json" for e in ESTIMATORS)
    fit = Command("fit", ("fit",) + data + common, fits, fits)
    if workload == "fit_j1000":
        return [fit]
    # prevalence_value enables the external strategy and beta_a/beta_b the
    # Beta-marginalized report, so all seven strategies plus beta run
    report = Command("report",
                     ("report",) + data + common
                     + ("--prevalence-value", "0.4", "--beta-a", "2",
                        "--beta-b", "3"),
                     ("report.json",), ("report.json",))
    plotdata = Command("plotdata", ("plotdata",) + data + common
                       + ("--svg", "true"), PLOT_CSVS + PLOT_SVGS, PLOT_CSVS)
    return [fit, report, plotdata, verify(dims["quick_verify_seeds"])]
