"""CSV ingestion, configuration, serialization, and the command line.

The input schema is two rows per study (subgroup12 = -0.5 then +0.5), with
columns study.name, contrast.esti, contrast.se, est, se, ifrac, subgroup12,
ifrac2, plus optional n_a and n_b counts. The contrast columns are derivable
and validated when present; ifrac is recomputed from the standard errors and
ifrac2 must satisfy ifrac2 = subgroup12 + 0.5 - ifrac.

All outputs are deterministic given (input, config, seed): JSON is written
with sorted keys, floats round-trip through repr, Monte Carlo is seeded, and
the SVG emitter is plain string formatting. Writes go through a temp file
and an atomic rename.

Exit codes: 0 success, 1 contract/domain/IO error, 2 argument error,
3 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import warnings
from dataclasses import make_dataclass

import numpy as np

from .errors import (CamsmetaError, ContractError, DomainError,
                     ValidationWarning)
from .inference import (FitResult, GridSpec, PriorSpec, fit_bim, fit_bms,
                        fit_cams, fit_overall, interaction_trace)
from .model_core import (MetaDataset, StudyRecord, SubgroupObservation,
                         decompose_arrays, subgroup_arrays)
from .reporting import (_OPT_POINTS, STRATEGY_KINDS, PrevalenceSpec,
                        ReportedEffects, _optimal_pi, line_rows,
                        report_policies)
from .verify import SimScenario, run_battery, simulate

# the estimators ``fit`` can write, one fit_<name>.json each
FIT_ESTIMATORS = ("cams", "bim", "bms", "overall")

REQUIRED_COLUMNS = ("study.name", "est", "se", "ifrac", "subgroup12", "ifrac2")

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_VERIFY_FAIL = 3


# ----------------------------------------------------------------------
# CSV schema
# ----------------------------------------------------------------------

def _number(text, name: str, row: int, optional: bool = False) -> float:
    """One numeric cell of ``row`` as a finite float; an empty or absent
    ``optional`` cell is nan."""
    if optional and not text:
        return math.nan
    try:
        value = float(text)
    except (TypeError, ValueError):
        raise ContractError(f"row {row}: bad {name} value {text!r}") from None
    if not math.isfinite(value):
        raise ContractError(f"row {row}: {name} must be finite, got {text!r}")
    return value


def load_csv(path: str, exponentiated_input: bool = False,
             scale_label: str = "log-RR") -> MetaDataset:
    """Read the two-rows-per-study schema into a dataset.

    Column order is free and unknown columns are ignored. Subgroup A is the
    subgroup12 = -0.5 row, B the +0.5 row; est/se are subgroup estimates on
    the log scale unless ``exponentiated_input`` asks for a log transform of
    the point estimates (standard errors are taken as already log-scale).

    Rows are read in order and each cell is checked as it is read, so an
    error names the first failing row and that row's first failing check.
    A row is named by its line in the file (the last line of a row whose
    quoted cell spans lines); blank lines are skipped.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ContractError(f"{path}: empty file, header row required")
        missing = [c for c in REQUIRED_COLUMNS if c not in header]
        if missing:
            raise ContractError(f"{path}: missing columns {missing}")
        has_counts = "n_a" in header and "n_b" in header
        # a later column of a repeated name wins, and a cell past the end of
        # its row or of an absent column is None, as csv.DictReader reads them
        index = {name: i for i, name in enumerate(header)}
        at = [index.get(name, -1) for name in (
            "study.name", "est", "se", "ifrac", "subgroup12", "ifrac2",
            "contrast.esti", "contrast.se", "n_a", "n_b")]
        per_study: dict = {}
        parsed = []
        for row in reader:
            if not row:
                continue
            n = reader.line_num
            (name, est, se, ifrac, sg, ifrac2, contrast_est, contrast_se, n_a,
             n_b) = [row[k] if 0 <= k < len(row) else None for k in at]
            name = (name or "").strip()
            if not name:
                raise ContractError(f"row {n}: empty study.name")
            est = _number(est, "est", n)
            se = _number(se, "se", n)
            if se <= 0:
                raise ContractError(f"row {n}: se must be positive, got {se}")
            if not 0.0 < se * se < math.inf:
                raise DomainError(f"row {n}: se {se} is out of range, its "
                                  f"square is not a positive finite float")
            ifrac = _number(ifrac, "ifrac", n)
            sg = _number(sg, "subgroup12", n)
            ifrac2 = _number(ifrac2, "ifrac2", n)
            if abs(sg - 0.5) > 1e-9 and abs(sg + 0.5) > 1e-9:
                raise ContractError(
                    f"row {n}: subgroup12 must be -0.5 or 0.5, got {sg}")
            implied = sg + 0.5 - ifrac
            if abs(ifrac2 - implied) > 1e-9:
                raise ContractError(
                    f"row {n}: ifrac2 {ifrac2} inconsistent with subgroup12 + "
                    f"0.5 - ifrac = {implied}")
            if exponentiated_input:
                if est <= 0:
                    raise ContractError(f"row {n}: exponentiated est must be "
                                        f"positive, got {est}")
                est = math.log(est)
            contrast_est = _number(contrast_est, "contrast.esti", n, True)
            contrast_se = _number(contrast_se, "contrast.se", n, True)
            side = "b" if sg > 0 else "a"
            text = n_b if side == "b" else n_a
            count = None
            if has_counts and text:
                try:
                    count = int(text)
                except ValueError:
                    raise ContractError(
                        f"row {n}: bad n_{side} value {text!r}") from None
                if count < 0:
                    raise ContractError(
                        f"row {n}: n_{side} must be nonnegative, got {count}")
                if count > sys.float_info.max:
                    raise ContractError(
                        f"row {n}: n_{side} is too large for a float")
            if exponentiated_input:
                # an absent contrast cell is nan: it passes and stays nan
                if contrast_est <= 0:
                    raise ContractError(f"row {n}: exponentiated "
                                        f"contrast.esti must be positive")
                contrast_est = math.log(contrast_est)
            sides = per_study.setdefault(name, {})
            if side in sides:
                raise ContractError(f"row {n}: duplicate subgroup12 {sg} for "
                                    f"study {name!r}")
            sides[side] = len(parsed) // 6
            # flat: 2 000 freed row tuples would stay on the tuple free list
            parsed += est, se, ifrac, count, contrast_est, contrast_se
    est, se, ifrac, counts, contrast_est, contrast_se = (
        parsed[k::6] for k in range(6))

    studies = []
    for name, sides in per_study.items():
        for side in ("a", "b"):
            if side not in sides:
                label = -0.5 if side == "a" else 0.5
                raise ContractError(
                    f"study {name!r} has no subgroup12 = {label} row")
        a, b = sides["a"], sides["b"]
        if abs(ifrac[a] - ifrac[b]) > 1e-9:
            raise ContractError(
                f"study {name!r}: ifrac differs between rows "
                f"({ifrac[a]} vs {ifrac[b]})")
        obs_a = SubgroupObservation("A", est[a], se[a], counts[a])
        obs_b = SubgroupObservation("B", est[b], se[b], counts[b])
        record = StudyRecord.from_observations(name, obs_a, obs_b,
                                               reported_ifrac=ifrac[a])
        g = est[b] - est[a]
        se_g = math.sqrt(se[a] ** 2 + se[b] ** 2)
        # an absent contrast cell is nan, which differs from nothing
        for column, cells, what, value in (
                ("contrast.esti", contrast_est, "est difference", g),
                ("contrast.se", contrast_se, "combined se", se_g)):
            for i in (a, b):
                if abs(cells[i] - value) > 1e-6:
                    warnings.warn(
                        f"study {name!r}: {column} {cells[i]} differs from "
                        f"{what} {value}", ValidationWarning, stacklevel=2)
                    break
        studies.append(record)
    return MetaDataset(tuple(studies), scale_label=scale_label)


def save_csv(data: MetaDataset, path: str) -> None:
    """Write a two-subgroup dataset back out in the input schema.

    Contrast columns are written on both rows; numeric fields use repr so a
    round trip through load_csv is bit-exact."""
    with_counts = any(s.obs_a.count is not None or s.obs_b.count is not None
                      for s in data.studies)
    header = ["study.name", "contrast.esti", "contrast.se", "est", "se",
              "ifrac", "subgroup12", "ifrac2"]
    if with_counts:
        header += ["n_a", "n_b"]
    rows = [header]
    g_all, _, var_g, *_ = decompose_arrays(*subgroup_arrays(data))
    for s, g, var in zip(data.studies, g_all.tolist(), var_g.tolist()):
        se_g = math.sqrt(var)
        pi = s.info_fraction
        for sg, obs in ((-0.5, s.obs_a), (0.5, s.obs_b)):
            row = [s.study_id, repr(g), repr(se_g), repr(obs.estimate),
                   repr(obs.std_error), repr(pi), repr(sg),
                   repr(sg + 0.5 - pi)]
            if with_counts:
                row += ["" if s.obs_a.count is None else str(s.obs_a.count),
                        "" if s.obs_b.count is None else str(s.obs_b.count)]
            rows.append(row)
    _write_rows(path, rows)


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------

def _parse_bool(text) -> bool:
    if isinstance(text, bool):
        return text
    low = str(text).strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ContractError(f"bad boolean value {text!r}")


def _parse_law(text) -> tuple:
    """Parse 'kind:p1,p2,...' into a law tuple for the simulator."""
    kind, _, rest = str(text).partition(":")
    kind = kind.strip()
    if not kind:
        raise ContractError(f"bad law {text!r}")
    params = []
    for part in rest.split(",") if rest else []:
        try:
            params.append(float(part))
        except ValueError:
            raise ContractError(f"bad law parameter {part!r} in {text!r}") from None
    return (kind, *params)


def _opt_float(text) -> float | None:
    if text is None or str(text).strip().lower() in ("", "none"):
        return None
    return float(text)


# key -> (parser, default); every key is a config-file line and a CLI flag
_CONFIG_SCHEMA = {
    "input": (str, ""),
    "output_dir": (str, "."),
    "estimators": (str, "cams,bim,bms,overall"),
    "tau_prior": (float, 1.0),
    "tau_gamma_prior": (float, 0.5),
    "grid_nodes": (int, 101),
    "alpha_heterogeneity": (_parse_bool, False),
    "prevalence": (str, "overall_if"),
    "prevalence_value": (_opt_float, None),
    "beta_a": (_opt_float, None),
    "beta_b": (_opt_float, None),
    "seed": (int, 0),
    "scale_label": (str, "log-RR"),
    "exponentiated_input": (_parse_bool, False),
    "verify_seeds": (int, 50),
    "svg": (_parse_bool, False),
    "sim_studies": (int, 10),
    "sim_alpha": (float, 0.0),
    "sim_delta": (float, 0.0),
    "sim_gamma": (float, 0.3),
    "sim_tau": (float, 0.1),
    "sim_tau_gamma": (float, 0.1),
    "sim_sigma_law": (_parse_law, ("lognormal", -1.6, 0.4)),
    "sim_prevalence_law": (_parse_law, ("beta", 2.0, 2.0)),
    "sim_uisd": (_opt_float, None),
    "sim_output": (str, "simulated.csv"),
}


def _check_config(config) -> None:
    # refuse a bad value before any command does work; a one-node axis pins
    # its heterogeneity at 0, with no edge warning
    if config.grid_nodes < 2:
        raise ContractError(f"grid_nodes must be at least 2, got "
                            f"{config.grid_nodes}")
    _priors_and_grid(config)
    _estimator_names(config)
    if config.seed < 0:
        raise ContractError(f"seed must be nonnegative, got {config.seed}")


def _priors_and_grid(config) -> tuple[PriorSpec, GridSpec]:
    """The configured priors and the default grid on them; an axis that
    cannot be built is refused under the key of its prior scale."""
    priors = PriorSpec(tau_scale=config.tau_prior,
                       tau_gamma_scale=config.tau_gamma_prior)
    axes = []
    for key in ("tau_prior", "tau_gamma_prior"):
        try:
            axes.append(GridSpec.axis(getattr(config, key), config.grid_nodes))
        except DomainError as exc:
            raise DomainError(f"{key}: {exc}") from None
    return priors, GridSpec(*axes)


def _estimator_names(config) -> list:
    names = [n.strip() for n in config.estimators.split(",") if n.strip()]
    if not names:
        raise ContractError("estimators list is empty")
    for name in names:
        if name not in FIT_ESTIMATORS:
            raise ContractError(f"unknown estimator {name!r}")
    return names


def _config_from_sources(cls, config_path: str | None, overrides: dict):
    values = {key: default for key, (_, default) in _CONFIG_SCHEMA.items()}
    if config_path:
        values.update(_read_config_file(config_path))
    for key, raw in overrides.items():
        if key not in _CONFIG_SCHEMA:
            raise ContractError(f"unknown config key {key!r}")
        values[key] = _parse_config_value(key, raw)
    return cls(**values)


# one field per schema key, typed by what its parser returns
RunConfig = make_dataclass(
    "RunConfig",
    [(key, parser if isinstance(parser, type)
      else parser.__annotations__["return"])
     for key, (parser, _) in _CONFIG_SCHEMA.items()],
    frozen=True,
    namespace={
        "__doc__": "Flat run configuration; every field is a config key "
                   "and a CLI flag.",
        "__module__": __name__,
        "__post_init__": _check_config,
        "from_sources": classmethod(_config_from_sources),
    })


def _parse_config_value(key: str, raw):
    try:
        return _CONFIG_SCHEMA[key][0](raw)
    except ContractError:
        raise
    except (TypeError, ValueError):
        raise ContractError(f"bad value {raw!r} for config key {key!r}") from None


def _read_config_file(path: str) -> dict:
    values = {}
    with open(path) as fh:
        for line_num, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            key, eq, raw = text.partition("=")
            if not eq:
                raise ContractError(f"{path}:{line_num}: expected key = value")
            key = key.strip()
            if key not in _CONFIG_SCHEMA:
                raise ContractError(f"{path}:{line_num}: unknown key {key!r}")
            values[key] = _parse_config_value(key, raw.strip())
    return values


# ----------------------------------------------------------------------
# deterministic writers
# ----------------------------------------------------------------------

def _atomic_write(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", newline="") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _write_json(path: str, obj) -> None:
    _atomic_write(path, json.dumps(obj, sort_keys=True, indent=2,
                                   allow_nan=False) + "\n")


def _cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _write_rows(path: str, rows) -> None:
    import io
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for row in rows:
        writer.writerow([_cell(v) for v in row])
    _atomic_write(path, buf.getvalue())


# ----------------------------------------------------------------------
# result serialization
# ----------------------------------------------------------------------

def _summary_dict(s) -> dict:
    return {"median": s.median, "lower": s.lower, "upper": s.upper,
            "p_positive": s.p_positive}


def _fit_dict(fit: FitResult) -> dict:
    marginals = {}
    for name in fit.grid.scale_names:
        nodes, weights = fit.grid.scale_axis(name)
        marginals[name] = {"nodes": nodes.tolist(), "weights": weights.tolist()}
    return {
        "estimator": fit.estimator,
        "param_names": list(fit.grid.param_names),
        "summaries": {k: _summary_dict(v) for k, v in fit.summaries.items()},
        "functionals": {k: [float(c) for c in v]
                        for k, v in fit.functionals.items()},
        "scale_marginals": marginals,
        "provenance": fit.provenance,
    }


def _effects_dict(eff: ReportedEffects) -> dict:
    out = {name: _summary_dict(getattr(eff, name))
           for name in ("mu_a", "mu_b", "overall", "interaction")}
    out["ratio_scale"] = {k: list(v) for k, v in eff.ratio_scale().items()}
    out["prevalence_used"] = eff.prevalence_used
    return out


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------

def _load_data(config: RunConfig) -> MetaDataset:
    if not config.input:
        raise ContractError("this command needs input=<csv path>")
    return load_csv(config.input, config.exponentiated_input, config.scale_label)


def _fit_one(name: str, data: MetaDataset, priors: PriorSpec, grid: GridSpec,
             config: RunConfig) -> FitResult:
    if name == "bim":
        return fit_bim(data, priors, grid)
    if name == "bms":
        return fit_bms(data, priors, grid,
                       alpha_heterogeneity=config.alpha_heterogeneity)
    if name == "cams":
        return fit_cams(data, priors, grid)
    return fit_overall(data, priors, grid)


def _cmd_fit(config: RunConfig) -> int:
    """Every estimator is fitted and serialized before any file is written,
    so a fit that fails leaves no file behind; each FitResult is dropped
    once serialized."""
    data = _load_data(config)
    priors, grid = _priors_and_grid(config)
    out = {name: _fit_dict(_fit_one(name, data, priors, grid, config))
           for name in _estimator_names(config)}
    for name, fit in out.items():
        _write_json(os.path.join(config.output_dir, f"fit_{name}.json"), fit)
    return EXIT_OK


def _prevalence_spec(config: RunConfig, kind: str) -> PrevalenceSpec:
    """The configured values as the prevalence policy ``kind``."""
    if kind in ("point", "external") and config.prevalence_value is None:
        raise ContractError(f"prevalence={kind} needs prevalence_value")
    if kind == "beta":
        if config.beta_a is None or config.beta_b is None:
            raise ContractError("prevalence=beta needs beta_a and beta_b")
        return PrevalenceSpec.beta(config.beta_a, config.beta_b,
                                   seed=config.seed)
    return PrevalenceSpec(kind, value=config.prevalence_value)


def _cmd_report(config: RunConfig) -> int:
    data = _load_data(config)
    configured = _prevalence_spec(config, config.prevalence)
    skipped = {}
    counts = {c for s in data.studies for c in (s.obs_a.count, s.obs_b.count)}
    if None in counts:
        skipped["trial_weighted"] = "needs n_a and n_b counts"
    elif 0 in counts:
        skipped["trial_weighted"] = "needs positive n_a and n_b counts"
    if config.prevalence_value is None:
        skipped["external"] = "needs prevalence_value"
    kinds = [kind for kind in STRATEGY_KINDS if kind not in skipped]
    if config.beta_a is not None and config.beta_b is not None:
        kinds.append("beta")
    strategies = {kind: {"skipped": why} for kind, why in skipped.items()}
    # the configured policy reuses its table entry; a point policy has none,
    # and a skipped kind is run anyway so that its error surfaces
    specs = [_prevalence_spec(config, kind) for kind in kinds]
    if configured.kind not in kinds:
        specs.append(configured)
    # every policy is built, so a bad one is refused, before the fits
    priors, grid = _priors_and_grid(config)
    cams = _fit_one("cams", data, priors, grid, config)
    reference = _fit_one("bms", data, priors, grid, config)
    effects = [_effects_dict(eff) for eff
               in report_policies(data, cams, specs, reference)]
    strategies.update(zip(kinds, effects))
    entry = effects[kinds.index(configured.kind)
                    if configured.kind in kinds else -1]

    _write_json(os.path.join(config.output_dir, "report.json"),
                {"configured": entry, "strategies": strategies})
    return EXIT_OK


def _cmd_verify(config: RunConfig) -> int:
    report = run_battery(seeds=config.verify_seeds,
                         base_seed=20240 + config.seed)
    _write_json(os.path.join(config.output_dir, "verify.json"), report)
    return EXIT_OK if report["all_pass"] else EXIT_VERIFY_FAIL


def _cmd_simulate(config: RunConfig) -> int:
    scenario = SimScenario(
        n_studies=config.sim_studies, alpha=config.sim_alpha,
        delta=config.sim_delta, gamma=config.sim_gamma, tau=config.sim_tau,
        tau_gamma=config.sim_tau_gamma, sigma_law=config.sim_sigma_law,
        prevalence_law=config.sim_prevalence_law, uisd=config.sim_uisd,
        seed=config.seed)
    save_csv(simulate(scenario), os.path.join(config.output_dir,
                                              config.sim_output))
    return EXIT_OK


def _cmd_plotdata(config: RunConfig) -> int:
    data = _load_data(config)
    priors, grid = _priors_and_grid(config)
    cams = fit_cams(data, priors, grid)
    bim = fit_bim(data, priors, grid)
    out = config.output_dir

    # forest: per-study contrasts plus the pooled interaction
    forest = [["label", "estimate", "lower", "upper", "weight"]]
    g_all, _, var_g, *_ = decompose_arrays(*subgroup_arrays(data))
    contrasts = [(s.study_id, g, math.sqrt(var)) for s, g, var
                 in zip(data.studies, g_all.tolist(), var_g.tolist())]
    total = sum(1.0 / se_g ** 2 for _, _, se_g in contrasts)
    for study_id, g, se_g in contrasts:
        forest.append([study_id, g, g - 1.96 * se_g, g + 1.96 * se_g,
                       1.0 / se_g ** 2 / total])
    pooled = bim.summaries["gamma"]
    forest.append(["POOLED", pooled.median, pooled.lower, pooled.upper, 1.0])
    _write_rows(os.path.join(out, "forest.csv"), forest)

    # bubble: one row per observation
    bubble = [["study", "subgroup", "ifrac", "estimate", "lower", "upper",
               "weight"]]
    for s in data.studies:
        for label, obs in (("A", s.obs_a), ("B", s.obs_b)):
            bubble.append([s.study_id, label, s.info_fraction, obs.estimate,
                           obs.estimate - 1.96 * obs.std_error,
                           obs.estimate + 1.96 * obs.std_error,
                           1.0 / obs.std_error ** 2])
    _write_rows(os.path.join(out, "bubble.csv"), bubble)

    # the subgroup lines' medians and the combined 95% interval width at the
    # 41 prevalences optimal_if scans, from one quantile batch
    line_pi = np.linspace(0.0, 1.0, _OPT_POINTS)
    qs = cams.functional_quantiles(line_rows(cams, line_pi, (0.0, 1.0)),
                                   (0.5, 0.025, 0.975))
    medians = qs[:, 0].reshape(2, -1)
    span = (qs[:, 2] - qs[:, 1]).reshape(2, -1)
    width = span[0] + span[1]
    lines = [["pi", "mu_a_median", "mu_b_median"]]
    for p, ma, mb in zip(line_pi.tolist(), *medians.tolist()):
        lines.append([p, ma, mb])
    _write_rows(os.path.join(out, "bubble_lines.csv"), lines)
    width_rows = [["pi", "width"]]
    for p, w in zip(line_pi.tolist(), width.tolist()):
        width_rows.append([p, w])
    _write_rows(os.path.join(out, "width_curve.csv"), width_rows)

    nodes = cams.grid.tau_gamma_nodes
    trace_rows = [["tau_gamma", "bim_median", "bim_lower", "bim_upper",
                   "cams_median", "cams_lower", "cams_upper"]]
    trace_b = interaction_trace(bim, nodes)
    trace_c = interaction_trace(cams, nodes)
    for tb, tc in zip(trace_b, trace_c):
        trace_rows.append([tb.tau_gamma, tb.median, tb.lower, tb.upper,
                           tc.median, tc.lower, tc.upper])
    _write_rows(os.path.join(out, "trace.csv"), trace_rows)

    if config.svg:
        _svg_forest(os.path.join(out, "forest.svg"), forest[1:])
        _svg_bubble(os.path.join(out, "bubble.svg"), bubble[1:], lines[1:])
        # the marker's search reuses the widths just written
        _svg_width(os.path.join(out, "width_curve.svg"), line_pi, width,
                   _optimal_pi(cams, width)[0])
        _svg_trace(os.path.join(out, "trace.svg"), trace_rows[1:])
    return EXIT_OK


# ----------------------------------------------------------------------
# minimal SVG plots
# ----------------------------------------------------------------------
# Static renderings with fixed geometry and colors; everything is plain
# string formatting so output bytes depend only on the data.

_W, _H, _M = 640, 420, 60
_BLUE, _RED, _GRAY = "#1f6fb4", "#c23b22", "#777777"


class _Frame:
    def __init__(self, xlim, ylim):
        self.x0, self.x1 = xlim
        self.y0, self.y1 = ylim
        if self.x1 <= self.x0:
            self.x1 = self.x0 + 1.0
        if self.y1 <= self.y0:
            self.y1 = self.y0 + 1.0

    def x(self, v) -> float:
        return _M + (v - self.x0) / (self.x1 - self.x0) * (_W - 2 * _M)

    def y(self, v) -> float:
        return _H - _M - (v - self.y0) / (self.y1 - self.y0) * (_H - 2 * _M)


def _svg_open(title: str) -> list:
    return [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" '
            f'height="{_H}" viewBox="0 0 {_W} {_H}">',
            f'<rect width="{_W}" height="{_H}" fill="white"/>',
            f'<text x="{_W / 2:.1f}" y="20" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{title}</text>']


def _svg_axes(frame: _Frame, elements: list) -> None:
    elements.append(
        f'<rect x="{_M}" y="{_M}" width="{_W - 2 * _M}" '
        f'height="{_H - 2 * _M}" fill="none" stroke="black"/>')
    for v in np.linspace(frame.x0, frame.x1, 5):
        px = frame.x(v)
        elements.append(f'<line x1="{px:.2f}" y1="{_H - _M}" x2="{px:.2f}" '
                        f'y2="{_H - _M + 5}" stroke="black"/>')
        elements.append(f'<text x="{px:.2f}" y="{_H - _M + 18}" '
                        f'text-anchor="middle" font-family="sans-serif" '
                        f'font-size="10">{v:.3g}</text>')
    for v in np.linspace(frame.y0, frame.y1, 5):
        py = frame.y(v)
        elements.append(f'<line x1="{_M - 5}" y1="{py:.2f}" x2="{_M}" '
                        f'y2="{py:.2f}" stroke="black"/>')
        elements.append(f'<text x="{_M - 8}" y="{py + 3:.2f}" '
                        f'text-anchor="end" font-family="sans-serif" '
                        f'font-size="10">{v:.3g}</text>')


def _polyline(frame: _Frame, xs, ys, color: str, width: float = 1.5) -> str:
    pts = " ".join(f"{frame.x(x):.2f},{frame.y(y):.2f}" for x, y in zip(xs, ys))
    return (f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="{width}"/>')


def _svg_close(path: str, elements: list) -> None:
    _atomic_write(path, "\n".join(elements) + "\n</svg>\n")


def _svg_forest(path: str, rows) -> None:
    los = [r[2] for r in rows]
    his = [r[3] for r in rows]
    frame = _Frame((min(min(los), 0.0), max(max(his), 0.0)),
                   (0.0, float(len(rows))))
    el = _svg_open("Within-trial contrasts")
    _svg_axes(frame, el)
    zero = frame.x(0.0)
    el.append(f'<line x1="{zero:.2f}" y1="{_M}" x2="{zero:.2f}" '
              f'y2="{_H - _M}" stroke="{_GRAY}" stroke-dasharray="4,3"/>')
    for i, (label, est, lo, hi, _) in enumerate(rows):
        y = frame.y(len(rows) - i - 0.5)
        color = _RED if label == "POOLED" else _BLUE
        el.append(f'<line x1="{frame.x(lo):.2f}" y1="{y:.2f}" '
                  f'x2="{frame.x(hi):.2f}" y2="{y:.2f}" stroke="{color}"/>')
        el.append(f'<circle cx="{frame.x(est):.2f}" cy="{y:.2f}" r="3" '
                  f'fill="{color}"/>')
        el.append(f'<text x="{_M - 8}" y="{y + 3:.2f}" text-anchor="end" '
                  f'font-family="sans-serif" font-size="9">{label}</text>')
    _svg_close(path, el)


def _svg_bubble(path: str, rows, line_rows) -> None:
    ests = [r[3] for r in rows]
    frame = _Frame((0.0, 1.0), (min(ests), max(ests)))
    el = _svg_open("Subgroup estimates vs information fraction")
    _svg_axes(frame, el)
    wmax = max(r[6] for r in rows)
    for _, label, pi, est, _, _, w in rows:
        r = 2.0 + 8.0 * math.sqrt(w / wmax)
        color = _BLUE if label == "A" else _RED
        el.append(f'<circle cx="{frame.x(pi):.2f}" cy="{frame.y(est):.2f}" '
                  f'r="{r:.2f}" fill="{color}" fill-opacity="0.45"/>')
    el.append(_polyline(frame, [r[0] for r in line_rows],
                        [r[1] for r in line_rows], _BLUE))
    el.append(_polyline(frame, [r[0] for r in line_rows],
                        [r[2] for r in line_rows], _RED))
    _svg_close(path, el)


def _svg_width(path: str, pis, width, pi_opt: float) -> None:
    frame = _Frame((float(pis[0]), float(pis[-1])),
                   (float(width.min()), float(width.max())))
    el = _svg_open("Combined interval width by prevalence")
    _svg_axes(frame, el)
    el.append(_polyline(frame, pis, width, _BLUE))
    px = frame.x(pi_opt)
    el.append(f'<line x1="{px:.2f}" y1="{_M}" x2="{px:.2f}" y2="{_H - _M}" '
              f'stroke="{_RED}" stroke-dasharray="4,3"/>')
    _svg_close(path, el)


def _svg_trace(path: str, rows) -> None:
    ys = [v for r in rows for v in (r[2], r[3], r[5], r[6])]
    frame = _Frame((rows[0][0], rows[-1][0]), (min(ys), max(ys)))
    el = _svg_open("Conditional interaction by heterogeneity")
    _svg_axes(frame, el)
    xs = [r[0] for r in rows]
    el.append(_polyline(frame, xs, [r[5] for r in rows], _GRAY, 1.0))
    el.append(_polyline(frame, xs, [r[6] for r in rows], _GRAY, 1.0))
    el.append(_polyline(frame, xs, [r[1] for r in rows], _BLUE))
    el.append(_polyline(frame, xs, [r[4] for r in rows], _RED))
    _svg_close(path, el)


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------

_COMMANDS = {
    "fit": _cmd_fit,
    "report": _cmd_report,
    "verify": _cmd_verify,
    "simulate": _cmd_simulate,
    "plotdata": _cmd_plotdata,
}


def run(command: str, config: RunConfig) -> int:
    """Execute one subcommand; returns the process exit code."""
    if command not in _COMMANDS:
        raise ContractError(f"unknown command {command!r}; "
                            f"have {sorted(_COMMANDS)}")
    os.makedirs(config.output_dir, exist_ok=True)
    return _COMMANDS[command](config)


class _Parser(argparse.ArgumentParser):
    """argparse reads only -N and -N.N as negative numbers, so "--flag -1e-3"
    or "--flag -inf" failed as a missing value. Every flag here but --help
    takes one value, so a token after a flag that ``float`` accepts is that
    flag's value: it is joined to it as "--flag=-1e-3"."""

    def parse_known_args(self, args=None, namespace=None):
        joined = []
        for token in sys.argv[1:] if args is None else args:
            flag = joined[-1] if joined else ""
            if (flag.startswith("--") and "=" not in flag
                    and not "--help".startswith(flag)
                    and token.startswith("-") and _is_float(token)):
                joined[-1] = f"{flag}={token}"
            else:
                joined.append(token)
        return super().parse_known_args(joined, namespace)


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def build_parser() -> argparse.ArgumentParser:
    """The command and every config key as one flag each; every command
    takes every flag and reads the keys it needs."""
    helps = {
        "fit": "fit the configured estimators and write one JSON each",
        "report": "report effects under the configured prevalence policy",
        "verify": "run the numerical verification battery",
        "simulate": "write a synthetic dataset CSV",
        "plotdata": "write forest/bubble/width/trace plot data",
    }
    parser = _Parser(
        prog="camsmeta",
        description="Contribution-adjusted Bayesian subgroup meta-analysis",
        epilog="commands:\n" + "\n".join(
            f"  {name:<10}{text}" for name, text in helps.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("command", choices=_COMMANDS,
                        help="the command to run (listed below)")
    parser.add_argument("--config", default=None, metavar="PATH",
                        help="key = value configuration file")
    for key in _CONFIG_SCHEMA:
        parser.add_argument(f"--{key.replace('_', '-')}", dest=key,
                            default=None, metavar="V",
                            help=f"override config key {key}")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {key: getattr(args, key) for key in _CONFIG_SCHEMA
                 if getattr(args, key) is not None}
    try:
        config = RunConfig.from_sources(args.config, overrides)
        return run(args.command, config)
    except (CamsmetaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
