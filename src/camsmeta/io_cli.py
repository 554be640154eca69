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

from .errors import CamsmetaError, ContractError, ValidationWarning
from .inference import (FitResult, GridSpec, PriorSpec, fit_bim, fit_bms,
                        fit_cams, fit_overall, interaction_trace)
from .model_core import (MetaDataset, StudyRecord, SubgroupObservation,
                         decompose_arrays, subgroup_arrays)
from .reporting import (STRATEGY_KINDS, PrevalenceSpec, ReportedEffects,
                        optimal_if, report_effects)
from .verify import SimScenario, run_battery, simulate

REQUIRED_COLUMNS = ("study.name", "est", "se", "ifrac", "subgroup12", "ifrac2")

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_VERIFY_FAIL = 3


# ----------------------------------------------------------------------
# CSV schema
# ----------------------------------------------------------------------

def _parse_float(row_num: int, name: str, text) -> float:
    try:
        value = float(text)
    except (TypeError, ValueError):
        raise ContractError(f"row {row_num}: bad {name} value {text!r}") from None
    if not math.isfinite(value):
        raise ContractError(f"row {row_num}: {name} must be finite, got {text!r}")
    return value


def _parse_optional(row_num: int, name: str, text, parse):
    if text is None or text == "":
        return None
    return parse(row_num, name, text)


def _parse_count(row_num: int, name: str, text) -> int:
    try:
        return int(text)
    except (TypeError, ValueError):
        raise ContractError(f"row {row_num}: bad {name} value {text!r}") from None


def load_csv(path: str, exponentiated_input: bool = False,
             scale_label: str = "log-RR") -> MetaDataset:
    """Read the two-rows-per-study schema into a dataset.

    Column order is free and unknown columns are ignored. Subgroup A is the
    subgroup12 = -0.5 row, B the +0.5 row; est/se are subgroup estimates on
    the log scale unless ``exponentiated_input`` asks for a log transform of
    the point estimates (standard errors are taken as already log-scale).
    """
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ContractError(f"{path}: empty file, header row required")
        missing = [c for c in REQUIRED_COLUMNS if c not in reader.fieldnames]
        if missing:
            raise ContractError(f"{path}: missing columns {missing}")
        has_counts = "n_a" in reader.fieldnames and "n_b" in reader.fieldnames
        rows = list(reader)

    per_study: dict = {}
    for row_num, row in enumerate(rows, start=2):
        name = (row.get("study.name") or "").strip()
        if not name:
            raise ContractError(f"row {row_num}: empty study.name")
        est = _parse_float(row_num, "est", row.get("est"))
        se = _parse_float(row_num, "se", row.get("se"))
        if se <= 0:
            raise ContractError(f"row {row_num}: se must be positive, got {se}")
        ifrac = _parse_float(row_num, "ifrac", row.get("ifrac"))
        sg = _parse_float(row_num, "subgroup12", row.get("subgroup12"))
        ifrac2 = _parse_float(row_num, "ifrac2", row.get("ifrac2"))
        if abs(sg - 0.5) > 1e-9 and abs(sg + 0.5) > 1e-9:
            raise ContractError(
                f"row {row_num}: subgroup12 must be -0.5 or 0.5, got {sg}")
        side = "b" if sg > 0 else "a"
        if abs(ifrac2 - (sg + 0.5 - ifrac)) > 1e-9:
            raise ContractError(
                f"row {row_num}: ifrac2 {ifrac2} inconsistent with "
                f"subgroup12 + 0.5 - ifrac = {sg + 0.5 - ifrac}")
        if exponentiated_input:
            if est <= 0:
                raise ContractError(
                    f"row {row_num}: exponentiated est must be positive, got {est}")
            est = math.log(est)
        parsed = {
            "row": row_num,
            "est": est,
            "se": se,
            "ifrac": ifrac,
            "contrast_est": _parse_optional(row_num, "contrast.esti",
                                            row.get("contrast.esti"), _parse_float),
            "contrast_se": _parse_optional(row_num, "contrast.se",
                                           row.get("contrast.se"), _parse_float),
            "count": _parse_optional(
                row_num, f"n_{side}", row.get(f"n_{side}"), _parse_count)
            if has_counts else None,
        }
        if exponentiated_input and parsed["contrast_est"] is not None:
            if parsed["contrast_est"] <= 0:
                raise ContractError(
                    f"row {row_num}: exponentiated contrast.esti must be positive")
            parsed["contrast_est"] = math.log(parsed["contrast_est"])
        sides = per_study.setdefault(name, {})
        if side in sides:
            raise ContractError(
                f"row {row_num}: duplicate subgroup12 {sg} for study {name!r}")
        sides[side] = parsed

    studies = []
    for name, sides in per_study.items():
        for side in ("a", "b"):
            if side not in sides:
                label = -0.5 if side == "a" else 0.5
                raise ContractError(
                    f"study {name!r} has no subgroup12 = {label} row")
        a, b = sides["a"], sides["b"]
        if abs(a["ifrac"] - b["ifrac"]) > 1e-9:
            raise ContractError(
                f"study {name!r}: ifrac differs between rows "
                f"({a['ifrac']} vs {b['ifrac']})")
        obs_a = SubgroupObservation("A", a["est"], a["se"], a["count"])
        obs_b = SubgroupObservation("B", b["est"], b["se"], b["count"])
        record = StudyRecord.from_observations(name, obs_a, obs_b,
                                               reported_ifrac=a["ifrac"])
        g = b["est"] - a["est"]
        se_g = math.sqrt(a["se"] ** 2 + b["se"] ** 2)
        for parsed in (a, b):
            if parsed["contrast_est"] is not None and \
                    abs(parsed["contrast_est"] - g) > 1e-6:
                warnings.warn(
                    f"study {name!r}: contrast.esti {parsed['contrast_est']} "
                    f"differs from est difference {g}",
                    ValidationWarning, stacklevel=2)
                break
        for parsed in (a, b):
            if parsed["contrast_se"] is not None and \
                    abs(parsed["contrast_se"] - se_g) > 1e-6:
                warnings.warn(
                    f"study {name!r}: contrast.se {parsed['contrast_se']} "
                    f"differs from combined se {se_g}",
                    ValidationWarning, stacklevel=2)
                break
        studies.append(record)
    return MetaDataset(tuple(studies), scale_label=scale_label)


def save_csv(data: MetaDataset, path: str) -> None:
    """Write a two-subgroup dataset back out in the input schema.

    Contrast columns are written on both rows; numeric fields use repr so a
    round trip through load_csv is bit-exact."""
    if data.is_multi:
        raise ContractError("the CSV schema covers two-subgroup datasets only")
    with_counts = any(s.obs_a.count is not None or s.obs_b.count is not None
                      for s in data.studies)
    header = ["study.name", "contrast.esti", "contrast.se", "est", "se",
              "ifrac", "subgroup12", "ifrac2"]
    if with_counts:
        header += ["n_a", "n_b"]
    rows = [header]
    g_all, _, var_g, _ = decompose_arrays(*subgroup_arrays(data))
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
    "parametrization": (str, "explicit"),
    "alpha_heterogeneity": (_parse_bool, False),
    "prevalence": (str, "overall_if"),
    "prevalence_value": (_opt_float, None),
    "beta_a": (_opt_float, None),
    "beta_b": (_opt_float, None),
    "draws": (int, 20000),
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
    if config.tau_prior <= 0 or config.tau_gamma_prior <= 0:
        raise ContractError("prior scales must be positive")


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


def _priors(config: RunConfig) -> PriorSpec:
    return PriorSpec(tau_scale=config.tau_prior,
                     tau_gamma_scale=config.tau_gamma_prior)


def _fit_one(name: str, data: MetaDataset, priors: PriorSpec, grid: GridSpec,
             config: RunConfig) -> FitResult:
    if name == "bim":
        return fit_bim(data, priors, grid)
    if name == "bms":
        return fit_bms(data, priors, grid,
                       alpha_heterogeneity=config.alpha_heterogeneity)
    if name == "cams":
        return fit_cams(data, priors, grid,
                        parametrization=config.parametrization)
    if name == "overall":
        return fit_overall(data, priors, grid)
    raise ContractError(f"unknown estimator {name!r}")


def _cmd_fit(config: RunConfig) -> int:
    data = _load_data(config)
    priors = _priors(config)
    grid = GridSpec.default(priors, n_nodes=config.grid_nodes)
    names = [n.strip() for n in config.estimators.split(",") if n.strip()]
    if not names:
        raise ContractError("estimators list is empty")
    for name in names:
        fit = _fit_one(name, data, priors, grid, config)
        _write_json(os.path.join(config.output_dir, f"fit_{name}.json"),
                    _fit_dict(fit))
    return EXIT_OK


def _prevalence_spec(config: RunConfig, kind: str) -> PrevalenceSpec:
    """The configured values as the prevalence policy ``kind``."""
    if kind in ("point", "external") and config.prevalence_value is None:
        raise ContractError(f"prevalence={kind} needs prevalence_value")
    if kind == "beta":
        if config.beta_a is None or config.beta_b is None:
            raise ContractError("prevalence=beta needs beta_a and beta_b")
        return PrevalenceSpec.beta(config.beta_a, config.beta_b,
                                   draws=config.draws, seed=config.seed)
    return PrevalenceSpec(kind, value=config.prevalence_value)


def _cmd_report(config: RunConfig) -> int:
    data = _load_data(config)
    configured = _prevalence_spec(config, config.prevalence)
    priors = _priors(config)
    grid = GridSpec.default(priors, n_nodes=config.grid_nodes)
    cams = _fit_one("cams", data, priors, grid, config)
    reference = _fit_one("bms", data, priors, grid, config)

    skipped = {}
    if not all(s.obs_a.count is not None and s.obs_b.count is not None
               for s in data.studies):
        skipped["trial_weighted"] = "needs n_a and n_b counts"
    if config.prevalence_value is None:
        skipped["external"] = "needs prevalence_value"
    kinds = [kind for kind in STRATEGY_KINDS if kind not in skipped]
    if config.beta_a is not None and config.beta_b is not None:
        kinds.append("beta")
    strategies = {kind: {"skipped": why} for kind, why in skipped.items()}
    for kind in kinds:
        strategies[kind] = _effects_dict(report_effects(
            data, cams, _prevalence_spec(config, kind), reference))
    # the configured policy reuses its table entry; a point policy has none,
    # and a skipped kind is run anyway so that its error surfaces
    if configured.kind in kinds:
        entry = strategies[configured.kind]
    else:
        entry = _effects_dict(report_effects(data, cams, configured, reference))

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
    priors = _priors(config)
    grid = GridSpec.default(priors, n_nodes=config.grid_nodes)
    cams = fit_cams(data, priors, grid, parametrization=config.parametrization)
    bim = fit_bim(data, priors, grid)
    out = config.output_dir

    # forest: per-study contrasts plus the pooled interaction
    forest = [["label", "estimate", "lower", "upper", "weight"]]
    g_all, _, var_g, _ = decompose_arrays(*subgroup_arrays(data))
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

    lines = [["pi", "mu_a_median", "mu_b_median"]]
    line_pi = np.linspace(0.0, 1.0, 41)
    medians = cams.functional_quantiles(
        [{"alpha": 1.0, "delta": float(p), "gamma": g}
         for g in (0.0, 1.0) for p in line_pi], (0.5,)).reshape(2, -1)
    for p, ma, mb in zip(line_pi.tolist(), *medians.tolist()):
        lines.append([p, ma, mb])
    _write_rows(os.path.join(out, "bubble_lines.csv"), lines)

    opt = optimal_if(cams)
    width_rows = [["pi", "width"]]
    for p, w in zip(opt.curve_pi, opt.curve_width):
        width_rows.append([float(p), float(w)])
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
        _svg_width(os.path.join(out, "width_curve.svg"), opt)
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


def _svg_width(path: str, opt) -> None:
    frame = _Frame((float(opt.curve_pi[0]), float(opt.curve_pi[-1])),
                   (float(opt.curve_width.min()), float(opt.curve_width.max())))
    el = _svg_open("Combined interval width by prevalence")
    _svg_axes(frame, el)
    el.append(_polyline(frame, opt.curve_pi, opt.curve_width, _BLUE))
    px = frame.x(opt.pi_opt)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="camsmeta",
        description="Contribution-adjusted Bayesian subgroup meta-analysis")
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "fit": "fit the configured estimators and write one JSON each",
        "report": "report effects under the configured prevalence policy",
        "verify": "run the numerical verification battery",
        "simulate": "write a synthetic dataset CSV",
        "plotdata": "write forest/bubble/width/trace plot data",
    }
    for name, help_text in helps.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", default=None, metavar="PATH",
                        help="key = value configuration file")
        for key in _CONFIG_SCHEMA:
            sp.add_argument(f"--{key.replace('_', '-')}", dest=key,
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
