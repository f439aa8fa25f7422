"""Command-line front end.

One process per invocation; every run prints its effective configuration
into the output report header so reruns are auditable, and all file
outputs are written atomically (temp file + rename).  Exit codes: 0
success, 1 usage error, 2 data/parse error, 3 numerical failure.
Diagnostics go to stderr; data goes to files or stdout.
"""

import argparse
import glob as globlib
import sys

import numpy as np

from . import theory
from .ensemble import (
    CoefficientSet,
    ExtractionConfig,
    MEMORY_PRESETS,
    adapt_coefficients,
    extract_universal,
    load_coefficients,
    load_subspace,
    load_weights,
    memory_savings,
    merge_models,
    project_model,
    reconstruct_model,
    save_coefficients,
    save_subspace,
    save_weights,
    scree_report,
)
from .ensemble.container import atomic_write_bytes
from .errors import (
    ContainerError,
    DegenerateSpectrumError,
    InternalConsistencyError,
    InvalidArgumentError,
    NumericalFailureError,
    RankDeficiencyError,
)
from .spectral import RankPolicy, operator_norm, orthonormality_defect

TABLE_HEADER = "component_index,layer,sigma,ratio,cumulative"
CONVERGE_HEADER = "T,trial,op_error,subspace_error,op_bound,subspace_bound"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as exceptions instead of
    exiting the process, so main() can map them to exit code 1."""

    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


# ------------------------------------------------------------ argument types


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _nonneg_int(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {text!r}")
    return value


def _positive_float(text):
    value = float(text)
    if not np.isfinite(value) or value <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive number, got {text!r}")
    return value


def _nonneg_float(text):
    value = float(text)
    if not np.isfinite(value) or value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text!r}")
    return value


def _grid(text):
    try:
        values = [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    if not values or any(v < 1 for v in values):
        raise argparse.ArgumentTypeError(f"grid entries must be positive integers, got {text!r}")
    return values


def _float_list(text):
    try:
        return [float(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")


def _name_list(text):
    return [part for part in (p.strip() for p in text.split(",")) if part]


def _fmt(value):
    if value is None:
        return "undefined"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_text(path, text):
    atomic_write_bytes(path, text.encode("utf-8"))


# ------------------------------------------------------------- report tables


def _scree_rows(u):
    """Component table rows (index, layer, sigma, ratio, cumulative) for
    every included layer, followed by aggregate rows with no sigma."""
    report = scree_report(u)
    rows = []
    for name in u.included_layers:
        spec = report.per_layer[name]
        cum = 0.0
        for j in range(spec.singular_values.size):
            cum += float(spec.ratios[j])
            rows.append((j, name, float(spec.singular_values[j]),
                         float(spec.ratios[j]), cum))
    cum = 0.0
    for j in range(report.aggregate_ratios.size):
        cum += float(report.aggregate_ratios[j])
        rows.append((j, "aggregate", None, float(report.aggregate_ratios[j]), cum))
    return rows


def _table_lines(rows, fmt):
    if fmt == "csv":
        lines = [TABLE_HEADER]
        for idx, layer, sigma, ratio, cum in rows:
            sigma_text = "" if sigma is None else repr(sigma)
            lines.append(f"{idx},{layer},{sigma_text},{ratio!r},{cum!r}")
        return lines
    lines = []
    current = None
    for idx, layer, sigma, ratio, cum in rows:
        if layer != current:
            lines.append(f"layer: {layer}")
            current = layer
        if sigma is None:
            lines.append(f"  component {idx}: ratio {ratio!r} cumulative {cum!r}")
        else:
            lines.append(
                f"  component {idx}: sigma {sigma!r} ratio {ratio!r} cumulative {cum!r}"
            )
    return lines


def _render_report(header_pairs, rows, fmt):
    if fmt == "csv":
        lines = [f"# {key}: {value}" for key, value in header_pairs]
        lines.extend(_table_lines(rows, "csv"))
    else:
        lines = [f"{key}: {value}" for key, value in header_pairs]
        lines.extend(_table_lines(rows, "text"))
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------------ commands


def _policy_from_args(args):
    try:
        if args.eigen_floor is not None:
            return RankPolicy.eigen_floor(args.eigen_floor)
        if args.fixed_k is not None:
            return RankPolicy.fixed_k(args.fixed_k)
        if args.hard_threshold:
            return RankPolicy.hard_threshold()
        return RankPolicy.cumulative_variance(args.tau if args.tau is not None else 0.95)
    except InvalidArgumentError as exc:
        raise _UsageError(str(exc))


def _load_models(pattern):
    paths = sorted(globlib.glob(pattern))
    if not paths:
        raise InvalidArgumentError(f"no model files match {pattern!r}")
    return paths, [load_weights(p) for p in paths]


def cmd_extract(args):
    paths, models = _load_models(args.models)
    policy = _policy_from_args(args)
    exclude = tuple(args.exclude_layers) if args.exclude_layers is not None else None
    config = ExtractionConfig(
        policy=policy,
        order=args.order,
        centering=args.center,
        exclude_layers=exclude,
        architecture_id=args.arch_id,
    )
    u = extract_universal(models, config)
    save_subspace(u, args.out)
    header = [
        ("subcommand", "extract"),
        ("models", ",".join(paths)),
        ("n_models", len(models)),
        ("policy", policy.describe()),
        ("order", args.order),
        ("centering", args.center),
        ("exclude_layers",
         "default(first,last)" if exclude is None else (",".join(exclude) or "(none)")),
        ("architecture_id", args.arch_id),
        ("included_layers", ",".join(u.included_layers)),
        ("excluded_layers", ",".join(u.excluded_layers) or "(none)"),
        ("format", args.format),
    ]
    _write_text(args.report, _render_report(header, _scree_rows(u), args.format))
    print(f"subspace: {args.out}")
    print(f"models: {len(models)}")
    for name in u.included_layers:
        model = u.layer_models[name]
        spec = model.variance_ledger[u.config.order]
        energy = float(np.sum(spec.ratios[: spec.retained]))
        defect = orthonormality_defect(model.factors[-1])
        print(f"  {name}: rank {spec.retained} of {spec.singular_values.size}, "
              f"retained energy {energy:.6f}, orthonormality defect {defect:.1e}")
    print(f"report: {args.report}")
    return 0


def cmd_scree(args):
    u = load_subspace(args.subspace)
    rows = _scree_rows(u)
    header = [
        ("subcommand", "scree"),
        ("subspace", args.subspace),
        ("architecture_id", u.architecture_id),
        ("included_layers", ",".join(u.included_layers)),
        ("top", args.top),
        ("format", args.format),
    ]
    _write_text(args.out, _render_report(header, rows, args.format))
    shown = [row for row in rows if row[0] < args.top]
    print(f"# showing up to {args.top} components per layer; full table: {args.out}")
    for line in _table_lines(shown, "csv"):
        print(line)
    return 0


def cmd_project(args):
    u = load_subspace(args.subspace)
    model = load_weights(args.model)
    coeffs = project_model(u, model)
    save_coefficients(coeffs, args.out)
    print(f"model: {model.model_id}")
    print(f"projected layers: {','.join(sorted(coeffs.coefficients))}")
    print(f"passthrough layers: {','.join(sorted(coeffs.passthrough)) or '(none)'}")
    print(f"coefficients: {args.out}")
    return 0


def cmd_reconstruct(args):
    u = load_subspace(args.subspace)
    coeffs = load_coefficients(args.coeffs)
    model = reconstruct_model(u, coeffs)
    save_weights(model, args.out)
    print(f"model: {model.model_id}")
    print(f"layers: {','.join(sorted(model.layers))}")
    print(f"output: {args.out}")
    return 0


def cmd_merge(args):
    paths, models = _load_models(args.models)
    weights = args.weights
    if weights is not None:
        if len(weights) != len(models):
            raise _UsageError(
                f"--weights needs {len(models)} entries for {len(models)} models, "
                f"got {len(weights)}"
            )
        if any(w < 0 or not np.isfinite(w) for w in weights):
            raise _UsageError("--weights entries must be finite and nonnegative")
        if abs(sum(weights) - 1.0) > 1e-8:
            raise _UsageError(f"--weights must sum to 1, got {sum(weights)!r}")
    u = load_subspace(args.subspace)
    merged = merge_models(u, models, weights=weights)
    save_weights(merged, args.out)
    shown = weights if weights is not None else [1.0 / len(models)] * len(models)
    print("rule: merging averages per-layer subspace coefficients "
          "(affine projection makes this the weighted mean model)")
    print(f"models: {len(models)}")
    print(f"weights: {','.join(repr(w) for w in shown)}")
    print(f"merged: {args.out}")
    return 0


def cmd_adapt(args):
    u = load_subspace(args.subspace)
    x = np.loadtxt(args.x, delimiter=",", ndmin=2)
    y = np.loadtxt(args.y, delimiter=",", ndmin=2)
    method = {"closed-form": "closed_form", "gd": "gradient"}[args.method]
    kwargs = dict(method=method, ridge=args.ridge)
    if method == "gradient":
        kwargs.update(lr=args.lr, epochs=args.epochs)
    coeffs, report = adapt_coefficients(u, args.layer, x, y, **kwargs)
    save_coefficients(
        CoefficientSet(
            model_id=f"fit:{args.layer}",
            coefficients={args.layer: coeffs},
            passthrough={},
        ),
        args.out,
    )
    c = np.asarray(coeffs.coeffs, dtype=np.float64)
    energies = np.linalg.norm(c, axis=0)
    total = float((energies**2).sum())
    rows = []
    cum = 0.0
    for j in range(energies.size):
        ratio = float(energies[j] ** 2 / total) if total > 0 else 0.0
        cum += ratio
        rows.append((j, args.layer, float(energies[j]), ratio, cum))
    header = [
        ("subcommand", "adapt"),
        ("subspace", args.subspace),
        ("layer", args.layer),
        ("method", args.method),
        ("x", args.x),
        ("y", args.y),
        ("basis_rank", report["basis_rank"]),
        ("trainable_params", report["trainable_params"]),
        ("full_params", report["full_params"]),
        ("normal_matrix_lmax", _fmt(report["normal_matrix_lmax"])),
        ("stable_lr_bound", _fmt(report["stable_lr_bound"])),
        ("ridge", _fmt(report["ridge"])),
        ("initial_residual_norm", _fmt(report["initial_residual_norm"])),
        ("residual_norm", _fmt(report["residual_norm"])),
        ("format", args.format),
    ]
    if method == "gradient":
        header.insert(4, ("lr", _fmt(report["lr"])))
        header.insert(5, ("epochs", report["epochs"]))
    _write_text(args.report, _render_report(header, rows, args.format))
    print(f"layer: {args.layer}")
    print(f"trainable parameters: {report['trainable_params']} "
          f"(full layer: {report['full_params']})")
    print(f"residual norm: {_fmt(report['residual_norm'])}")
    print(f"coefficients: {args.out}")
    print(f"report: {args.report}")
    return 0


def cmd_memcalc(args):
    ratio = memory_savings(
        t=args.t,
        per_model_params=args.per_model,
        basis_params=args.basis,
        coeff_params_per_model=args.coeffs,
        mean_params=args.mean,
    )
    print("# subcommand: memcalc")
    print(f"# t: {args.t} per_model: {args.per_model} basis: {args.basis} "
          f"coeffs: {args.coeffs} mean: {args.mean}")
    print(f"ratio: {ratio!r}")
    print(f"effective ratio: {round(ratio, 1)}x")
    print("documented presets:")
    for preset in MEMORY_PRESETS.values():
        print(f"  {preset.name}: {round(preset.ratio(), 1)}x ({preset.ratio()!r})")
        print(f"    {preset.description}")
    return 0


def cmd_theory_bounds(args):
    if args.gamma_k is not None and args.gamma_k <= 0:
        raise _UsageError(f"--gamma-k must be positive, got {args.gamma_k!r}")
    if not (0.0 < args.delta < 1.0):
        raise _UsageError(f"--delta must lie in (0, 1), got {args.delta!r}")
    params = theory.BoundParameters(
        b=args.b,
        delta=args.delta,
        n_tasks=args.t,
        eta_bar=args.eta_bar,
        eta2_bar=args.eta2_bar,
        gamma_k=args.gamma_k,
        c1=args.c1,
        c2=args.c2,
    )
    bounds = theory.theorem1_bounds(params)
    print("# subcommand: theory bounds")
    print(f"# b: {args.b!r} delta: {args.delta!r} t: {args.t} "
          f"eta_bar: {args.eta_bar!r} eta2_bar: {args.eta2_bar!r} "
          f"gamma_k: {_fmt(args.gamma_k)} c1: {args.c1!r} c2: {args.c2!r}")
    print(f"delta_t: {params.delta_t!r}")
    print(f"delta_T: {params.delta_big_t!r}")
    print(f"sampling_term: {bounds.sampling_term!r}")
    print(f"within_task_floor: {bounds.within_task_floor!r}")
    print(f"op_bound: {bounds.op_bound!r}")
    print(f"subspace_bound: {_fmt(bounds.subspace_bound)}")
    return 0


def _check_dims(d, k):
    if k > d:
        raise _UsageError(f"--k must not exceed --d, got k={k} d={d}")


def cmd_theory_converge(args):
    _check_dims(args.d, args.k)
    if not (0.0 < args.delta < 1.0):
        raise _UsageError(f"--delta must lie in (0, 1), got {args.delta!r}")
    report = theory.convergence_study(
        d=args.d,
        k=args.k,
        t_grid=args.t_grid,
        n_trials=args.trials,
        eta=args.eta,
        b=args.b,
        spectrum=args.spectrum,
        seed=args.seed,
        norm_mode=args.norm_mode,
        perturbation=args.perturbation,
        delta=args.delta,
        c1=args.c1,
        c2=args.c2,
    )
    header = [
        ("subcommand", "theory converge"),
        ("d", args.d),
        ("k", args.k),
        ("t_grid", ",".join(str(t) for t in args.t_grid)),
        ("trials", args.trials),
        ("eta", _fmt(args.eta)),
        ("b", _fmt(report.config["b"])),
        ("spectrum",
         "uniform" if args.spectrum is None
         else ",".join(repr(v) for v in args.spectrum)),
        ("seed", args.seed),
        ("norm_mode", args.norm_mode),
        ("perturbation", args.perturbation),
        ("delta", _fmt(args.delta)),
        ("c1", _fmt(args.c1)),
        ("c2", _fmt(args.c2)),
        ("within_task_floor", _fmt(report.within_task_floor)),
        ("slope", _fmt(report.slope)),
    ]
    for t in sorted(report.mean_op_error):
        header.append((f"mean_op_error[{t}]", _fmt(report.mean_op_error[t])))
        header.append((f"mean_subspace_error[{t}]", _fmt(report.mean_subspace_error[t])))
        header.append((f"mean_op_bound[{t}]", _fmt(report.mean_op_bound[t])))
    if args.format == "csv":
        lines = [f"# {key}: {value}" for key, value in header]
        lines.append(CONVERGE_HEADER)
        for row in report.rows:
            sub_bound = "" if row.subspace_bound is None else repr(row.subspace_bound)
            lines.append(
                f"{row.n_tasks},{row.trial},{row.op_error!r},"
                f"{row.subspace_error!r},{row.op_bound!r},{sub_bound}"
            )
    else:
        lines = ["convergence report"]
        lines.extend(f"{key}: {value}" for key, value in header)
        lines.append("rows:")
        for row in report.rows:
            lines.append(
                f"  T {row.n_tasks} trial {row.trial}: "
                f"op_error {row.op_error!r} subspace_error {row.subspace_error!r} "
                f"op_bound {row.op_bound!r} subspace_bound {_fmt(row.subspace_bound)}"
            )
    _write_text(args.out, "\n".join(lines) + "\n")
    print(f"cells: {len(report.rows)}")
    print(f"slope: {_fmt(report.slope)}")
    print(f"within_task_floor: {_fmt(report.within_task_floor)}")
    for t in sorted(report.mean_op_error):
        print(f"mean op_error at T={t}: {_fmt(report.mean_op_error[t])}")
    print(f"report: {args.out}")
    return 0


def cmd_theory_dk(args):
    _check_dims(args.d, args.k)
    violations = 0
    max_lhs = 0.0
    min_slack = float("inf")
    for trial in range(args.trials):
        rng = np.random.default_rng([args.seed, trial])
        g = rng.standard_normal((args.d, args.d))
        base = g @ g.T / args.d
        noise = rng.standard_normal((args.d, args.d))
        noise = (noise + noise.T) / 2.0
        scale = operator_norm(noise)
        pert = base + args.perturb * noise / scale
        check = theory.davis_kahan_check(base, pert, args.k)
        if not check.holds:
            violations += 1
        max_lhs = max(max_lhs, check.lhs)
        min_slack = min(min_slack, check.rhs - check.lhs)
    print("# subcommand: theory dk-check")
    print(f"# d: {args.d} k: {args.k} perturb: {args.perturb!r} seed: {args.seed}")
    print(f"trials: {args.trials}")
    print(f"violations: {violations}")
    print(f"max_lhs: {max_lhs!r}")
    print(f"min_slack: {min_slack!r}")
    return 0 if violations == 0 else 3


# -------------------------------------------------------------------- parser


def _add_format(parser):
    parser.add_argument("--format", choices=["csv", "text"], default="csv",
                        help="report format: comma-separated or structured text")


def build_parser():
    parser = _Parser(
        prog="uws",
        description="Extract, inspect, and reuse shared low-rank subspaces "
                    "of model-weight ensembles.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    extract = sub.add_parser("extract", help="build a subspace from a model ensemble")
    extract.add_argument("--models", required=True,
                         help="glob matching the input weight containers")
    extract.add_argument("--out", required=True, help="output subspace file")
    extract.add_argument("--report", required=True, help="scree report file")
    policy = extract.add_mutually_exclusive_group()
    policy.add_argument("--tau", type=float, default=None,
                        help="cumulative explained-variance target (default 0.95)")
    policy.add_argument("--eigen-floor", type=float, default=None,
                        help="relative eigenvalue floor")
    policy.add_argument("--fixed-k", type=_positive_int, default=None,
                        help="retain exactly K components per mode")
    policy.add_argument("--hard-threshold", action="store_true",
                        help="optimal singular-value hard threshold")
    extract.add_argument("--order", type=int, choices=[2, 3], default=2,
                         help="stack models by row concatenation (2) or a new axis (3)")
    extract.add_argument("--exclude-layers", type=_name_list, default=None,
                         help="comma-separated layers to leave out "
                              "(default: first and last; pass '' for none)")
    extract.add_argument("--center", choices=["feature", "global"], default="feature",
                         help="mean removal: per feature column or one scalar")
    extract.add_argument("--arch-id", default="ensemble",
                         help="architecture label stored in the subspace file")
    _add_format(extract)
    extract.set_defaults(func=cmd_extract)

    scree = sub.add_parser("scree", help="re-emit the variance table of a subspace")
    scree.add_argument("--subspace", required=True)
    scree.add_argument("--out", required=True, help="full table output file")
    scree.add_argument("--top", type=_positive_int, default=100,
                       help="display cap per layer on stdout (file gets everything)")
    _add_format(scree)
    scree.set_defaults(func=cmd_scree)

    project = sub.add_parser("project", help="express a model as subspace coefficients")
    project.add_argument("--subspace", required=True)
    project.add_argument("--model", required=True)
    project.add_argument("--out", required=True)
    project.set_defaults(func=cmd_project)

    reconstruct = sub.add_parser("reconstruct", help="rebuild a model from coefficients")
    reconstruct.add_argument("--subspace", required=True)
    reconstruct.add_argument("--coeffs", required=True)
    reconstruct.add_argument("--out", required=True)
    reconstruct.set_defaults(func=cmd_reconstruct)

    merge = sub.add_parser("merge", help="average models inside the subspace")
    merge.add_argument("--subspace", required=True)
    merge.add_argument("--models", required=True)
    merge.add_argument("--weights", type=_float_list, default=None,
                       help="convex combination weights (default uniform)")
    merge.add_argument("--out", required=True)
    merge.set_defaults(func=cmd_merge)

    adapt = sub.add_parser("adapt", help="fit one layer's coefficients to data")
    adapt.add_argument("--subspace", required=True)
    adapt.add_argument("--layer", required=True)
    adapt.add_argument("--x", required=True, help="design matrix CSV (n x d_in)")
    adapt.add_argument("--y", required=True, help="target matrix CSV (n x d_out)")
    adapt.add_argument("--method", choices=["closed-form", "gd"], default="closed-form")
    adapt.add_argument("--lr", type=_positive_float, default=None,
                       help="gd step size (default: half the stability bound)")
    adapt.add_argument("--epochs", type=_positive_int, default=1000)
    adapt.add_argument("--ridge", type=_nonneg_float, default=0.0,
                       help="ridge term added to the normal matrix")
    adapt.add_argument("--out", required=True, help="fitted coefficient container")
    adapt.add_argument("--report", required=True, help="fit report file")
    _add_format(adapt)
    adapt.set_defaults(func=cmd_adapt)

    memcalc = sub.add_parser("memcalc", help="storage ratio of an ensemble vs a subspace")
    memcalc.add_argument("--t", type=_positive_int, required=True,
                         help="number of models")
    memcalc.add_argument("--per-model", type=_positive_int, required=True,
                         help="parameters per full model")
    memcalc.add_argument("--basis", type=_nonneg_int, required=True,
                         help="parameters in the shared basis")
    memcalc.add_argument("--coeffs", type=_nonneg_int, required=True,
                         help="coefficient parameters per model")
    memcalc.add_argument("--mean", type=_nonneg_int, default=0,
                         help="parameters in the stored means")
    memcalc.set_defaults(func=cmd_memcalc)

    theory_parser = sub.add_parser("theory", help="synthetic convergence experiments")
    theory_sub = theory_parser.add_subparsers(dest="theory_command", required=True,
                                              metavar="SUBCOMMAND")

    converge = theory_sub.add_parser("converge",
                                     help="Monte-Carlo error curves over ensemble sizes")
    converge.add_argument("--d", type=_positive_int, required=True)
    converge.add_argument("--k", type=_positive_int, required=True)
    converge.add_argument("--t-grid", type=_grid, required=True,
                          help="comma-separated ensemble sizes")
    converge.add_argument("--trials", type=_positive_int, required=True)
    converge.add_argument("--eta", type=_nonneg_float, default=0.0)
    converge.add_argument("--b", type=_positive_float, default=None,
                          help="norm bound (default derived from the spectrum)")
    converge.add_argument("--spectrum", type=_float_list, default=None,
                          help="planted eigenvalues, length k or d")
    converge.add_argument("--delta", type=float, default=0.05)
    converge.add_argument("--seed", type=int, default=0)
    converge.add_argument("--norm-mode", choices=["gaussian", "constant"],
                          default="gaussian")
    converge.add_argument("--perturbation", choices=["isotropic", "radial"],
                          default="isotropic")
    converge.add_argument("--c1", type=_positive_float, default=1.0)
    converge.add_argument("--c2", type=_positive_float, default=1.0)
    converge.add_argument("--out", required=True, help="report file")
    _add_format(converge)
    converge.set_defaults(func=cmd_theory_converge)

    bounds = theory_sub.add_parser("bounds", help="evaluate the two-level bound")
    bounds.add_argument("--b", type=_positive_float, required=True)
    bounds.add_argument("--delta", type=float, required=True)
    bounds.add_argument("--t", type=_positive_int, required=True)
    bounds.add_argument("--eta-bar", type=_nonneg_float, required=True)
    bounds.add_argument("--eta2-bar", type=_nonneg_float, required=True)
    bounds.add_argument("--gamma-k", type=float, default=None)
    bounds.add_argument("--c1", type=_positive_float, default=1.0)
    bounds.add_argument("--c2", type=_positive_float, default=1.0)
    bounds.set_defaults(func=cmd_theory_bounds)

    dk = theory_sub.add_parser("dk-check",
                               help="random projector-perturbation inequality check")
    dk.add_argument("--d", type=_positive_int, required=True)
    dk.add_argument("--k", type=_positive_int, required=True)
    dk.add_argument("--perturb", type=_positive_float, required=True,
                    help="operator-norm size of the perturbation")
    dk.add_argument("--trials", type=_positive_int, default=100)
    dk.add_argument("--seed", type=int, default=0)
    dk.set_defaults(func=cmd_theory_dk)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help
        return 0 if exc.code in (None, 0) else 1
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NumericalFailureError, DegenerateSpectrumError,
            RankDeficiencyError, InternalConsistencyError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ContainerError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except (InvalidArgumentError, OSError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
