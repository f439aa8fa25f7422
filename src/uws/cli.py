"""Command-line front end.

One process per invocation; every run prints its effective configuration
into the output report header so reruns are auditable, and all file
outputs are written atomically (temp file + rename).  An output that names
the same file as another output or an input, is a directory or lies in a
missing one is refused before any file is touched.  Exit codes: 0
success, 1 usage error, 2 data/parse error, 3 numerical failure.
Diagnostics go to stderr; data goes to files or stdout.
"""

import argparse
import errno
import functools
import glob as globlib
import os
import sys
import warnings

import numpy as np

from . import theory
from .ensemble import (MEMORY_PRESETS, ORDERS, CoefficientSet, ExtractionConfig,
                       adapt_coefficients, extract_universal, load_coefficients, load_subspace,
                       load_weights, memory_savings, merge_models, merge_weights, nonempty_label,
                       project_model, reconstruct_model, save_coefficients, save_subspace,
                       save_weights, scree_report)
from .ensemble.container import atomic_write_bytes
from .errors import (ContainerError, DegenerateSpectrumError, InternalConsistencyError,
                     InvalidArgumentError, NumericalFailureError, RankDeficiencyError)
from .hosvd import CENTERINGS
from .spectral import RANGE, RankPolicy, orthonormality_defect
from .tensor import NONNEGATIVE, OPEN_UNIT, POSITIVE, finite_entries, int_at_least, real_in

TABLE_HEADER = "component_index,layer,sigma,ratio,cumulative"
CONVERGE_HEADER = "T,trial,op_error,subspace_error"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as exceptions instead of
    exiting the process, so main() can map them to exit code 1, and says
    how to pass a flag a value that argparse reads as a flag (``-1,1``)."""

    def error(self, message):
        flag = message.partition(":")[0].rpartition("/")[2].removeprefix("argument ")
        if message.endswith("expected one argument") and flag.startswith("--"):
            message += f" (pass a value that starts with '-' as {flag}=VALUE)"
        raise _UsageError(f"{self.prog}: {message}")


# ------------------------------------------------------------ argument types


def _list_of(parse, what):
    """An argparse type: comma-separated values, each read by ``parse``."""
    def values(text):
        try:
            return [parse(part) for part in text.split(",")]
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected comma-separated {what}, got {text!r}")
    return values


_ints, _floats = _list_of(int, "integers"), _list_of(float, "numbers")


def _add(parser, flag, parse, rule, *bounds, **kwargs):
    """Add ``flag``, whose text is read by ``parse`` (a text it cannot read
    is argparse's usage error) and whose value must pass the rule of
    :mod:`uws.tensor` that the library applies, ``rule(value, flag,
    *bounds)``: a value it refuses is a usage error naming the flag,
    raised while the command line is parsed, before any file is touched."""
    def value(text):
        parsed = parse(text)
        try:
            return rule(parsed, flag, *bounds)
        except InvalidArgumentError as exc:
            raise _UsageError(str(exc)) from None
    value.__name__ = parse.__name__  # argparse's "invalid int value" names it
    parser.add_argument(flag, type=value, **kwargs)


def _name_list(text):
    return [part for part in (p.strip() for p in text.split(",")) if part]


def _fmt(value):
    return "undefined" if value is None else repr(value)


def _write_text(path, text):
    atomic_write_bytes(path, text.encode("utf-8"))


def _path_flag(parser, flag, role, help=None):
    """Add the required path flag ``flag`` to a subcommand, listed in its
    ``role`` default: ``reads``, ``globs`` (a glob of files read) or
    ``writes``, whose paths main() checks before it runs (:func:`_check_paths`)."""
    parser.add_argument(flag, required=True, help=help)
    parser.set_defaults(**{role: (*(parser.get_default(role) or ()), flag)})


def _check_paths(args):
    """Refuse, before the subcommand touches any file, an output that names
    the same file as another output or an input (a usage error naming both
    flags), then an output that is a directory or lies in a missing one."""
    def path(flag):
        return getattr(args, flag[2:].replace("-", "_"))

    writes = getattr(args, "writes", ())
    named = [(flag, path(flag)) for flag in (*writes, *getattr(args, "reads", ()))]
    named += [(flag, match) for flag in getattr(args, "globs", ())
              for match in globlib.glob(path(flag))]
    outputs = {}
    for i, (flag, name) in enumerate(named):  # the outputs come first
        try:
            key = os.stat(name)[1:3]  # inode and device
        except OSError:  # nothing there yet: the same file only by name
            key = os.path.realpath(name)
        if key in outputs:
            out_flag, out = outputs[key]
            raise _UsageError(f"{out_flag} and {flag} name the same file {out!r}")
        if i < len(writes):
            outputs[key] = flag, name
    for out in map(path, writes):
        if os.path.isdir(out):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), out)
        if not os.path.isdir(os.path.dirname(out) or "."):
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), out)


# ------------------------------------------------------------- report tables


def _component_rows(layer, sigmas, ratios, tail=0.0):
    """Component table rows (index, layer, sigma, ratio, cumulative) of
    one layer, with no sigma where ``sigmas`` is None; a share ``tail``
    of the energy left after them adds one row of index ``tail``."""
    rows, cum = [], 0.0
    for j, ratio in enumerate(ratios):
        cum += float(ratio)
        sigma = None if sigmas is None else float(sigmas[j])
        rows.append((j, layer, sigma, float(ratio), cum))
    if tail > 0:
        rows.append(("tail", layer, None, tail, cum + tail))
    return rows


def _scree_rows(u):
    """The component table rows of every included layer's stored
    components, then aggregate rows with no sigma (:func:`_component_rows`)."""
    report = scree_report(u)
    rows = []
    for name in u.included_layers:
        spec = u.layer_models[name].spectra[-1]
        rows += _component_rows(name, spec.singular_values, spec.ratios, spec.tail_ratio)
    return rows + _component_rows("aggregate", None, report.aggregate_ratios,
                                  report.aggregate_tail)


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
    prefix = "# " if fmt == "csv" else ""
    lines = [f"{prefix}{key}: {value}" for key, value in header_pairs]
    return "\n".join(lines + _table_lines(rows, fmt)) + "\n"


# ------------------------------------------------------------------ commands


def _config_from_args(args):
    """The ExtractionConfig the flags ask for, whose values the parser has checked."""
    if args.eigen_floor is not None:
        policy = RankPolicy.eigen_floor(args.eigen_floor)
    elif args.fixed_k is not None:
        policy = RankPolicy.fixed_k(args.fixed_k)
    elif args.hard_threshold:
        policy = RankPolicy.hard_threshold()
    else:
        policy = RankPolicy.cumulative_variance(0.95 if args.tau is None else args.tau)
    return ExtractionConfig(policy=policy, order=args.order, centering=args.center,
                            exclude_layers=args.exclude_layers, architecture_id=args.arch_id)


def _model_paths(pattern):
    paths = sorted(globlib.glob(pattern))
    if not paths:
        raise InvalidArgumentError(f"no model files match {pattern!r}")
    return paths


def cmd_extract(args):
    config = _config_from_args(args)
    paths = _model_paths(args.models)  # extraction reads every file once per layer pass
    u = extract_universal(paths, config)
    save_subspace(u, args.out)
    header = [
        ("subcommand", "extract"),
        ("models", ",".join(paths)),
        ("n_models", len(paths)),
        ("policy", config.policy.describe()),
        ("order", args.order),
        ("centering", args.center),
        ("exclude_layers",
         "default(first,last)" if config.exclude_layers is None
         else (",".join(config.exclude_layers) or "(none)")),
        ("architecture_id", args.arch_id),
        ("included_layers", ",".join(u.included_layers)),
        ("excluded_layers", ",".join(u.excluded_layers) or "(none)"),
        ("format", args.format),
    ]
    _write_text(args.report, _render_report(header, _scree_rows(u), args.format))
    print(f"subspace: {args.out}")
    print(f"models: {len(paths)}")
    for name in u.included_layers:
        model = u.layer_models[name]
        rank = model.ranks[-1]
        energy = float(np.sum(model.spectra[-1].ratios[:rank]))
        defect = orthonormality_defect(model.factors[-1])
        # the feature-mode unfolding's full component count, stored or not
        rows, cols = u.layer_shapes[name]
        count = min(cols, len(u.provenance) * rows)
        print(f"  {name}: rank {rank} of {count}, "
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
    shown = [row for row in rows if row[0] == "tail" or row[0] < args.top]
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
    paths = _model_paths(args.models)
    try:
        weights = merge_weights(args.weights, len(paths))
    except InvalidArgumentError as exc:
        raise _UsageError(f"--weights: {exc}") from exc
    u = load_subspace(args.subspace)
    merged = merge_models(u, paths, weights=weights)  # reads one model at a time
    save_weights(merged, args.out)
    print("rule: merging averages per-layer subspace coefficients "
          "(affine projection makes this the weighted mean model)")
    print(f"models: {len(paths)}")
    print(f"weights: {','.join(repr(float(w)) for w in weights)}")
    print(f"merged: {args.out}")
    return 0


def cmd_adapt(args):
    u = load_subspace(args.subspace)
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")  # refused below
        x = np.loadtxt(args.x, delimiter=",", ndmin=2)
        y = np.loadtxt(args.y, delimiter=",", ndmin=2)
    for flag, path, data in (("--x", args.x, x), ("--y", args.y, y)):
        if not data.size:
            raise InvalidArgumentError(f"{flag} {path} holds no data")
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
    energies = np.linalg.norm(coeffs.coeffs, axis=0)
    total = float((energies**2).sum())
    # squared one at a time: the vector square rounds a few values differently
    ratios = [e**2 / total if total > 0 else 0.0 for e in energies]
    rows = _component_rows(args.layer, energies, ratios)
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
        ("normal_matrix_cond", _fmt(report["normal_matrix_cond"])),
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


def _check_rank(args):
    """Refuse --k past --d by the library's rule, as a usage error naming both."""
    try:
        theory.rank_within(args.k, args.d, ("--k", "--d"))
    except InvalidArgumentError as exc:
        raise _UsageError(str(exc)) from None


def cmd_theory_converge(args):
    _check_rank(args)
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
        ("b", _fmt(report.b)),
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
    mean_op, mean_sub = report.mean_op_error, report.mean_subspace_error
    for t, op in mean_op.items():
        header.append((f"mean_op_error[{t}]", _fmt(op)))
        header.append((f"mean_subspace_error[{t}]", _fmt(mean_sub[t])))
        header.append((f"mean_op_bound[{t}]", _fmt(report.bounds[t].op_bound)))
        header.append((f"subspace_bound[{t}]", _fmt(report.bounds[t].subspace_bound)))
    cells = list(zip(report.n_tasks.tolist(), report.trial.tolist(),
                     report.op_error.tolist(), report.subspace_error.tolist()))
    if args.format == "csv":
        lines = [f"# {key}: {value}" for key, value in header]
        lines.append(CONVERGE_HEADER)
        lines.extend(f"{t},{trial},{op!r},{sub!r}" for t, trial, op, sub in cells)
    else:
        lines = ["convergence report"]
        lines.extend(f"{key}: {value}" for key, value in header)
        lines.append("rows:")
        lines.extend(f"  T {t} trial {trial}: op_error {op!r} subspace_error {sub!r}"
                     for t, trial, op, sub in cells)
    _write_text(args.out, "\n".join(lines) + "\n")
    print(f"cells: {len(cells)}")
    print(f"slope: {_fmt(report.slope)}")
    print(f"within_task_floor: {_fmt(report.within_task_floor)}")
    for t, op in mean_op.items():
        print(f"mean op_error at T={t}: {_fmt(op)}")
    print(f"report: {args.out}")
    return 0


def cmd_theory_dk(args):
    _check_rank(args)
    report = theory.davis_kahan_study(args.d, args.k, args.perturb, args.trials, args.seed)
    violations = int(np.count_nonzero(~report.holds))
    print("# subcommand: theory dk-check")
    print(f"# d: {args.d} k: {args.k} perturb: {args.perturb!r} seed: {args.seed}")
    print(f"trials: {args.trials}")
    print(f"violations: {violations}")
    print(f"max_lhs: {max(0.0, float(np.max(report.lhs)))!r}")
    print(f"min_slack: {float(np.min(report.rhs - report.lhs))!r}")
    return 0 if violations == 0 else 3


# -------------------------------------------------------------------- parser


def _add_format(parser):
    parser.add_argument("--format", choices=["csv", "text"], default="csv",
                        help="report format: comma-separated or structured text")


@functools.cache
def build_parser():
    """The command line's parser, built once per process and shared by every parse."""
    parser = _Parser(
        prog="uws",
        description="Extract, inspect, and reuse shared low-rank subspaces "
                    "of model-weight ensembles.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    extract = sub.add_parser("extract", help="build a subspace from a model ensemble")
    _path_flag(extract, "--models", "globs", help="glob matching the input weight containers")
    _path_flag(extract, "--out", "writes", help="output subspace file")
    _path_flag(extract, "--report", "writes", help="scree report file")
    policy = extract.add_mutually_exclusive_group()
    _add(policy, "--tau", float, real_in, *RANGE["cumulative_variance"], default=None,
         help="cumulative explained-variance target (default 0.95)")
    _add(policy, "--eigen-floor", float, real_in, *RANGE["eigen_floor"], default=None,
         help="relative eigenvalue floor")
    _add(policy, "--fixed-k", int, int_at_least, 1, default=None,
         help="retain exactly K components per mode")
    policy.add_argument("--hard-threshold", action="store_true",
                        help="optimal singular-value hard threshold")
    extract.add_argument("--order", type=int, choices=ORDERS, default=2,
                         help="stack models by row concatenation (2) or a new axis (3)")
    extract.add_argument("--exclude-layers", type=_name_list, default=None,
                         help="comma-separated layers to leave out "
                              "(default: first and last; pass '' for none)")
    extract.add_argument("--center", choices=CENTERINGS, default="feature",
                         help="mean removal: per feature column or one scalar")
    _add(extract, "--arch-id", str, nonempty_label, default="ensemble",
         help="architecture label stored in the subspace file")
    _add_format(extract)
    extract.set_defaults(func=cmd_extract)

    scree = sub.add_parser("scree", help="re-emit the variance table of a subspace")
    _path_flag(scree, "--subspace", "reads")
    _path_flag(scree, "--out", "writes", help="full table output file")
    _add(scree, "--top", int, int_at_least, 1, default=100,
         help="display cap per layer on stdout (file gets everything)")
    _add_format(scree)
    scree.set_defaults(func=cmd_scree)

    project = sub.add_parser("project", help="express a model as subspace coefficients")
    _path_flag(project, "--subspace", "reads")
    _path_flag(project, "--model", "reads")
    _path_flag(project, "--out", "writes")
    project.set_defaults(func=cmd_project)

    reconstruct = sub.add_parser("reconstruct", help="rebuild a model from coefficients")
    _path_flag(reconstruct, "--subspace", "reads")
    _path_flag(reconstruct, "--coeffs", "reads")
    _path_flag(reconstruct, "--out", "writes")
    reconstruct.set_defaults(func=cmd_reconstruct)

    merge = sub.add_parser("merge", help="average models inside the subspace")
    _path_flag(merge, "--subspace", "reads")
    _path_flag(merge, "--models", "globs")
    merge.add_argument("--weights", type=_floats, default=None,
                       help="convex combination weights (default uniform)")
    _path_flag(merge, "--out", "writes")
    merge.set_defaults(func=cmd_merge)

    adapt = sub.add_parser("adapt", help="fit one layer's coefficients to data")
    _path_flag(adapt, "--subspace", "reads")
    adapt.add_argument("--layer", required=True)
    _path_flag(adapt, "--x", "reads", help="design matrix CSV (n x d_in)")
    _path_flag(adapt, "--y", "reads", help="target matrix CSV (n x d_out)")
    adapt.add_argument("--method", choices=["closed-form", "gd"], default="closed-form")
    _add(adapt, "--lr", float, real_in, *POSITIVE, default=None,
         help="gd step size (default: half the stability bound)")
    _add(adapt, "--epochs", int, int_at_least, 1, default=1000)
    _add(adapt, "--ridge", float, real_in, *NONNEGATIVE, default=0.0,
         help="ridge term added to the normal matrix")
    _path_flag(adapt, "--out", "writes", help="fitted coefficient container")
    _path_flag(adapt, "--report", "writes", help="fit report file")
    _add_format(adapt)
    adapt.set_defaults(func=cmd_adapt)

    memcalc = sub.add_parser("memcalc", help="storage ratio of an ensemble vs a subspace")
    _add(memcalc, "--t", int, int_at_least, 1, required=True, help="number of models")
    _add(memcalc, "--per-model", int, int_at_least, 1, required=True,
         help="parameters per full model")
    _add(memcalc, "--basis", int, int_at_least, 0, required=True,
         help="parameters in the shared basis")
    _add(memcalc, "--coeffs", int, int_at_least, 0, required=True,
         help="coefficient parameters per model")
    _add(memcalc, "--mean", int, int_at_least, 0, default=0, help="parameters in the stored means")
    memcalc.set_defaults(func=cmd_memcalc)

    theory_parser = sub.add_parser("theory", help="synthetic convergence experiments")
    theory_sub = theory_parser.add_subparsers(dest="theory_command", required=True,
                                              metavar="SUBCOMMAND")

    converge = theory_sub.add_parser("converge",
                                     help="Monte-Carlo error curves over ensemble sizes")
    _add(converge, "--d", int, int_at_least, 1, required=True)
    _add(converge, "--k", int, int_at_least, 1, required=True)
    _add(converge, "--t-grid", _ints, theory.task_counts, required=True,
         help="comma-separated distinct ensemble sizes")
    _add(converge, "--trials", int, int_at_least, 1, required=True)
    _add(converge, "--eta", float, real_in, *NONNEGATIVE, default=0.0)
    _add(converge, "--b", float, real_in, *POSITIVE, default=None,
         help="norm bound (default derived from the spectrum)")
    _add(converge, "--spectrum", _floats, finite_entries, *NONNEGATIVE, default=None,
         help="planted eigenvalues, length k or d")
    _add(converge, "--delta", float, real_in, *OPEN_UNIT, default=0.05)
    _add(converge, "--seed", int, int_at_least, 0, default=0)
    converge.add_argument("--norm-mode", choices=theory.NORM_MODES, default="gaussian")
    converge.add_argument("--perturbation", choices=theory.PERTURBATIONS, default="isotropic")
    _add(converge, "--c1", float, real_in, *POSITIVE, default=1.0)
    _add(converge, "--c2", float, real_in, *POSITIVE, default=1.0)
    _path_flag(converge, "--out", "writes", help="report file")
    _add_format(converge)
    converge.set_defaults(func=cmd_theory_converge)

    bounds = theory_sub.add_parser("bounds", help="evaluate the two-level bound")
    _add(bounds, "--b", float, real_in, *POSITIVE, required=True)
    _add(bounds, "--delta", float, real_in, *OPEN_UNIT, required=True)
    _add(bounds, "--t", int, int_at_least, 1, required=True)
    _add(bounds, "--eta-bar", float, real_in, *NONNEGATIVE, required=True)
    _add(bounds, "--eta2-bar", float, real_in, *NONNEGATIVE, required=True)
    _add(bounds, "--gamma-k", float, real_in, *POSITIVE, default=None)
    _add(bounds, "--c1", float, real_in, *POSITIVE, default=1.0)
    _add(bounds, "--c2", float, real_in, *POSITIVE, default=1.0)
    bounds.set_defaults(func=cmd_theory_bounds)

    dk = theory_sub.add_parser("dk-check",
                               help="random projector-perturbation inequality check")
    _add(dk, "--d", int, int_at_least, 1, required=True)
    _add(dk, "--k", int, int_at_least, 1, required=True)
    _add(dk, "--perturb", float, real_in, *POSITIVE, required=True,
         help="operator-norm size of the perturbation")
    _add(dk, "--trials", int, int_at_least, 1, default=100)
    _add(dk, "--seed", int, int_at_least, 0, default=0)
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
        _check_paths(args)
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NumericalFailureError, DegenerateSpectrumError,
            RankDeficiencyError, InternalConsistencyError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ContainerError, InvalidArgumentError, OSError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"data error: not enough memory: {exc or 'allocation failed'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
