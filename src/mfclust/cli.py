"""Command line pipeline: transform, fit, simulate, and benchmark.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
A JSON config file, given before the command, can set any long option of
that command (underscored keys), required paths included; explicit flags
win. Each key is read as its flag with the value's text (a list in comma
form), so argparse checks it like the flag: a key that names no option of
the command, a value the flag refuses, or a null value exits 1. A bad search grid,
basis size, sweep (its --qc included) or simulated design is a usage error,
raised before any input is read or output written; so are --jobs below 1,
a negative --seed, a --qc outside [1, --n-basis], --alpha or --beta
outside the component rule's ranges, and fit --scores with any transform
option. An input that cannot be read (a directory, a field too long for
csv) and an output path that is a directory or lies in a missing one exit
2, the latter before anything is read or written. A lambda multiplier
whose lambda overflows at n exits 2 from fit, once n is read, and 1 from
benchmark, as a bad sweep; neither writes anything.

Options per command (besides the input and output paths):
  transform  --n-basis --order, and --qc or the --alpha/--beta rule
  fit        --penalty --seed --jobs, the transform options (with --input),
             and the --m-grid --gamma-grid --lambda-multipliers search grid
  simulate   --n --p-signal --p-noise --delta --seed
  benchmark  --scenario --reps --kinds --levels --qc --seed --jobs and the
             search grid
--jobs defaults to the CPU count and does not change any result; fit
--penalty a,b is one search of all its kinds, with one process pool. Every
EM fit converges when a plain EM step moves its parameters by at most 1e-4
(Euclidean norm), and stops after at most 500 EM maps.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from dataclasses import fields, replace

from mfclust.basis import build_basis, check_size
from mfclust.dataio import (
    DataFormatError,
    ModelBundle,
    read_long_csv,
    read_scores_csv,
    record_writer,
    write_assignments,
    write_benchmark_rows,
    write_cluster_means,
    write_long_csv,
    write_model,
    write_removed,
    write_scores_csv,
    write_truth,
)
from mfclust.em import NumericalError, PENALTY_KINDS
from mfclust.fpca import check_q_c, check_rule, fit_fpca, standardize
from mfclust.select import (
    DEFAULT_GAMMA_VALUES,
    DEFAULT_LAMBDA_MULTIPLIERS,
    DEFAULT_M_VALUES,
    SearchGrid,
    model_search,
    row_sort_key,
)
from mfclust.simbench import (
    DEFAULT_KINDS,
    SCENARIOS,
    ReplicateRecord,
    SimulationDesign,
    generate_dataset,
    run_scenario,
    scenario_levels,
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise UsageError(f"expected comma-separated integers, got {text!r}") from None


def _float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError:
        raise UsageError(f"expected comma-separated numbers, got {text!r}") from None


def _positive_int(text: str) -> int:
    if not text.strip().isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _nonnegative_int(text: str) -> int:
    if not text.strip().isdigit():
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return int(text)


def _kind_list(text: str) -> tuple[str, ...]:
    kinds = tuple(k.strip() for k in text.split(","))
    for k in kinds:
        if k not in PENALTY_KINDS:
            raise UsageError(f"unknown penalty kind {k!r}; choose from {PENALTY_KINDS}")
    if len(set(kinds)) < len(kinds):
        raise UsageError(f"penalty kinds must not repeat, got {text!r}")
    return kinds


def build_parser() -> _Parser:
    parser = _Parser(prog="mfclust", description=__doc__, allow_abbrev=False,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--config", help="JSON file of option defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=_nonnegative_int, default=0)
    common.add_argument("--jobs", type=_positive_int, default=os.cpu_count() or 1,
                        help="parallel workers")

    basis_opts = argparse.ArgumentParser(add_help=False)
    basis_opts.add_argument("--n-basis", type=int, default=None, help="B-spline basis size (default 12)")
    basis_opts.add_argument("--order", type=int, default=None, help="B-spline order (default 3)")

    qc_opts = argparse.ArgumentParser(add_help=False)
    qc_opts.add_argument("--qc", type=int, default=None, help="components per sensor")
    qc_opts.add_argument("--alpha", type=float, default=None,
                         help="sensor share for the component rule (default 0.8)")
    qc_opts.add_argument("--beta", type=float, default=None,
                         help="variance share for the component rule (default 0.8)")

    grid_opts = argparse.ArgumentParser(add_help=False)
    grid_opts.add_argument("--m-grid", type=_int_list, default=DEFAULT_M_VALUES)
    grid_opts.add_argument("--gamma-grid", type=_float_list, default=DEFAULT_GAMMA_VALUES)
    grid_opts.add_argument("--lambda-multipliers", type=_float_list,
                           default=DEFAULT_LAMBDA_MULTIPLIERS)

    p = sub.add_parser("transform", parents=[basis_opts, qc_opts],
                       help="reduce curves to per-sensor component scores")
    p.add_argument("--input", required=True)
    p.add_argument("--scores", required=True)
    p.add_argument("--model", required=True)

    p = sub.add_parser("fit", parents=[common, basis_opts, qc_opts, grid_opts],
                       help="cluster scores with penalized mixtures")
    p.add_argument("--input", help="raw long CSV (transformed on the fly)")
    p.add_argument("--scores", help="score CSV from the transform step")
    p.add_argument("--report", required=True, help="output model JSON")
    p.add_argument("--assignments", required=True, help="output assignments CSV")
    p.add_argument("--removed", required=True, help="output removed-sensor list")
    p.add_argument("--cluster-means", help="tidy CSV of per-cluster mean curves (needs --input)")
    p.add_argument("--penalty", type=_kind_list, default=("group",))

    p = sub.add_parser("simulate", help="write a synthetic dataset")
    p.add_argument("--seed", type=_nonnegative_int, default=SimulationDesign.seed)
    p.add_argument("--n", type=int, default=SimulationDesign.n)
    p.add_argument("--p-signal", type=int, default=SimulationDesign.p_signal)
    p.add_argument("--p-noise", type=int, default=SimulationDesign.p_noise)
    p.add_argument("--delta", type=float, default=SimulationDesign.delta)
    p.add_argument("--output", required=True)
    p.add_argument("--truth", required=True)

    p = sub.add_parser("benchmark", parents=[common, grid_opts], help="run a factor sweep")
    p.add_argument("--scenario", required=True, choices=sorted(SCENARIOS))
    p.add_argument("--reps", type=int, default=50)
    p.add_argument("--kinds", type=_kind_list, default=DEFAULT_KINDS)
    p.add_argument("--levels", type=_float_list, default=None)
    p.add_argument("--qc", type=int, default=3)
    p.add_argument("--output", required=True, help="aggregate rows CSV")
    p.add_argument("--replicates", required=True, help="per-replicate CSV")
    return parser


def _flag_text(value) -> str:
    """A JSON config value as its flag's text: a list in comma form."""
    if isinstance(value, str):
        return value
    return ",".join(map(str, value)) if isinstance(value, list) else str(value)


def _grid_from(args) -> SearchGrid:
    try:
        return SearchGrid(args.m_grid, args.gamma_grid, args.lambda_multipliers)
    except ValueError as exc:
        raise UsageError(f"bad search grid: {exc}") from None


def _check_distinct_outputs(args, *dests, inputs=()) -> None:
    """Refuse an output option naming an input file, another output's file,
    a directory or a file in a missing directory, before anything is read
    or written."""
    seen: dict[str, str] = {}
    for dest in (*inputs, *dests):
        path = getattr(args, dest)
        if path is None:
            continue
        if dest in dests and os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        if dest in dests and not os.path.isdir(os.path.dirname(path) or os.curdir):
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
        flag = "--" + dest.replace("_", "-")
        real = os.path.realpath(path)
        if real in seen and dest in dests:
            raise UsageError(f"{seen[real]} and {flag} name the same file {path}")
        seen[real] = flag


def _transform_pipeline(args):
    if args.qc is not None and (args.alpha is not None or args.beta is not None):
        raise UsageError("give either --qc or the --alpha/--beta rule, not both")
    alpha = 0.8 if args.alpha is None else args.alpha
    beta = 0.8 if args.beta is None else args.beta
    n_basis = 12 if args.n_basis is None else args.n_basis
    order = 3 if args.order is None else args.order
    try:
        check_size(n_basis, order)
    except ValueError as exc:
        raise UsageError(f"bad basis: {exc}") from None
    try:
        # q_c <= n - 1 depends on the curves, so fit_fpca checks that bound
        if args.qc is not None:
            check_q_c(args.qc, n_basis)
        check_rule(alpha, beta)
    except ValueError as exc:
        raise UsageError(f"bad component count: {exc}") from None
    data, stats = standardize(read_long_csv(args.input))
    basis = build_basis(float(data.times[0]), float(data.times[-1]), n_basis, order)
    models, B = fit_fpca(data, basis, q_c=args.qc, alpha=alpha, beta=beta, standardization=stats)
    return data, models, B


def _print_variance_table(models):
    q_c = models[0].q_c
    header = "sensor      " + "  ".join(f"pc{l + 1:>2}" for l in range(q_c))
    print(header)
    for m in models:
        cells = "  ".join(f"{v:.2f}" for v in m.variance_explained)
        print(f"{m.sensor:<12}{cells}")


def cmd_transform(args) -> int:
    _check_distinct_outputs(args, "scores", "model", inputs=("input",))
    data, models, B = _transform_pipeline(args)
    write_scores_csv(B, args.scores, data.obs_ids)
    write_model(ModelBundle(fpca_models=models), args.model)
    print(f"n={data.n} sensors={data.p} components={B.q_c} (q={B.q})")
    _print_variance_table(models)
    return 0


def cmd_fit(args) -> int:
    if bool(args.input) == bool(args.scores):
        raise UsageError("give exactly one of --input or --scores")
    if args.cluster_means and not args.input:
        raise UsageError("--cluster-means needs raw curves (--input)")
    if args.scores and (args.n_basis, args.order, args.qc, args.alpha, args.beta) != (None,) * 5:
        raise UsageError("--n-basis, --order, --qc, --alpha and --beta need raw curves (--input)")
    _check_distinct_outputs(
        args, "report", "assignments", "removed", "cluster_means", inputs=("input", "scores")
    )
    grid = _grid_from(args)
    models = None
    if args.input:
        data, models, B = _transform_pipeline(args)
        obs_ids = data.obs_ids
    else:
        B, obs_ids = read_scores_csv(args.scores)

    reports = model_search(B, grid, args.penalty, seed=args.seed, n_jobs=args.jobs)
    if failed := [r for r in reports if isinstance(r, NumericalError)]:
        raise failed[0]  # the first failing kind, in --penalty order
    # min keeps the first of equal keys: a tie goes to the kind listed first
    best = replace(
        min(reports, key=lambda r: row_sort_key(r.best_row)),
        rows=[row for r in reports for row in r.rows],
    )
    write_model(ModelBundle.from_report(best, fpca_models=models), args.report)
    write_assignments(best.best_fit, args.assignments, obs_ids)
    removed = sorted(best.best_fit.removed_sensors)
    write_removed(removed, args.removed)
    if args.cluster_means:
        write_cluster_means(models, best.best_fit.params, args.cluster_means)
    m, lam, gamma, kind = best.chosen
    print(f"chosen: kind={kind} m={m} lambda={lam:.4g} gamma={gamma:g}")
    print(f"removed {len(removed)} of {B.p} sensors: {', '.join(removed) if removed else '(none)'}")
    return 0


def cmd_simulate(args) -> int:
    _check_distinct_outputs(args, "output", "truth")
    try:
        design = SimulationDesign(**{f.name: getattr(args, f.name) for f in fields(SimulationDesign)})
    except ValueError as exc:
        raise UsageError(f"bad design: {exc}") from None
    data = generate_dataset(design)
    write_long_csv(data, args.output)
    write_truth(design, data, args.truth)
    print(
        f"simulated n={design.n} sensors={design.p} "
        f"(signal={design.p_signal}, noise={design.p_noise}) delta={design.delta} "
        f"seed={design.seed}"
    )
    return 0


def cmd_benchmark(args) -> int:
    _check_distinct_outputs(args, "output", "replicates")
    grid = _grid_from(args)
    try:
        scenario_levels(args.scenario, args.reps, args.levels, args.qc, grid)
    except ValueError as exc:
        raise UsageError(f"bad sweep: {exc}") from None

    # each replicate's row is written as it finishes
    with record_writer(ReplicateRecord, args.replicates) as stream:
        rows, _ = run_scenario(
            args.scenario,
            reps=args.reps,
            kinds=args.kinds,
            seed=args.seed,
            levels=args.levels,
            q_c=args.qc,
            grid=grid,
            n_jobs=args.jobs,
            on_record=stream,
        )
    write_benchmark_rows(rows, args.output)

    print(f"{'level':>8}  {'penalty':<12} {'MAE(m)':>7} {'vars rm':>8} {'rm ok':>6} {'rm bad':>7} {'ARI med':>8}")
    for row in rows:
        print(
            f"{row.level:>8g}  {row.kind:<12} {row.mae_m:>7.2f} "
            f"{row.mean_variables_removed:>8.2f} {row.mean_removed_correctly:>6.2f} "
            f"{row.mean_removed_falsely:>7.2f} {row.ari_median:>8.2f}"
        )
    return 0


_COMMANDS = {
    "transform": cmd_transform,
    "fit": cmd_fit,
    "simulate": cmd_simulate,
    "benchmark": cmd_benchmark,
}


def _with_config(argv: list[str]) -> list[str]:
    """argv with the --config file's keys spliced in as flags right after
    the command, so argparse checks their names and values like typed
    flags, and flags typed after the command still win."""
    path, i = None, 0
    while i < len(argv) and argv[i].startswith("-"):  # argparse takes --config only before the command
        if argv[i] == "--config":
            if i + 1 >= len(argv):
                raise UsageError("--config needs a file path")
            path = argv[i + 1]
            i += 1
        elif argv[i].startswith("--config="):
            path = argv[i].split("=", 1)[1]
        i += 1
    if path is None or i == len(argv):
        return argv
    # config values use natural JSON types (lists, numbers, strings)
    with open(path, encoding="utf-8") as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise UsageError(f"config file {path} must hold a JSON object")
    flags = []
    for key, value in config.items():
        if value is None:
            raise UsageError(f"config key {key!r} is null; leave it out to keep the default")
        flags.append(f"--{key.replace('_', '-')}={_flag_text(value)}")
    return argv[:i + 1] + flags + argv[i + 1:]


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if hasattr(sys.stdout, "reconfigure"):  # a sensor name the terminal cannot encode prints escaped
        sys.stdout.reconfigure(errors="backslashreplace")
    try:
        args = build_parser().parse_args(_with_config(argv))
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (DataFormatError, OSError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
