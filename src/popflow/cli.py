"""Command-line entry point.

Subcommands: validate, gen-data, train, popf, compare. Every run is driven
by a JSON config file; ``--set section.key=value`` flags override individual
entries (values parse as JSON, falling back to plain strings).

Exit codes: 0 success, 1 domain failure (solver, training, validation, a
corrupt checkpoint or dataset), 2 usage or I/O failure (a case or config
that is not UTF-8 text too). Console tables print 6 significant digits;
machine files carry 17.

Config keys (all optional except ``case``, ``sampling.n_train`` for
``gen-data`` and ``sampling.n_mcs`` for ``popf`` without ``--samples``)::

    {
      "case": "path/to/case.json",
      "output_dir": "out",
      "dataset_dir": "out/dataset",        # default: <output_dir>/dataset
      "checkpoint": "out/model.ckpt",      # default: <output_dir>/model.ckpt
      "train": { ... TrainConfig fields ... },
      "sampling": {"n_train": 20000, "n_mcs": 10000, "seed": 0,  # compare: n_mcs >= 2
                   "correlation": {"group_name": [[...], ...]}},
      "report": {"bins": 50, "density_indexes": ["cost", "v_mag:8"]}  # []: no density tables
    }
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from . import pipeline, sdae
from .errors import PopflowError, SchemaError, ValidationError
from .grid import load_case
from .ioutil import write_tsv
from .sampling import CorrelationSpec

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2


# ---------------------------------------------------------------------------
# config handling


def load_config(path: str, overrides) -> dict:
    try:
        cfg = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}")
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise UsageError(f"config {path} is not valid UTF-8 JSON: {exc}")
    if not isinstance(cfg, dict):
        raise UsageError(f"config {path} must be a JSON object")
    for item in overrides or []:
        if "=" not in item:
            raise UsageError(f"override {item!r} must look like section.key=value")
        dotted, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = cfg
        parts = dotted.split(".")
        for key in parts[:-1]:
            node = node.setdefault(key, {})
            if not isinstance(node, dict):
                raise UsageError(f"override {dotted!r} descends into a non-object")
        node[parts[-1]] = value
    _check_shapes(cfg)
    return cfg


class UsageError(Exception):
    pass


def _check_shapes(cfg: dict) -> None:
    """Refuse a path that is not a string, a section that is not an object
    and a correlation that is not an object of square matrices, before any
    case load, draw or write."""
    for key in ("case", "output_dir", "dataset_dir", "checkpoint"):
        if key in cfg and not isinstance(cfg[key], str):
            raise UsageError(f"{key} must be a path string, got {cfg[key]!r}")
    for key in ("train", "sampling", "report"):
        if not isinstance(cfg.get(key, {}), dict):
            raise UsageError(f"{key} must be a JSON object, got {cfg[key]!r}")
    matrices = cfg.get("sampling", {}).get("correlation")
    if matrices is not None and not isinstance(matrices, dict):
        raise UsageError(f"sampling.correlation must be a JSON object of group matrices, "
                         f"got {matrices!r}")
    for name, matrix in (matrices or {}).items():
        if not (isinstance(matrix, list) and matrix and all(
                isinstance(row, list) and len(row) == len(matrix)
                and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in row)
                for row in matrix)):
            raise UsageError(f"sampling.correlation.{name} must be a square matrix of "
                             f"numbers, got {matrix!r}")


def _require_case(cfg: dict):
    """The config's case, which the commands that load it all sample: a case
    without stochastic sources is refused before any draw or write."""
    case_path = cfg.get("case")
    if not case_path:
        raise UsageError("config is missing the 'case' path")
    try:
        case = load_case(case_path)
    except OSError as exc:
        raise UsageError(f"cannot read case {case_path}: {exc}")
    if case.n_sources == 0:
        raise UsageError(f"case {case_path} has no stochastic sources to sample")
    return case


def _paths(cfg: dict):
    out_dir = Path(cfg.get("output_dir", "out"))
    dataset_dir = Path(cfg.get("dataset_dir", out_dir / "dataset"))
    checkpoint = Path(cfg.get("checkpoint", out_dir / "model.ckpt"))
    return out_dir, dataset_dir, checkpoint


def _sampling_int(cfg: dict, key: str, default: int | None, minimum: int) -> int:
    """``sampling.<key>`` (``default`` when unset; a key without a default
    is required) as an integer of at least ``minimum``; anything else is a
    usage error, raised before any case load, draw or write."""
    sampling = cfg.get("sampling", {})
    if key not in sampling and default is None:
        raise UsageError(f"config is missing sampling.{key}, an integer of at least {minimum}")
    value = sampling.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise UsageError(f"sampling.{key} must be an integer of at least {minimum}, "
                         f"got {value!r}")
    return value


def _train_config(cfg: dict) -> sdae.TrainConfig:
    try:
        return sdae.TrainConfig(**cfg.get("train", {}))
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad train config: {exc}")


def _correlation_spec(cfg: dict, case) -> CorrelationSpec | None:
    matrices = cfg.get("sampling", {}).get("correlation")
    if not matrices:
        return None
    try:
        return CorrelationSpec.for_case(case, matrices)
    except ValueError as exc:
        raise UsageError(f"bad correlation spec: {exc}")


def _report_options(cfg: dict, case) -> tuple:
    """``report.bins`` and ``report.density_indexes`` (default labels when
    unset), checked before any solve so that a bad value costs no work."""
    report_cfg = cfg.get("report", {})
    bins = report_cfg.get("bins", 50)
    if isinstance(bins, bool) or not isinstance(bins, int) or bins < 1:
        raise UsageError(f"report.bins must be a positive integer, got {bins!r}")
    labels = report_cfg.get("density_indexes")
    if labels is None:
        return bins, pipeline.default_density_labels(case)
    if not isinstance(labels, list):
        raise UsageError(f"report.density_indexes must be a list of output labels, "
                         f"got {labels!r}")
    known = pipeline.output_labels(case)
    for label in labels:
        if label not in known:
            raise UsageError(f"report.density_indexes: {label!r} is not an output "
                             f"label of the case (cost, v_mag:<bus>, p_gen:<i>, "
                             f"p_branch:<i>)")
    return bins, labels


# ---------------------------------------------------------------------------
# subcommands


def cmd_validate(args) -> int:
    try:
        load_case(args.case)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValidationError as exc:
        for v in exc.violations:
            print(v)
        return EXIT_DOMAIN
    return EXIT_OK


def cmd_gen_data(args) -> int:
    cfg = load_config(args.config, args.set)
    n = _sampling_int(cfg, "n_train", None, 1)
    seed = _sampling_int(cfg, "seed", 0, 0)
    case = _require_case(cfg)
    spec = _correlation_spec(cfg, case)
    _, dataset_dir, _ = _paths(cfg)

    dataset = pipeline.generate_training_data(case, n, seed, spec)
    pipeline.save_dataset(dataset, dataset_dir, case)
    print(f"wrote {dataset.n_rows} rows to {dataset_dir} "
          f"(dropped {dataset.provenance['dropped']} failed draws)")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = load_config(args.config, args.set)
    _, dataset_dir, checkpoint = _paths(cfg)
    train_cfg = _train_config(cfg)
    try:
        dataset = pipeline.load_dataset(dataset_dir)
    except OSError as exc:
        raise UsageError(f"cannot read dataset in {dataset_dir}: {exc}")
    if dataset.n_rows < 2 * train_cfg.batch_size:
        raise UsageError(f"dataset in {dataset_dir} has {dataset.n_rows} rows; train.batch_size "
                         f"{train_cfg.batch_size} needs at least {2 * train_cfg.batch_size}")

    start = time.perf_counter()
    model, history, pretrain_losses = pipeline.train_popf_model(dataset, train_cfg)
    elapsed = time.perf_counter() - start

    checkpoint.parent.mkdir(parents=True, exist_ok=True)
    sdae.save_model(model, checkpoint)
    sdae.save_history(history, checkpoint.with_suffix(".history.tsv"))
    sdae.save_pretrain_losses(pretrain_losses, checkpoint.with_suffix(".pretrain.tsv"))
    sdae.save_stop(history, train_cfg.patience, checkpoint.with_suffix(".stop.tsv"))

    best_epoch, reason = sdae.early_stop(history, train_cfg.patience)
    final = history[-1]
    print(f"trained {len(history)} epochs in {elapsed:.6g} s ({reason}); "
          f"best validation epoch {best_epoch}")
    print(f"final train loss {final[1]:.6g}, val loss {final[2]:.6g}, "
          f"best val loss {history[best_epoch][2]:.6g}")
    print(f"checkpoint: {checkpoint}")
    return EXIT_OK


def cmd_popf(args) -> int:
    cfg = load_config(args.config, args.set)
    seed = _sampling_int(cfg, "seed", 0, 0)
    n = None
    if not args.converge:
        n = args.samples if args.samples is not None else _sampling_int(cfg, "n_mcs", None, 1)
        if n < 1:
            raise UsageError(f"--samples must be at least 1, got {n}")
    case = _require_case(cfg)
    out_dir, _, checkpoint = _paths(cfg)
    spec = _correlation_spec(cfg, case)
    bins, density_labels = _report_options(cfg, case)

    model = sdae.load_model(checkpoint)
    labels = pipeline.output_labels(case)
    # a run of two or more rows keeps only its density columns; one row is its own statistics
    kept = labels if n == 1 else density_labels
    result = pipeline.run_popf(model, case, n_samples=n, spec=spec, seed=seed,
                               converge=args.converge,
                               columns=[labels.index(label) for label in kept])

    out_dir.mkdir(parents=True, exist_ok=True)
    stats_path = out_dir / "popf_stats.tsv"
    if result.n_samples < 2:
        write_tsv(stats_path, ["index", "mean", "std"],
                  zip(labels, result.values[0], ["degenerate"] * len(labels)))
        print(f"1 sample evaluated in {result.seconds:.6g} s; std fields are degenerate")
        return EXIT_OK

    stats = result.stats
    write_tsv(stats_path, ["index", "mean", "std"], zip(labels, stats.mean, stats.std))

    for label in density_labels:
        col = result.values[:, kept.index(label)]
        edges, (dens,) = pipeline.histogram_densities([col], bins)
        pipeline.save_density_table(out_dir, label, edges, {"density": dens})

    mode = f"converged at {result.n_samples}" if result.converged else f"{result.n_samples} samples"
    print(f"{mode} in {result.seconds:.6g} s; statistics in {stats_path}")
    print(f"cost mean {stats.mean[0]:.6g} $/h, std {stats.std[0]:.6g} $/h")
    return EXIT_OK


def cmd_compare(args) -> int:
    cfg = load_config(args.config, args.set)
    seed = _sampling_int(cfg, "seed", 0, 0)
    n = _sampling_int(cfg, "n_mcs", 10_000, 2)
    case = _require_case(cfg)
    out_dir, _, checkpoint = _paths(cfg)
    spec = _correlation_spec(cfg, case)
    bins, density_labels = _report_options(cfg, case)

    model = sdae.load_model(checkpoint)
    report = pipeline.compare_methods(case, model, spec=spec, seed=seed, n_samples=n,
                                      bins=bins, density_labels=density_labels,
                                      self_check=args.self_check)
    pipeline.save_report(report, out_dir)
    if report.self_check:
        print("self-check mode: surrogate outputs replaced by the oracle's")

    print(f"{report.n_samples} seed-matched samples (dropped {report.dropped})")
    print(f"{'method':<12}{'cost mean':>14}{'cost std':>12}{'e_mean %':>10}{'e_std %':>10}{'time s':>12}")
    for method in (pipeline.METHOD_ORACLE, pipeline.METHOD_SURROGATE, pipeline.METHOD_DC_ONLY):
        stats = report.stats[method]
        if method == pipeline.METHOD_ORACLE:
            e1 = e2 = 0.0
        else:
            err = report.errors[method]
            e1, e2 = 100 * err.e_mean[0], 100 * err.e_std[0]
        print(f"{method:<12}{stats.mean[0]:>14.6g}{stats.std[0]:>12.6g}"
              f"{e1:>10.4g}{e2:>10.4g}{report.timings[method]:>12.6g}")

    print()
    columns = [(cls, tau) for cls, d in report.errors[pipeline.METHOD_SURROGATE].exceedance.items()
               for tau in sorted(d, reverse=True)]
    print(f"{'method':<12}" + "".join(f"{cls}>{tau:g}".rjust(18) for cls, tau in columns))
    for method in (pipeline.METHOD_SURROGATE, pipeline.METHOD_DC_ONLY):
        exceedance = report.errors[method].exceedance
        print(f"{method:<12}" + "".join(f"{100 * exceedance[cls][tau]:.4g}%".rjust(18)
                                        for cls, tau in columns))
    print(f"\nreport files in {out_dir}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="popflow",
        description="Probabilistic optimal power flow via a neural surrogate "
                    "of an OPF oracle.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a case file against the schema and invariants")
    p.add_argument("case", help="path to a case JSON document")
    p.set_defaults(func=cmd_validate)

    for name, func, help_text in [
        ("gen-data", cmd_gen_data, "sample operating conditions and label them with the oracle"),
        ("train", cmd_train, "pretrain and fine-tune the surrogate on a dataset"),
        ("popf", cmd_popf, "Monte-Carlo POPF by batched surrogate inference"),
        ("compare", cmd_compare, "oracle vs surrogate vs dc-only on seed-matched samples"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("-c", "--config", required=True, help="JSON config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config entry, e.g. --set sampling.seed=7")
        if name == "popf":
            group = p.add_mutually_exclusive_group()
            group.add_argument("--samples", type=int, help="fixed sample count")
            group.add_argument("--converge", action="store_true",
                               help="stop when every index's variance coefficient "
                                    "is at or below 5%%, cap 50000 samples")
        if name == "compare":
            p.add_argument("--self-check", action="store_true",
                           help="replace the surrogate's outputs with the oracle's; "
                                "all error columns must come out zero")
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SchemaError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PopflowError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
