"""Batch command-line front end.

``features``, ``cluster`` and ``report`` run one pipeline: each requested
metric's dataset goes through ``report_run`` (features, clustering,
crosstab and projection), and the commands differ only in what they write.
``features`` writes per-coin feature tables, ``cluster`` writes assignment
JSON, and ``report`` writes the full bundle with plots.  A metric that
fails fails alone, and a command still writes what that metric computed
before the failure; a command that writes no per-metric file exits 1.
``fetch-stub`` prints the upstream URLs that a manual data refresh would
use (no network access happens here).

Exit codes: 0 success, 1 data error, 2 usage error (a bad flag, parameter
or config file).  Any other exception is a bug and ends in a traceback.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

from .characteristics import DAYS_PER_FIT_STEP, LYAPUNOV_FIT_STEPS
from .config import RunConfig, load_config
from .errors import CoinclustError, ConfigError, NoSeriesLoadedError
from .ingest import METRICS, Dataset, build_dataset, load_profiles, source_url
from .report import MetricSection, emit_plots, report_run


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coinclust",
        description="Characteristic-based spectral clustering of daily crypto series.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    default = RunConfig()

    def add_inputs(p):
        p.add_argument("--config", help="JSON config file; flags override its values")
        p.add_argument("--data-dir", dest="data_dir", help="directory of <coin>.<metric>.csv files")
        p.add_argument("--profiles", dest="profiles_path", help="mechanism profiles file")
        p.add_argument("--metric", action="append", dest="metrics", choices=METRICS,
                       help="metric to process (repeatable; default: all)")

    def add_common(p):
        add_inputs(p)
        p.add_argument("--sigma", type=float, help="similarity bandwidth override (default: median heuristic)")
        for flag, dest, text in (
            ("--bins", "spectrum_bins", "spectrum bins"),
            ("--k-max", "k_max", "largest cluster count tried"),
            ("--seed", "seed", "random seed for k-means restarts"),
            ("--min-series-len", "min_series_len", "minimum retained rows per series"),
            ("--dfa-min-window", "dfa_min_window", "smallest detrending window"),
            ("--dfa-max-window-frac", "dfa_max_window_frac", "largest detrending window as a fraction of n"),
            ("--embedding-dim", "embedding_dim", "delay-embedding dimension for the chaos estimate"),
            ("--embedding-delay", "embedding_delay", "delay-embedding lag"),
        ):
            value = getattr(default, dest)
            p.add_argument(flag, dest=dest, type=type(value), help=f"{text} (default {value})")
        p.add_argument("--lyap-fit-steps", dest="lyapunov_max_fit_steps", type=int,
                       help="divergence-fit extent, at least 3 "
                            f"(default min({LYAPUNOV_FIT_STEPS}, n/{DAYS_PER_FIT_STEP}))")
        p.add_argument("--out", dest="output_dir",
                       help=f"output directory (default ./{default.output_dir})")

    for name, text, write in (
        ("features", "write per-coin feature CSVs", _write_features),
        ("cluster", "write cluster assignment JSON per metric", _write_clusters),
        ("report", "write the full report bundle with plots", _write_bundle),
    ):
        p = sub.add_parser(name, help=text)
        add_common(p)
        p.set_defaults(func=run_pipeline, write=write)

    p_fetch = sub.add_parser("fetch-stub", help="print upstream chart URLs (no fetching)")
    add_inputs(p_fetch)
    p_fetch.add_argument("--coin", help="limit to one coin")
    p_fetch.set_defaults(func=cmd_fetch_stub)

    return parser


def build_datasets(cfg: RunConfig) -> tuple[dict[str, Dataset], list[str]]:
    """One dataset per requested metric; metrics with no files become notes."""
    datasets: dict[str, Dataset] = {}
    notes: list[str] = []
    for name in cfg.metrics:
        try:
            datasets[name] = build_dataset(cfg.data_dir, cfg.resolved_profiles_path(), name)
        except NoSeriesLoadedError:
            notes.append(f"{name}: no series files found")
    if not datasets:
        raise NoSeriesLoadedError(f"no series for any requested metric under {cfg.data_dir}")
    return datasets, notes


def _write_features(section: MetricSection, out: Path) -> str | None:
    """Write ``features.<metric>.csv`` if the metric got as far as features."""
    matrix = section.features
    if matrix is None:
        return None
    path = out / f"features.{section.metric}.csv"
    lines = ["coin_id," + ",".join(matrix.column_names)]
    for coin_id, row in zip(matrix.coin_ids, matrix.rows):
        lines.append(coin_id + "," + ",".join(repr(float(v)) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    skipped = "".join(f"\n  skipped {c}: {why}" for c, why in sorted(matrix.excluded.items()))
    return f"{path}: {len(matrix.coin_ids)} coins, {len(matrix.column_names)} columns{skipped}"


def _write_clusters(section: MetricSection, out: Path) -> str | None:
    """Write ``clusters.<metric>.json``: the assignment plus the coins left out."""
    if section.error is not None:
        return None
    assignment = section.assignment
    payload = assignment.as_dict()
    payload["excluded"] = section.features.excluded
    payload["missing"] = section.missing
    path = out / f"clusters.{section.metric}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    sizes = [len(c) for c in assignment.clusters()]
    return f"{path}: k={assignment.k} sizes={sizes} flags={list(assignment.flags)}"


def _write_bundle(section: MetricSection, out: Path) -> str | None:
    """Write a metric's plots and ``clusters.<metric>.json``."""
    if section.error is not None:
        return None
    emit_plots(section.projection, section.assignment, out)
    _write_clusters(section, out)
    return (f"{section.metric}: k={section.assignment.k} " +
            " ".join(f"purity[{a}]={v:.2f}" for a, v in section.crosstab.purity.items()))


def run_pipeline(cfg: RunConfig, args) -> int:
    """Run every requested metric, then write what the command asks for.

    ``report`` also writes ``report.json`` and ``report.md``, failed
    sections included.  A run that wrote no per-metric file is an error.
    """
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    datasets, notes = build_datasets(cfg)
    report = report_run(datasets, cfg)
    if args.command == "report":
        (out / "report.json").write_text(report.to_json(), encoding="utf-8")
        (out / "report.md").write_text(report.to_markdown(), encoding="utf-8")
    failed = []
    for name, section in report.sections.items():
        line = args.write(section, out)
        if line is None:
            line = f"{name}: failed ({section.error})"
            failed.append(line)
        print(line)
    for note in notes:
        print(f"note: {note}")
    if len(failed) == len(report.sections):
        raise CoinclustError("no metric produced output; " + "; ".join(failed))
    return 0


def cmd_fetch_stub(cfg: RunConfig, args) -> int:
    profiles = load_profiles(cfg.resolved_profiles_path())
    if args.coin is not None and args.coin not in profiles:
        raise CoinclustError(f"{cfg.resolved_profiles_path().name}: no profile for coin {args.coin!r}")
    print("# no fetching is performed; these are the conventional source pages")
    for coin in [args.coin] if args.coin is not None else sorted(profiles):
        for name in cfg.metrics:
            print(source_url(coin, name))
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # a field the command takes no flag for (fetch-stub) stays unset
        cfg = load_config(args.config, {f.name: getattr(args, f.name, None) for f in fields(RunConfig)})
        return args.func(cfg, args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CoinclustError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
