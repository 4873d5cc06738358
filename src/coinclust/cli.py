"""Batch command-line front end.

Subcommands wire the pipeline end to end: ``features`` writes per-coin
feature tables, ``cluster`` writes assignment JSON, ``report`` writes the
full bundle with plots, and ``fetch-stub`` prints the upstream URLs that a
manual data refresh would use (no network access happens here).

Exit codes: 0 success, 1 data error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

from .characteristics import DAYS_PER_FIT_STEP, LYAPUNOV_FIT_STEPS
from .clustering import assemble_features
from .config import ALL_METRICS, RunConfig, load_config
from .errors import CoinclustError, ConfigError, NoSeriesLoadedError
from .ingest import Dataset, Metric, build_dataset, load_profiles, source_url
from .report import MetricSection, analyze_metric, emit_plots, report_run


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coinclust",
        description="Characteristic-based spectral clustering of daily crypto series.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    default = RunConfig()

    def add_common(p):
        p.add_argument("--config", help="JSON config file; flags override its values")
        p.add_argument("--data-dir", dest="data_dir", help="directory of <coin>.<metric>.csv files")
        p.add_argument("--profiles", dest="profiles_path", help="mechanism profiles file")
        p.add_argument("--metric", action="append", dest="metrics", choices=ALL_METRICS,
                       help="metric to process (repeatable; default: all)")
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

    p_feat = sub.add_parser("features", help="write per-coin feature CSVs")
    add_common(p_feat)
    p_feat.set_defaults(func=cmd_features)

    p_clus = sub.add_parser("cluster", help="write cluster assignment JSON per metric")
    add_common(p_clus)
    p_clus.set_defaults(func=cmd_cluster)

    p_rep = sub.add_parser("report", help="write the full report bundle with plots")
    add_common(p_rep)
    p_rep.set_defaults(func=cmd_report)

    p_fetch = sub.add_parser("fetch-stub", help="print upstream chart URLs (no fetching)")
    add_common(p_fetch)
    p_fetch.add_argument("--coin", help="limit to one coin")
    p_fetch.set_defaults(func=cmd_fetch_stub)

    return parser


_CONFIG_KEYS = tuple(f.name for f in fields(RunConfig))


def config_from_args(args: argparse.Namespace) -> RunConfig:
    overrides = {key: getattr(args, key) for key in _CONFIG_KEYS}
    return load_config(args.config, overrides)


def build_datasets(cfg: RunConfig) -> tuple[dict[str, Dataset], list[str]]:
    """One dataset per requested metric; metrics with no files become notes."""
    datasets: dict[str, Dataset] = {}
    notes: list[str] = []
    for name in cfg.metrics:
        metric = Metric(name)
        try:
            datasets[name] = build_dataset(
                cfg.data_dir, cfg.resolved_profiles_path(), metric, min_len=cfg.min_series_len
            )
        except NoSeriesLoadedError:
            notes.append(f"{name}: no series files found")
    if not datasets:
        raise NoSeriesLoadedError(f"no series for any requested metric under {cfg.data_dir}")
    return datasets, notes


def _out_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_clusters_json(section: MetricSection, out: Path) -> Path:
    """Write ``clusters.<metric>.json``: the assignment plus the coins left out."""
    payload = section.assignment.as_dict()
    payload["excluded"] = section.excluded
    payload["missing"] = section.missing
    path = out / f"clusters.{section.metric}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def cmd_features(cfg: RunConfig, args) -> int:
    out = _out_dir(cfg)
    datasets, notes = build_datasets(cfg)
    for note in notes:
        print(f"note: {note}")
    for name, dataset in sorted(datasets.items()):
        matrix = assemble_features(dataset, cfg)
        path = out / f"features.{name}.csv"
        lines = ["coin_id," + ",".join(matrix.column_names)]
        for coin_id, row in zip(matrix.coin_ids, matrix.rows):
            lines.append(coin_id + "," + ",".join(repr(float(v)) for v in row))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        skipped = "".join(f"\n  skipped {c}: {why}" for c, why in sorted(matrix.excluded.items()))
        print(f"{path}: {len(matrix.coin_ids)} coins, {len(matrix.column_names)} columns{skipped}")
    return 0


def cmd_cluster(cfg: RunConfig, args) -> int:
    out = _out_dir(cfg)
    datasets, notes = build_datasets(cfg)
    for note in notes:
        print(f"note: {note}")
    for name in sorted(datasets):
        section = analyze_metric(datasets[name], cfg)
        path = _write_clusters_json(section, out)
        assignment = section.assignment
        sizes = [len(c) for c in assignment.clusters()]
        print(f"{path}: k={assignment.k} sizes={sizes} flags={list(assignment.flags)}")
    return 0


def cmd_report(cfg: RunConfig, args) -> int:
    out = _out_dir(cfg)
    datasets, notes = build_datasets(cfg)
    report = report_run(datasets, cfg)
    (out / "report.json").write_text(report.to_json(), encoding="utf-8")
    (out / "report.md").write_text(report.to_markdown(), encoding="utf-8")
    for name, section in sorted(report.sections.items()):
        if section.error is not None:
            print(f"{name}: failed ({section.error})")
            continue
        emit_plots(section.projection, section.assignment, out)
        _write_clusters_json(section, out)
        print(f"{name}: k={section.assignment.k} " +
              " ".join(f"purity[{a}]={v:.2f}" for a, v in sorted(section.crosstab.purity.items())))
    for note in notes:
        print(f"note: {note}")
    print(f"report written to {out}")
    return 0


def cmd_fetch_stub(cfg: RunConfig, args) -> int:
    profiles = load_profiles(cfg.resolved_profiles_path())
    coins = [args.coin] if getattr(args, "coin", None) else sorted(profiles)
    print("# no fetching is performed; these are the conventional source pages")
    for coin in coins:
        for name in cfg.metrics:
            print(source_url(coin, Metric(name)))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = config_from_args(args)
        return args.func(cfg, args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CoinclustError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
