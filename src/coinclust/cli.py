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

    def add_common(p):
        p.add_argument("--config", help="JSON config file; flags override its values")
        p.add_argument("--data-dir", dest="data_dir", help="directory of <coin>.<metric>.csv files")
        p.add_argument("--profiles", dest="profiles_path", help="mechanism profiles file")
        p.add_argument("--metric", action="append", dest="metrics", choices=ALL_METRICS,
                       help="metric to process (repeatable; default: all)")
        p.add_argument("--bins", dest="spectrum_bins", type=int, help="spectrum bins (default 200)")
        p.add_argument("--k-max", dest="k_max", type=int, help="largest cluster count tried (default 6)")
        p.add_argument("--seed", type=int, help="random seed for k-means restarts (default 42)")
        p.add_argument("--sigma", type=float, help="similarity bandwidth override (default: median heuristic)")
        p.add_argument("--min-series-len", dest="min_series_len", type=int,
                       help="minimum retained rows per series (default 30)")
        p.add_argument("--dfa-min-window", dest="dfa_min_window", type=int,
                       help="smallest detrending window (default 4)")
        p.add_argument("--dfa-max-window-frac", dest="dfa_max_window_frac", type=float,
                       help="largest detrending window as a fraction of n (default 0.25)")
        p.add_argument("--embedding-dim", dest="embedding_dim", type=int,
                       help="delay-embedding dimension for the chaos estimate (default 3)")
        p.add_argument("--embedding-delay", dest="embedding_delay", type=int,
                       help="delay-embedding lag (default 1)")
        p.add_argument("--lyap-fit-steps", dest="lyapunov_max_fit_steps", type=int,
                       help="divergence-fit extent, at least 3 (default min(20, n/50))")
        p.add_argument("--out", dest="output_dir", help="output directory (default ./out)")

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
        matrix = assemble_features(dataset, cfg.spectrum_bins, cfg.characteristics())
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
