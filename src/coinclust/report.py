"""Cluster/mechanism cross-tabulation and run-level reporting.

The crosstab renders the qualitative question "do coins in one cluster
share mechanism attributes?" as modal-share purity numbers, reported but
never judged against a threshold.  ``report_run`` bundles clustering,
crosstab and projection for every requested metric into one deterministic,
JSON-serializable report.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from .clustering import (
    ClusterAssignment, FeatureMatrix, assemble_features, characteristics_by_metric, select_k_and_cluster,
    standardize,
)
from .config import RunConfig
from .errors import CoinclustError
from .ingest import Dataset, MechanismProfile
from .projection import Projection3D, pca3

CROSSTAB_ATTRIBUTES = (
    "fork_origin",
    "consensus",
    "hashing_algorithm",
    "difficulty_adjustment_blocks",
    "block_size_limit_kind",
)


@dataclass
class MechanismCrosstab:
    metric: str
    k: int
    rows: list[dict]          # one entry per cluster
    purity: dict[str, float]  # attribute -> size-weighted mean modal share

    def as_dict(self) -> dict:
        return {"metric": self.metric, "k": self.k, "rows": self.rows, "purity": self.purity}

    def to_markdown(self) -> str:
        lines = [
            f"### {self.metric} (k = {self.k})",
            "",
            "| cluster | size | coins | " + " | ".join(CROSSTAB_ATTRIBUTES) + " |",
            "| --- | --- | --- | " + " | ".join("---" for _ in CROSSTAB_ATTRIBUTES) + " |",
        ]
        for row in self.rows:
            cells = [str(row["cluster_id"]), str(row["size"]), ", ".join(row["coins"])]
            for attr in CROSSTAB_ATTRIBUTES:
                counts = row["attributes"][attr]
                cells.append(", ".join(f"{v} x{c}" if c > 1 else v for v, c in sorted(counts.items())))
            # a profile token may hold "|" or a backslash; escaped, neither ends its table cell
            lines.append("| " + " | ".join(cell.replace("\\", "\\\\").replace("|", r"\|") for cell in cells) + " |")
        lines.append("")
        lines.append(
            "purity: " + ", ".join(f"{a} {self.purity[a]:.3f}" for a in CROSSTAB_ATTRIBUTES)
        )
        return "\n".join(lines)


def _attr_token(profile: MechanismProfile, attr: str) -> str:
    value = getattr(profile, attr)
    return "none" if value is None else str(value)


def crosstab(assignment: ClusterAssignment, profiles: dict[str, MechanismProfile]) -> MechanismCrosstab:
    """Per-cluster attribute tallies plus modal-share purity.

    Purity of an attribute within a cluster is the share of members holding
    the cluster's most common value; the reported overall purity is the mean
    over clusters weighted by cluster size.
    """
    missing = [c for c in assignment.coin_ids if c not in profiles]
    if missing:
        raise CoinclustError(f"no profiles for {missing}")
    rows = []
    weighted: dict[str, float] = {attr: 0.0 for attr in CROSSTAB_ATTRIBUTES}
    total = len(assignment.coin_ids)
    for cluster_id, coins in enumerate(assignment.clusters()):
        attributes = {}
        modal_share = {}
        for attr in CROSSTAB_ATTRIBUTES:
            counts = Counter(_attr_token(profiles[c], attr) for c in coins)
            attributes[attr] = dict(sorted(counts.items()))
            share = max(counts.values()) / len(coins)
            modal_share[attr] = share
            weighted[attr] += share * len(coins)
        rows.append(
            {
                "cluster_id": cluster_id,
                "size": len(coins),
                "coins": coins,
                "attributes": attributes,
                "modal_share": modal_share,
            }
        )
    purity = {attr: weighted[attr] / total for attr in CROSSTAB_ATTRIBUTES}
    return MechanismCrosstab(metric=assignment.metric, k=assignment.k, rows=rows, purity=purity)


# --- plot emission -------------------------------------------------------------

_PALETTE = ("#d62728", "#2ca02c", "#1f77b4", "#333333", "#17becf", "#9467bd")
_PANELS = ((0, 1), (0, 2), (1, 2))
_PANEL_SIZE = 320.0
_MARGIN = 42.0


def projection_csv_text(projection: Projection3D, assignment: ClusterAssignment) -> str:
    lines = ["coin_id,pc1,pc2,pc3,cluster_id"]
    label_of = dict(zip(assignment.coin_ids, assignment.labels))
    for i, coin in enumerate(projection.coin_ids):
        x, y, z = (float(v) for v in projection.coords[i])
        lines.append(f"{coin},{x!r},{y!r},{z!r},{label_of[coin]}")
    return "\n".join(lines) + "\n"


def scatter_svg_text(projection: Projection3D, assignment: ClusterAssignment) -> str:
    """Static scatter of the three principal-plane pairs, colored by cluster."""
    label_of = dict(zip(assignment.coin_ids, assignment.labels))
    coords = projection.coords
    spans = []
    for axis in range(3):
        lo, hi = float(coords[:, axis].min()), float(coords[:, axis].max())
        pad = 0.05 * (hi - lo if hi > lo else 1.0)
        spans.append((lo - pad, hi - lo + 2 * pad if hi > lo else 2 * pad))

    def scale(value, axis):
        lo, width = spans[axis]
        return (value - lo) / width * _PANEL_SIZE

    width = len(_PANELS) * (_PANEL_SIZE + _MARGIN) + _MARGIN
    height = _PANEL_SIZE + 2 * _MARGIN
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>',
    ]
    for p, (ax, ay) in enumerate(_PANELS):
        ox = _MARGIN + p * (_PANEL_SIZE + _MARGIN)
        oy = _MARGIN
        parts.append(f'<g transform="translate({ox:.1f},{oy:.1f})">')
        parts.append(
            f'<rect width="{_PANEL_SIZE:.0f}" height="{_PANEL_SIZE:.0f}" fill="none" '
            'stroke="#999" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_PANEL_SIZE / 2:.1f}" y="{_PANEL_SIZE + 24:.1f}" font-size="12" '
            f'text-anchor="middle" font-family="sans-serif">pc{ax + 1} vs pc{ay + 1}</text>'
        )
        for i, coin in enumerate(projection.coin_ids):
            cx = scale(float(coords[i, ax]), ax)
            cy = _PANEL_SIZE - scale(float(coords[i, ay]), ay)
            color = _PALETTE[label_of[coin] % len(_PALETTE)]
            parts.append(f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="4" fill="{color}"/>')
            parts.append(
                f'<text x="{cx + 5:.2f}" y="{cy - 4:.2f}" font-size="8" '
                f'font-family="sans-serif" fill="#555">{coin}</text>'
            )
        parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_plots(projection: Projection3D, assignment: ClusterAssignment, out_dir) -> list[Path]:
    """Write the projection CSV and the cluster scatter SVG.

    Output is byte-deterministic for a fixed pipeline seed.
    """
    if not assignment.coin_ids:
        raise ValueError("empty assignment, nothing to plot")
    if list(projection.coin_ids) != list(assignment.coin_ids):
        raise ValueError("projection and assignment coin_ids differ")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    metric = assignment.metric or "metric"
    csv_path = out_dir / f"projection.{metric}.csv"
    svg_path = out_dir / f"clusters.{metric}.svg"
    csv_path.write_text(projection_csv_text(projection, assignment), encoding="utf-8")
    svg_path.write_text(scatter_svg_text(projection, assignment), encoding="utf-8")
    return [csv_path, svg_path]


# --- full run ------------------------------------------------------------------


@dataclass
class MetricSection:
    """One metric's results.  A failed stage sets ``error`` and leaves what
    the stages before it computed, such as ``features``, in place."""

    metric: str
    missing: list[str] = field(default_factory=list)
    features: FeatureMatrix | None = None
    assignment: ClusterAssignment | None = None
    crosstab: MechanismCrosstab | None = None
    projection: Projection3D | None = None
    error: str | None = None

    def as_dict(self) -> dict:
        excluded = self.features.excluded if self.features is not None else {}
        out: dict = {"metric": self.metric, "missing": self.missing, "excluded": excluded}
        if self.error is not None:
            out["error"] = self.error
            return out
        out["assignment"] = self.assignment.as_dict()
        out["crosstab"] = self.crosstab.as_dict()
        out["projection"] = {
            "coin_ids": self.projection.coin_ids,
            "coords": [[float(v) for v in row] for row in self.projection.coords],
            "explained_variance_ratio": [float(v) for v in self.projection.explained_variance_ratio],
        }
        return out


@dataclass
class RunReport:
    """Full-run bundle.

    ``config`` echoes every analytical parameter.  The paths (data
    directory, profiles file and output directory) are deliberately left
    out, so the same inputs produce byte-identical reports wherever they
    are read from or written to; ``fingerprints`` names every input file
    with its SHA-256.
    """

    config: dict
    sections: dict[str, MetricSection]
    fingerprints: dict[str, str]

    def as_dict(self) -> dict:
        return {
            "config": self.config,
            "metrics": {m: s.as_dict() for m, s in sorted(self.sections.items())},
            "fingerprints": dict(sorted(self.fingerprints.items())),
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True) + "\n"

    def to_markdown(self) -> str:
        parts = ["# Cluster / mechanism report", ""]
        for metric in sorted(self.sections):
            section = self.sections[metric]
            if section.error is not None:
                parts.append(f"### {metric}\n\nfailed: {section.error}\n")
                continue
            parts.append(section.crosstab.to_markdown())
            evr = section.projection.explained_variance_ratio
            parts.append("")
            parts.append(
                f"projection explained variance: "
                + ", ".join(f"{v:.3f}" for v in evr)
            )
            if section.missing:
                parts.append(f"missing coins: {', '.join(section.missing)}")
            parts.append("")
        return "\n".join(parts)


def analyze_metric(section: MetricSection, dataset: Dataset, config: RunConfig, characteristics: list) -> None:
    """Fill ``section`` with features, clustering, crosstab and projection,
    from the dataset's ``compute_characteristics`` rows."""
    section.features = assemble_features(dataset, config, characteristics)
    standardized = standardize(section.features)
    section.assignment = select_k_and_cluster(
        standardized, k_max=config.k_max, seed=config.seed, sigma=config.sigma
    )
    section.crosstab = crosstab(section.assignment, dataset.profiles)
    section.projection = pca3(standardized)


def report_run(datasets: dict[str, Dataset], config: RunConfig) -> RunReport:
    """Bundle per-metric analyses; a failure flags its own section only."""
    if not datasets:
        raise CoinclustError("no metric datasets supplied")
    sections: dict[str, MetricSection] = {}
    fingerprints: dict[str, str] = {}
    characteristics = characteristics_by_metric(datasets, config)
    for metric, dataset in sorted(datasets.items()):
        fingerprints.update(dataset.fingerprints)
        section = sections[metric] = MetricSection(metric=metric, missing=list(dataset.missing))
        try:
            analyze_metric(section, dataset, config, characteristics[metric])
        except CoinclustError as exc:
            section.error = str(exc)
    echoed = config.as_dict()
    for path in ("data_dir", "profiles_path", "output_dir"):
        del echoed[path]
    return RunReport(config=echoed, sections=sections, fingerprints=fingerprints)
