"""Benchmark inputs and their reference checks.

``snapshot`` is the shipped 18-coin data set.  ``wide`` and ``deep`` are
synthetic sets made from ``--seed`` with the stochastic processes and group
parameter tables of ``tools/make_snapshot.py``.  Every coin of a synthetic
set is planted in one generator group per metric, and the reference check
asks that every cluster the program finds is drawn mostly from one planted
group or from planted groups it holds.
"""

from __future__ import annotations

import hashlib
import importlib.util
import shutil
from collections import Counter
from datetime import timedelta
from pathlib import Path

import numpy as np

METRICS = ("price_usd", "block_time_minutes", "block_size_bytes")

# A cluster passes the planted-group check when more than this share of its
# members comes from one planted group, or from planted groups that have
# most of their coins in it.  The second form lets whole groups merge, as
# they do when the no-singleton rule picks a k below the number of groups;
# the first lets a group split, as a k above it does.  A cluster that mixes
# parts of groups fails both.
PLANTED_SHARE = 0.5

# Log-scale noise of each coin around its group's price or block-size path.
OWN_NOISE = 0.05

# Workload shapes: coins, metrics, the inclusive range of history days, and
# whether the price satellite is a sixth group.  The program tries k = 6
# first; planting six groups in wide keeps the sixth cluster from being a
# mix of two groups' outliers, and deep's 10 coins cannot form 6 clusters
# without a singleton, so it stops at its 5 groups.
SYNTHETIC = {
    "wide": dict(coins=600, metrics=("price_usd",), days=(210, 320), satellite=True),
    "deep": dict(coins=10, metrics=METRICS, days=(3000, 4500), satellite=False),
}
WORKLOADS = ("snapshot",) + tuple(SYNTHETIC)


def load_generator(root: Path):
    """Import ``tools/make_snapshot.py`` of the checkout under test."""
    spec = importlib.util.spec_from_file_location("make_snapshot", root / "tools" / "make_snapshot.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _group_tables(gen, satellite: bool) -> dict[str, list[dict]]:
    price = [params for _, params in gen.PRICE_GROUPS.values()]
    if satellite:
        # make_snapshot's displaced price satellite as a group of its own: its
        # home group's process with the satellite band in place of the home band
        home = next(params for coins, params in gen.PRICE_GROUPS.values() if gen.PRICE_SATELLITE in coins)
        price.append(dict(home, f=gen.PRICE_SATELLITE_FREQ, amp=gen.PRICE_SATELLITE_AMP))
    return {
        "price_usd": price,
        "block_time_minutes": [params for _, params in gen.TIME_GROUPS.values()],
        "block_size_bytes": [params for _, params in gen.SIZE_GROUPS.values()],
    }


def _process(gen, metric: str, p: dict, n: int, tones: int, rng: np.random.Generator,
             group_key: list[int]) -> np.ndarray:
    """The make_snapshot process of one metric, at length n.

    All coins of a planted group share the seasonal phases and the walk,
    drawn from streams keyed by ``group_key``; ``rng`` draws each coin's
    own noise.  Without the sharing, two groups' coins mix in some clusters
    at some seeds, and the reference check would fail on the generator.
    Block sizes take a band in place of their single seasonal tone, whose
    resampled spectrum would change with the length of the history.
    """
    t = np.arange(n)
    season = gen.band(t, p["f"], np.random.default_rng(group_key + [0]), p["amp"], m=tones)
    if metric == "block_time_minutes":
        return np.maximum(p["level"] * np.exp(season + rng.standard_normal(n) * p["vol"]), 1e-3)
    walk = np.cumsum(np.random.default_rng(group_key + [1]).standard_normal(n)) / np.sqrt(n)
    own = rng.standard_normal(n) * OWN_NOISE
    if metric == "price_usd":
        return np.exp(np.log(p["scale"]) + p["drift"] * t / n + season + p["vol"] * walk + own)
    return np.maximum(p["scale"] * np.exp(p["vol"] * 2 * walk + season + 0.6 * t / n + own), 1.0)


def _csv_bytes(gen, values: np.ndarray) -> bytes:
    start = gen.END - timedelta(days=len(values) - 1)
    lines = ["date,value"]
    for i, v in enumerate(values):
        lines.append(f"{(start + timedelta(days=i)).isoformat()},{float(v)!r}")
    return ("\n".join(lines) + "\n").encode()


def _profile_block(coin: str, rng: np.random.Generator) -> str:
    consensus = ("PoW", "PoS", "other")[int(rng.integers(3))]
    hashing = ("SHA-256", "Scrypt", "Equihash", "X11", "Ethash")[int(rng.integers(5))]
    kind = ("static", "dynamic", "none")[int(rng.integers(3))]
    governance = ("public", "private")[int(rng.integers(2))]
    adjust = (1, 240, 2016)[int(rng.integers(3))]
    return (
        f"coin_id: {coin}\nfork_origin: none\nconsensus: {consensus}\n"
        f"hashing_algorithm: {hashing}\ndifficulty_adjustment_blocks: {adjust}\n"
        f"block_size_limit_kind: {kind}\ngovernance: {governance}\n"
    )


def synthesize(gen, workload: str, seed: int) -> tuple[dict[str, bytes], dict[str, dict[str, int]]]:
    """Series files, ``profiles.txt`` and the planted groups of one set.

    Returns ({file name: bytes}, {metric: {coin: group index}}).  The same
    (workload, seed) gives the same bytes.
    """
    shape = SYNTHETIC[workload]
    key = [seed, WORKLOADS.index(workload)]
    rng = np.random.default_rng(key)
    tables = _group_tables(gen, shape["satellite"])
    coins = [f"coin{i:04d}" for i in range(shape["coins"])]
    lo, hi = shape["days"]
    # evenly spaced lengths, shuffled: every seed costs the program the same
    lengths = rng.permutation(np.linspace(lo, hi, len(coins)).round().astype(int))
    # Past ~560 days the 7 tones of a band resolve into separate lines that
    # the fixed spectrum grid samples between; more tones keep it a band.
    tones = max(7, lo // 80)
    files: dict[str, bytes] = {}
    planted: dict[str, dict[str, int]] = {}
    for metric in shape["metrics"]:
        groups = len(tables[metric])
        # balanced, shuffled membership: every group gets len(coins)/groups coins
        member = rng.permutation(np.arange(len(coins)) % groups)
        planted[metric] = {c: int(g) for c, g in zip(coins, member)}
        for coin, g, n in zip(coins, member, lengths):
            group_key = key + [METRICS.index(metric), int(g)]
            values = _process(gen, metric, tables[metric][g], int(n), tones, rng, group_key)
            files[f"{coin}.{metric}.csv"] = _csv_bytes(gen, values)
    files["profiles.txt"] = "\n".join(_profile_block(c, rng) for c in coins).encode()
    return files, planted


def digest(files: dict[str, bytes]) -> str:
    h = hashlib.sha256()
    for name in sorted(files):
        h.update(name.encode() + b"\0" + hashlib.sha256(files[name]).digest())
    return h.hexdigest()


class Workload:
    """Inputs of one benchmark run, written to files under ``data_dir``."""

    def __init__(self, root: Path, name: str, seed: int, data_dir: Path):
        self.name = name
        self.data_dir = data_dir
        self.planted: dict[str, dict[str, int]] = {}
        self.generator_ok = True
        if data_dir.exists():
            shutil.rmtree(data_dir)
        data_dir.mkdir(parents=True)
        if name == "snapshot":
            files = {p.name: p.read_bytes() for p in sorted((root / "data" / "snapshot").iterdir())}
            self.metrics = METRICS
        else:
            gen = load_generator(root)
            files, self.planted = synthesize(gen, name, seed)
            again, _ = synthesize(gen, name, seed)
            other, _ = synthesize(gen, name, seed + 1)
            self.generator_ok = again == files and digest(other) != digest(files)
            self.metrics = SYNTHETIC[name]["metrics"]
        for fname, data in files.items():
            (data_dir / fname).write_bytes(data)
        self.input_digest = digest(files)
        self.coins = sorted(
            line.split(":", 1)[1].strip()
            for line in files["profiles.txt"].decode().splitlines()
            if line.startswith("coin_id:")
        )
        series = [data for fname, data in files.items() if fname.endswith(".csv")]
        self.size = {
            "coins": len(self.coins),
            "series": len(series),
            "observations": sum(data.count(b"\n") - 1 for data in series),
        }

    def cli_args(self) -> list[str]:
        args = ["--data-dir", str(self.data_dir)]
        if self.name != "snapshot":
            for metric in self.metrics:
                args += ["--metric", metric]
        return args

    def reference_failures(self, sections: dict) -> list[str]:
        """The workload's reference check on the per-metric report sections."""
        problems = []
        clusters = {
            m: [c["coins"] for c in s["assignment"]["clusters"]] for m, s in sections.items() if "assignment" in s
        }
        if self.name == "snapshot":
            price = sections.get("price_usd", {}).get("assignment", {})
            if price.get("k") != 5 or price.get("flags") or min(map(len, clusters.get("price_usd", [[]]))) < 2:
                problems.append("price_usd is not k=5 without a singleton")
            for metric, pair in (("block_time_minutes", ("peercoin", "reddcoin")),
                                 ("block_size_bytes", ("bitcoin_cash", "bitcoin_sv"))):
                if not any(set(pair) <= set(c) for c in clusters.get(metric, [])):
                    problems.append(f"{metric}: {pair[0]} and {pair[1]} are not in one cluster")
            return problems
        for metric, groups in self.planted.items():
            if metric not in clusters:
                problems.append(f"{metric}: no clustering")
                continue
            group_sizes = Counter(groups.values())
            for i, members in enumerate(clusters[metric]):
                here = Counter(groups[c] for c in members)
                held = sum(n for g, n in here.items() if n > group_sizes[g] / 2)
                if max(max(here.values()), held) <= PLANTED_SHARE * len(members):
                    problems.append(f"{metric}: cluster {i} mixes parts of planted groups: {dict(here)}")
        return problems
