#!/usr/bin/env python3
"""Regenerate the series CSVs of the frozen demo snapshot under data/snapshot/.

The series are synthetic: seeded processes with per-group dynamics chosen
so the shipped 18-coin dataset exhibits clear cluster structure in all
three metrics.  Real market data is not redistributed here.  The mechanism
attributes live only in data/snapshot/profiles.txt, curated reference
values edited by hand; this script neither reads nor writes that file.

``pytest tests/test_acceptance.py -k criterion_8 -s`` checks the snapshot's
cluster structure and prints the memberships.

Usage:
    python3 tools/make_snapshot.py
"""

from __future__ import annotations

from datetime import date, timedelta
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parents[1]
OUT = REPO / "data" / "snapshot"
END = date(2020, 11, 9)

GENESIS = {
    "bitcoin": date(2013, 1, 1),
    "litecoin": date(2013, 4, 28),
    "peercoin": date(2013, 5, 1),
    "novacoin": date(2013, 6, 1),
    "dogecoin": date(2013, 12, 15),
    "feathercoin": date(2013, 7, 1),
    "vertcoin": date(2014, 1, 20),
    "blackcoin": date(2014, 3, 1),
    "reddcoin": date(2014, 2, 1),
    "dash": date(2014, 2, 14),
    "monero": date(2014, 5, 21),
    "xrp": date(2014, 8, 4),
    "ethereum": date(2015, 8, 7),
    "ethereum_classic": date(2016, 7, 24),
    "zcash": date(2016, 10, 29),
    "bitcoin_cash": date(2017, 8, 1),
    "bitcoin_gold": date(2017, 10, 24),
    "bitcoin_sv": date(2018, 11, 9),
}

PRICE_GROUPS = {
    # scale, vol (idiosyncratic walk), drift (log over the sample), season f/amp
    "heavy": (["bitcoin", "dash"], dict(scale=2500.0, vol=0.50, drift=2.2, f=0.013, amp=0.55)),
    "mid_risky": (["bitcoin_sv", "zcash"], dict(scale=140.0, vol=0.20, drift=0.3, f=0.061, amp=0.55)),
    "btc_forks": (["bitcoin_cash", "bitcoin_gold"], dict(scale=300.0, vol=0.20, drift=-0.8, f=0.157, amp=0.55)),
    "alt_bulk": (
        ["ethereum", "litecoin", "xrp", "monero", "peercoin", "vertcoin", "reddcoin",
         "feathercoin", "blackcoin"],
        dict(scale=5.0, vol=0.15, drift=0.9, f=0.218, amp=0.55),
    ),
    "low_tail": (["ethereum_classic", "dogecoin", "novacoin"], dict(scale=0.5, vol=0.15, drift=-0.3, f=0.331, amp=0.55)),
}
# one coin sits apart from its price group so a sixth cluster would isolate it
PRICE_SATELLITE = "novacoin"
PRICE_SATELLITE_FREQ = 0.418
PRICE_SATELLITE_AMP = 0.50

TIME_GROUPS = {
    "fast_forks": (["dogecoin", "feathercoin"], dict(level=1.0, vol=0.06, f=0.043, amp=0.40)),
    "smooth": (
        ["ethereum", "litecoin", "ethereum_classic", "dash", "zcash", "monero", "blackcoin"],
        dict(level=2.4, vol=0.05, f=0.097, amp=0.35),
    ),
    "btc_like": (["bitcoin", "bitcoin_cash", "vertcoin"], dict(level=10.0, vol=0.07, f=0.171, amp=0.40)),
    "slow": (["bitcoin_sv", "bitcoin_gold", "novacoin"], dict(level=9.5, vol=0.10, f=0.243, amp=0.45)),
    "pos_spike": (["peercoin", "reddcoin"], dict(level=6.0, vol=0.06, f=0.317, amp=0.40)),
}
TIME_SPIKE_COINS = ("peercoin", "reddcoin")  # first block took a full day

SIZE_GROUPS = {
    "small_static": (["zcash", "bitcoin_gold", "reddcoin", "novacoin"], dict(scale=2.0e4, vol=0.25, f=0.047, amp=0.35)),
    "gas_limited": (["ethereum", "ethereum_classic", "dogecoin"], dict(scale=1.2e4, vol=0.12, f=0.107, amp=0.40)),
    "giant": (["bitcoin_cash", "bitcoin_sv"], dict(scale=1.1e6, vol=0.45, f=0.173, amp=0.50)),
    "large": (["bitcoin", "dash", "monero", "feathercoin"], dict(scale=2.0e5, vol=0.18, f=0.241, amp=0.40)),
    "mid": (["litecoin", "vertcoin", "blackcoin"], dict(scale=2.5e3, vol=0.15, f=0.311, amp=0.40)),
}

def n_days(coin: str) -> int:
    return (END - GENESIS[coin]).days + 1


def stable_rng(coin: str, metric: str) -> np.random.Generator:
    # derive seeds from bytes, not hash(): hash() is salted per process
    key = f"{coin}/{metric}/snapshot-v1".encode()
    return np.random.default_rng(np.frombuffer(key.ljust(32, b"\0")[:32], dtype=np.uint32))


def band(t: np.ndarray, f0: float, rng: np.random.Generator, amp: float,
         width: float = 0.012, m: int = 7) -> np.ndarray:
    """Sum of m nearby tones: a narrow spectral band whose resampled mass is
    stable across series lengths (a single tone straddles grid points
    differently per length)."""
    freqs = f0 + np.linspace(-width / 2, width / 2, m)
    phases = rng.uniform(0, 2 * np.pi, m)
    out = np.zeros_like(t, dtype=float)
    for f, p in zip(freqs, phases):
        out += np.sin(2 * np.pi * f * t + p)
    return amp * out / np.sqrt(m)


def price_series(coin: str) -> np.ndarray:
    group = next(params for coins, params in PRICE_GROUPS.values() if coin in coins)
    n = n_days(coin)
    rng = stable_rng(coin, "price")
    t = np.arange(n)
    walk = np.cumsum(rng.standard_normal(n)) / np.sqrt(n)
    log_level = (
        np.log(group["scale"])
        + group["drift"] * t / n
        + band(t, group["f"], rng, group["amp"])
        + group["vol"] * walk
    )
    if coin == PRICE_SATELLITE:
        # displaced member of its group: close enough to join it at k=5, far
        # enough that a sixth cluster isolates it
        log_level = log_level + band(t, PRICE_SATELLITE_FREQ, rng, PRICE_SATELLITE_AMP)
    return np.exp(log_level)


def block_time_series(coin: str) -> np.ndarray:
    group = next(params for coins, params in TIME_GROUPS.values() if coin in coins)
    n = n_days(coin)
    rng = stable_rng(coin, "time")
    t = np.arange(n)
    noise = rng.standard_normal(n) * group["vol"]
    level = group["level"] * np.exp(band(t, group["f"], rng, group["amp"]) + noise)
    if coin in TIME_SPIKE_COINS:
        level[0] = 1440.0
    return np.maximum(level, 1e-3)


def block_size_series(coin: str) -> np.ndarray:
    group = next(params for coins, params in SIZE_GROUPS.values() if coin in coins)
    n = n_days(coin)
    rng = stable_rng(coin, "size")
    t = np.arange(n)
    phase = rng.uniform(0, 2 * np.pi)
    walk = np.cumsum(rng.standard_normal(n)) / np.sqrt(n)
    season = group["amp"] * np.sin(2 * np.pi * group["f"] * t + phase)
    level = group["scale"] * np.exp(group["vol"] * 2 * walk + season + 0.6 * t / n)
    return np.maximum(level, 1.0)


def write_csv(path: Path, start: date, values: np.ndarray) -> None:
    lines = ["date,value"]
    for i, v in enumerate(values):
        lines.append(f"{(start + timedelta(days=i)).isoformat()},{float(v)!r}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def generate() -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    for coin in sorted(GENESIS):
        write_csv(OUT / f"{coin}.price_usd.csv", GENESIS[coin], price_series(coin))
        if coin != "xrp":
            write_csv(OUT / f"{coin}.block_time_minutes.csv", GENESIS[coin], block_time_series(coin))
        if coin not in ("xrp", "peercoin"):
            write_csv(OUT / f"{coin}.block_size_bytes.csv", GENESIS[coin], block_size_series(coin))
    print(f"snapshot written to {OUT}")


if __name__ == "__main__":
    generate()
