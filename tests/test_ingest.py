import csv
import hashlib
import re
import tracemalloc
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest

from coinclust.errors import CoinclustError, NoSeriesLoadedError
from coinclust.ingest import (
    METRICS,
    build_dataset,
    load_profiles,
    load_series,
    parse_series,
    source_url,
)

from coinclust.cli import build_datasets, main
from coinclust.config import RunConfig


def write_csv(path, rows, header="date,value"):
    path.write_text(header + "\n" + "\n".join(rows) + "\n", encoding="utf-8")


PROFILE_BLOCK = """\
coin_id: {coin}
fork_origin: none
consensus: PoW
hashing_algorithm: SHA-256
difficulty_adjustment_blocks: 2016
target_block_time_minutes: 10
block_size_limit_kind: static
block_size_limit_bytes: 1000000
governance: public
"""


# --- load_series ------------------------------------------------------------

def test_load_series_identity(tmp_path):
    p = tmp_path / "x.csv"
    write_csv(p, [f"2019-01-0{i},{float(i)}" for i in range(1, 5)])
    s = load_series(p, "price_usd")
    assert len(s) == 4
    assert list(s.values) == [1.0, 2.0, 3.0, 4.0]
    assert s.drop_count == 0


def test_load_series_drops_empty_values(tmp_path):
    rows = [f"2019-{1 + i // 28:02d}-{1 + i % 28:02d},{i + 1.0}" for i in range(100)]
    rows.insert(50, "2020-06-01,")
    p = tmp_path / "x.csv"
    write_csv(p, rows)
    # reorder so dates stay monotone: put the empty-value row at the end
    rows = rows[:50] + rows[51:] + ["2020-06-01,"]
    write_csv(p, rows)
    s = load_series(p, "price_usd")
    assert len(s) == 100
    assert s.drop_count == 1


def test_load_series_structural_error(tmp_path):
    p = tmp_path / "x.csv"
    write_csv(p, ["2019-01-01,1.0,extra"])
    with pytest.raises(CoinclustError, match=r"^x\.csv:2: expected 2 fields, got 3$"):
        load_series(p, "price_usd")


def test_load_series_bad_date(tmp_path):
    # 20190101 and the ISO week date 2019-W01-1 are ISO 8601 but not YYYY-MM-DD
    p = tmp_path / "x.csv"
    for text in ("01/02/2019", "20190101", "2019-W01-1"):
        write_csv(p, ["2018-12-30,1.0", f"{text},1.0"])
        with pytest.raises(CoinclustError, match=f"^x.csv:3: bad date '{text}'$"):
            load_series(p, "price_usd")


def test_load_series_nonpositive_block_metric(tmp_path):
    p = tmp_path / "x.csv"
    write_csv(p, ["2019-01-01,5.0", "2019-01-02,0.0", "2019-01-03,2.0"])
    with pytest.raises(CoinclustError,
                       match=r"^x\.csv:3: block_time_minutes must be strictly positive, got 0\.0$"):
        load_series(p, "block_time_minutes")


def test_load_series_zero_price_allowed(tmp_path):
    p = tmp_path / "x.csv"
    write_csv(p, ["2019-01-01,0.0", "2019-01-02,1.0"])
    s = load_series(p, "price_usd")
    assert s.values[0] == 0.0


def test_load_series_non_monotone(tmp_path):
    p = tmp_path / "x.csv"
    write_csv(p, ["2019-01-02,1.0", "2019-01-01,2.0"])
    with pytest.raises(CoinclustError,
                       match=r"^x\.csv:3: dates not strictly increasing \(2019-01-01 after 2019-01-02\)$"):
        load_series(p, "price_usd")


def test_load_series_nan_token_dropped(tmp_path):
    p = tmp_path / "x.csv"
    write_csv(p, ["2019-01-01,1.0", "2019-01-02,nan", "2019-01-03,inf", "2019-01-04,2.0"])
    s = load_series(p, "price_usd")
    assert len(s) == 2 and s.drop_count == 2


@pytest.mark.parametrize("metric, rows, message", [
    ("block_time_minutes", ["2019-01-01,5.0", "2019-01-02,-3.0"],
     "x.csv:3: block_time_minutes must be strictly positive, got -3.0"),
    ("block_size_bytes", ["2019-01-01,5.0", "2019-01-02,0.0"],
     "x.csv:3: block_size_bytes must be strictly positive, got 0.0"),
    ("price_usd", ["2019-01-01,5.0", "2019-01-02,-0.5"],
     "x.csv:3: negative price -0.5"),
    ("price_usd", ["2019-01-02,1.0", "2019-01-01,1.0"],
     "x.csv:3: dates not strictly increasing (2019-01-01 after 2019-01-02)"),
    ("price_usd", ["2019-01-02,1.0", "2019-01-03,", "2019-01-01,1.0"],
     "x.csv:4: dates not strictly increasing (2019-01-01 after 2019-01-02)"),
], ids=["block_time_negative", "block_size_zero", "price_negative", "swapped_dates",
        "date_after_a_dropped_row"])
def test_load_series_row_error_names_file_and_line(tmp_path, metric, rows, message):
    """Sign and date-order errors name their row."""
    p = tmp_path / "x.csv"
    write_csv(p, rows)
    with pytest.raises(CoinclustError, match=f"^{re.escape(message)}$"):
        load_series(p, metric)


def test_drop_count_conservation(tmp_path):
    rows = [f"2019-01-{i:02d},{i}.5" for i in range(1, 28)] + ["2019-02-01,oops", "2019-02-02,"]
    p = tmp_path / "x.csv"
    write_csv(p, rows)
    s = load_series(p, "price_usd")
    assert len(s) + s.drop_count == len(rows)


# --- load_profiles ------------------------------------------------------------

def test_profiles_accept_reference_entries(tmp_path):
    text = """\
# curated mechanism attributes
coin_id: bitcoin
fork_origin: none
consensus: PoW
hashing_algorithm: SHA-256
difficulty_adjustment_blocks: 2016
target_block_time_minutes: 10
block_size_limit_kind: static
block_size_limit_bytes: 1000000
governance: public

coin_id: dogecoin
fork_origin: litecoin       # litecoin-derived codebase
consensus: PoW
hashing_algorithm: Scrypt
difficulty_adjustment_blocks: 240
target_block_time_minutes: 1
block_size_limit_kind: static
block_size_limit_bytes: 1000000
governance: public
"""
    p = tmp_path / "profiles.txt"
    p.write_text(text, encoding="utf-8")
    profiles = load_profiles(p)
    assert set(profiles) == {"bitcoin", "dogecoin"}
    btc = profiles["bitcoin"]
    assert btc.consensus == "PoW"
    assert btc.hashing_algorithm == "SHA-256"
    assert btc.difficulty_adjustment_blocks == 2016
    assert btc.target_block_time_minutes == 10.0
    doge = profiles["dogecoin"]
    assert doge.fork_origin == "litecoin"
    assert doge.difficulty_adjustment_blocks == 240


def test_profiles_duplicate_coin(tmp_path):
    text = PROFILE_BLOCK.format(coin="zcash") + "\n" + PROFILE_BLOCK.format(coin="zcash")
    p = tmp_path / "profiles.txt"
    p.write_text(text, encoding="utf-8")
    with pytest.raises(CoinclustError, match=r"^profiles\.txt:11: duplicate coin_id 'zcash'$"):
        load_profiles(p)


def test_profiles_unknown_enum(tmp_path):
    text = PROFILE_BLOCK.format(coin="x").replace("consensus: PoW", "consensus: proof-of-magic")
    p = tmp_path / "profiles.txt"
    p.write_text(text, encoding="utf-8")
    with pytest.raises(CoinclustError, match=r"^profiles\.txt:3: x: consensus='proof-of-magic' not one of "):
        load_profiles(p)


def test_profiles_missing_required(tmp_path):
    text = "\n".join(
        line for line in PROFILE_BLOCK.format(coin="x").splitlines() if "governance" not in line
    )
    p = tmp_path / "profiles.txt"
    p.write_text(text, encoding="utf-8")
    with pytest.raises(CoinclustError, match=r"^profiles\.txt:1: x: missing required field 'governance'$"):
        load_profiles(p)


def test_profiles_optional_none(tmp_path):
    text = PROFILE_BLOCK.format(coin="x").replace("difficulty_adjustment_blocks: 2016",
                                                  "difficulty_adjustment_blocks: none")
    p = tmp_path / "profiles.txt"
    p.write_text(text, encoding="utf-8")
    assert load_profiles(p)["x"].difficulty_adjustment_blocks is None


# --- build_dataset ---------------------------------------------------------------

def _write_snapshot(tmp_path, coins, metric="price_usd", n=40):
    for i, coin in enumerate(coins):
        rows = [f"2019-{1 + d // 28:02d}-{1 + d % 28:02d},{1.0 + i + d * 0.01}" for d in range(n)]
        write_csv(tmp_path / f"{coin}.{metric}.csv", rows)
    profiles = "\n".join(PROFILE_BLOCK.format(coin=c) for c in coins)
    (tmp_path / "profiles.txt").write_text(profiles, encoding="utf-8")


def test_build_dataset_complete(tmp_path):
    coins = [f"coin{i:02d}" for i in range(18)]
    _write_snapshot(tmp_path, coins)
    ds = build_dataset(tmp_path, tmp_path / "profiles.txt", "price_usd")
    assert len(ds.series) == 18
    assert ds.missing == []
    assert all(c in ds.profiles for c in ds.series)


def test_snapshot_datasets_hold_little_beyond_their_values(snapshot_dir):
    # The float values of the three metrics take 0.87 MB; a date object per
    # row would add about 4.4 MB.
    tracemalloc.start()
    try:
        datasets = [build_dataset(snapshot_dir, snapshot_dir / "profiles.txt", m) for m in METRICS]
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert sum(len(s) for d in datasets for s in d.series.values()) > 100_000
    assert held < 2 * 10**6

def test_build_dataset_reads_each_series_file_once(monkeypatch, snapshot_dir):
    files = ["profiles.txt"] + sorted(p.name for p in snapshot_dir.glob("*.price_usd.csv"))
    expected = {name: hashlib.sha256((snapshot_dir / name).read_bytes()).hexdigest() for name in files}
    reads = []
    read_bytes = Path.read_bytes

    def counting(path):
        reads.append(path.name)
        return read_bytes(path)

    monkeypatch.setattr(Path, "read_bytes", counting)
    ds = build_dataset(snapshot_dir, snapshot_dir / "profiles.txt", "price_usd")
    series_reads = [name for name in reads if name.endswith(".csv")]
    assert len(series_reads) == len(set(series_reads)) == len(ds.series) == 18
    assert ds.fingerprints == expected


def test_build_datasets_reads_the_profiles_once_per_dataset(monkeypatch, snapshot_dir):
    reads = []
    read_bytes = Path.read_bytes

    def counting(path):
        reads.append(path.name)
        return read_bytes(path)

    monkeypatch.setattr(Path, "read_bytes", counting)
    datasets, notes = build_datasets(RunConfig(data_dir=str(snapshot_dir)))
    assert notes == [] and len(datasets) == 3
    assert reads.count("profiles.txt") == 3
    digest = hashlib.sha256(read_bytes(snapshot_dir / "profiles.txt")).hexdigest()
    assert {ds.fingerprints["profiles.txt"] for ds in datasets.values()} == {digest}


def test_build_dataset_missing_report(tmp_path):
    coins = [f"coin{i:02d}" for i in range(18)]
    _write_snapshot(tmp_path, coins[:16], metric="block_size_bytes")
    profiles = "\n".join(PROFILE_BLOCK.format(coin=c) for c in coins)
    (tmp_path / "profiles.txt").write_text(profiles, encoding="utf-8")
    ds = build_dataset(tmp_path, tmp_path / "profiles.txt", "block_size_bytes")
    assert len(ds.series) == 16
    assert ds.missing == ["coin16", "coin17"]


def test_build_dataset_empty(tmp_path):
    (tmp_path / "profiles.txt").write_text(PROFILE_BLOCK.format(coin="x"), encoding="utf-8")
    with pytest.raises(NoSeriesLoadedError, match="^no price_usd series found in "):
        build_dataset(tmp_path, tmp_path / "profiles.txt", "price_usd")


def test_build_dataset_series_without_profile(tmp_path):
    _write_snapshot(tmp_path, ["known"])
    write_csv(tmp_path / "mystery.price_usd.csv",
              [f"2019-01-{i:02d},1.0" for i in range(1, 28)])
    with pytest.raises(CoinclustError, match=r"^mystery\.price_usd\.csv: no profile for coin 'mystery'$"):
        build_dataset(tmp_path, tmp_path / "profiles.txt", "price_usd")


def test_build_dataset_error_has_file_attribution(tmp_path):
    _write_snapshot(tmp_path, ["good"])
    rows = [f"2019-{1 + d // 28:02d}-{1 + d % 28:02d},1.0" for d in range(40)]
    rows[20] = "2018-12-31,2.0"
    write_csv(tmp_path / "bad.price_usd.csv", rows)
    profiles = PROFILE_BLOCK.format(coin="good") + "\n" + PROFILE_BLOCK.format(coin="bad")
    (tmp_path / "profiles.txt").write_text(profiles, encoding="utf-8")
    with pytest.raises(CoinclustError, match=r"^bad\.price_usd\.csv:22: dates not strictly increasing "):
        build_dataset(tmp_path, tmp_path / "profiles.txt", "price_usd")


def test_build_dataset_non_utf8_series_names_file(tmp_path, capsys):
    _write_snapshot(tmp_path, ["good", "latin"])
    path = tmp_path / "latin.price_usd.csv"
    path.write_bytes(path.read_bytes().replace(b"2019-01-05,", b"2019-01-05,\xe9"))
    with pytest.raises(CoinclustError, match="latin.price_usd.csv: .*not UTF-8"):
        build_dataset(tmp_path, tmp_path / "profiles.txt", "price_usd")
    assert main(["features", "--data-dir", str(tmp_path), "--metric", "price_usd",
                 "--out", str(tmp_path / "out")]) == 1
    assert "latin.price_usd.csv" in capsys.readouterr().err


@pytest.mark.parametrize("row, message", [
    ("2019-01-20,1.0,extra", "expected 2 fields, got 3"),
    ("2018-12-31,2.0", r"dates not strictly increasing \(2018-12-31 after 2019-02-12\)"),
], ids=["extra_field", "date_out_of_order"])
def test_build_dataset_error_names_file_once(tmp_path, capsys, row, message):
    _write_snapshot(tmp_path, ["good", "bad"])
    path = tmp_path / "bad.price_usd.csv"
    path.write_text(path.read_text(encoding="utf-8") + row + "\n", encoding="utf-8")
    with pytest.raises(CoinclustError, match=rf"^bad\.price_usd\.csv:42: {message}$") as info:
        build_dataset(tmp_path, tmp_path / "profiles.txt", "price_usd")
    assert str(info.value).count("bad.price_usd.csv") == 1
    assert main(["features", "--data-dir", str(tmp_path), "--metric", "price_usd",
                 "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.count("bad.price_usd.csv") == 1


def test_oversized_csv_field_is_malformed_csv(tmp_path, capsys):
    _write_snapshot(tmp_path, ["good", "huge"])
    path = tmp_path / "huge.price_usd.csv"
    path.write_text(path.read_text(encoding="utf-8") + "2019-03-01," + "1" * 200_000 + "\n",
                    encoding="utf-8")
    with pytest.raises(CoinclustError, match=r"^huge\.price_usd\.csv:\d+: field larger"):
        load_series(path, "price_usd")
    assert main(["features", "--data-dir", str(tmp_path), "--metric", "price_usd",
                 "--out", str(tmp_path / "out")]) == 1
    assert "huge.price_usd.csv" in capsys.readouterr().err


def test_a_field_the_reader_refuses_is_reported_before_an_earlier_row_error(tmp_path):
    path = tmp_path / "x.price_usd.csv"
    write_csv(path, ["2019-13-01,1", "2019-01-02," + "1" * (csv.field_size_limit() + 1)])
    with pytest.raises(CoinclustError, match=r"^x\.price_usd\.csv:3: field larger than field limit"):
        load_series(path, "price_usd")


def test_row_route_validates_rows_as_it_reads_them(tmp_path):
    # CRLF files take the row route.  Reading every row into a list before
    # validating any peaked at 1.12 MB on this 81 kB file; the reader's own
    # copy of the text and the kept values take about 0.55 MB.
    path = tmp_path / "x.price_usd.csv"
    rows = [f"{date(2012, 1, 1) + timedelta(days=i)},{1000 + i * 0.123456789:.9f}" for i in range(3000)]
    path.write_bytes(("date,value\r\n" + "\r\n".join(rows) + "\r\n").encode())
    tracemalloc.start()
    try:
        series = load_series(path, "price_usd")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(series) == 3000 and series.drop_count == 0
    assert peak < 800_000


@pytest.mark.parametrize("key", ["target_block_time_minutes", "block_size_limit_bytes",
                                 "difficulty_adjustment_blocks"])
@pytest.mark.parametrize("token", ["ten", "nan", "inf", "-inf", "0", "2_016", "\uff12\uff10\uff11\uff16",
                                   "\u0661\u0662"])
def test_profiles_numeric_key_must_be_positive_finite_number(tmp_path, key, token):
    text = "\n".join(
        f"{key}: {token}" if line.startswith(key) else line
        for line in PROFILE_BLOCK.format(coin="x").splitlines()
    )
    p = tmp_path / "profiles.txt"
    p.write_text(text, encoding="utf-8")
    with pytest.raises(CoinclustError, match=rf"^profiles\.txt:\d+: x: {key} must be"):
        load_profiles(p)


_BITCOIN = PROFILE_BLOCK.format(coin="bitcoin")


@pytest.mark.parametrize("text, message", [
    (_BITCOIN + "\ncoin_id: bitcoin\nconsensus: PoW\n",
     "profiles.txt:11: bitcoin: missing required field 'hashing_algorithm'"),
    (_BITCOIN.replace("consensus: PoW", "consensus: PoWW"),
     "profiles.txt:3: bitcoin: consensus='PoWW' not one of {PoW, PoS, other}"),
    (_BITCOIN + "\n" + _BITCOIN, "profiles.txt:11: duplicate coin_id 'bitcoin'"),
    (_BITCOIN + "bogus: 1\n", "profiles.txt:10: bitcoin: unknown profile keys ['bogus']"),
    (_BITCOIN.replace("blocks: 2016", "blocks: ten"),
     "profiles.txt:5: bitcoin: difficulty_adjustment_blocks must be a positive integer, got 'ten'"),
    (_BITCOIN + "\n" + PROFILE_BLOCK.format(coin="bit&co<in,x"),
     "profiles.txt:11: coin_id='bit&co<in,x' may use only ASCII letters, digits, '_', '-' and '.'"),
    (PROFILE_BLOCK.format(coin="coïn"),
     "profiles.txt:1: coin_id='coïn' may use only ASCII letters, digits, '_', '-' and '.'"),
    (_BITCOIN.replace("hashing_algorithm: SHA-256", "hashing_algorithm:"),
     "profiles.txt:4: bitcoin: hashing_algorithm must not be empty"),
    (_BITCOIN.replace("fork_origin: none", "fork_origin:   # to be looked up"),
     "profiles.txt:2: bitcoin: fork_origin must not be empty"),
    (_BITCOIN.replace("consensus: PoW", "consensus:"), "profiles.txt:3: bitcoin: consensus must not be empty"),
    (_BITCOIN.replace("blocks: 2016", "blocks:"),
     "profiles.txt:5: bitcoin: difficulty_adjustment_blocks must not be empty"),
    (_BITCOIN.replace("fork_origin: none", "fork_origin: lite|coin"),
     "profiles.txt:2: bitcoin: fork_origin='lite|coin' may use only ASCII letters, digits, '_', '-' and '.'"),
], ids=["missing_key", "enum", "duplicate_coin", "unknown_key", "numeric", "coin_id_markup", "coin_id_non_ascii",
        "empty_free_token", "empty_fork_origin", "empty_enum", "empty_numeric", "fork_origin_markup"])
def test_profile_error_names_file_and_line(tmp_path, text, message):
    p = tmp_path / "profiles.txt"
    p.write_text(text, encoding="utf-8")
    with pytest.raises(CoinclustError, match=f"^{re.escape(message)}$"):
        load_profiles(p)


def test_profile_coin_id_grammar_admits_letters_digits_underscore_hyphen_and_dot(tmp_path):
    coins = ["bitcoin_cash", "coin0000", "Bit-Coin.2"]
    p = tmp_path / "profiles.txt"
    p.write_text("\n".join(PROFILE_BLOCK.format(coin=c) for c in coins), encoding="utf-8")
    assert sorted(load_profiles(p)) == sorted(coins)


def test_report_refuses_a_coin_id_that_would_break_the_svg_and_csv(tmp_path, snapshot_dir, capsys):
    data = tmp_path / "data"
    data.mkdir()
    coin = "bit&co<in,x"
    for path in snapshot_dir.iterdir():
        (data / path.name.replace("bitcoin.", f"{coin}.", 1)).write_bytes(path.read_bytes())
    profiles = data / "profiles.txt"
    profiles.write_text(profiles.read_text().replace("coin_id: bitcoin\n", f"coin_id: {coin}\n"))
    out = tmp_path / "out"
    assert main(["report", "--data-dir", str(data), "--metric", "price_usd", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: profiles.txt:5: coin_id={coin!r} may use only")
    assert not (out / "clusters.price_usd.svg").exists()


def test_profiles_non_utf8_names_file(tmp_path):
    p = tmp_path / "profiles.txt"
    p.write_bytes(PROFILE_BLOCK.format(coin="x").encode("utf-8") + b"# caf\xe9\n")
    with pytest.raises(CoinclustError, match="^profiles.txt: not UTF-8"):
        load_profiles(p)


def test_source_url_convention():
    assert source_url("bitcoin", "price_usd").startswith("https://bitinfocharts.com/")
    assert "bitcoin" in source_url("bitcoin", "block_size_bytes")


@pytest.mark.parametrize("call", [
    lambda path: load_series(path, "volume"),
    lambda path: parse_series(path, path.read_bytes(), "volume"),
    lambda path: build_dataset(path.parent, path.parent / "profiles.txt", "volume"),
    lambda path: source_url("bitcoin", "volume"),
], ids=["load_series", "parse_series", "build_dataset", "source_url"])
def test_a_metric_outside_the_table_is_a_value_error(tmp_path, call):
    path = tmp_path / "bitcoin.volume.csv"
    write_csv(path, ["2019-01-01,1.0"])
    (tmp_path / "profiles.txt").write_text(PROFILE_BLOCK.format(coin="bitcoin"))
    with pytest.raises(ValueError, match=r"^unknown metric 'volume'"):
        call(path)
