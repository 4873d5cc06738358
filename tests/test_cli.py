import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest

from coinclust.cli import build_parser, main
from coinclust.characteristics import COLUMNS, chaos_lyapunov, self_similarity_dfa
from coinclust.config import RunConfig
from coinclust.errors import CoinclustError, ConfigError
from coinclust.ingest import METRICS, build_dataset
from coinclust.report import CROSSTAB_ATTRIBUTES
from coinclust.spectrum import bin_names

from conftest import FIXTURE_DIR, REPO_ROOT, SNAPSHOT_DIR, random_walk


def run(args):
    return main(args)


def test_features_schema(tmp_path, snapshot_dir):
    code = run(["features", "--data-dir", str(snapshot_dir), "--metric", "price_usd",
                "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "features.price_usd.csv").read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header == ["coin_id"] + list(COLUMNS) + bin_names(200)
    assert len(header) == 217  # coin_id + 216 data columns
    assert len(lines) == 19  # 18 coins + header


def test_features_rerun_identical_bytes(tmp_path, snapshot_dir):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert run(["features", "--data-dir", str(snapshot_dir), "--metric", "price_usd",
                    "--out", str(out)]) == 0
    assert (out1 / "features.price_usd.csv").read_bytes() == (out2 / "features.price_usd.csv").read_bytes()


def test_feature_files_are_the_same_bytes_on_another_blas_kernel(tmp_path, snapshot_dir):
    # OpenBLAS builds with DYNAMIC_ARCH pick their kernel from this variable;
    # the features use no BLAS or LAPACK call, so no kernel changes a byte
    written = []
    for coretype in (None, "Prescott"):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        if coretype:
            env["OPENBLAS_CORETYPE"] = coretype
        out = tmp_path / (coretype or "default")
        done = subprocess.run(
            [sys.executable, "-c", "import sys; from coinclust.cli import main; sys.exit(main())",
             "features", "--data-dir", str(snapshot_dir), "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        written.append({p.name: p.read_bytes() for p in sorted(out.glob("features.*.csv"))})
    assert len(written[0]) == 3
    assert written[0] == written[1]


def test_unknown_metric_usage_error(tmp_path, snapshot_dir):
    with pytest.raises(SystemExit) as exc:
        run(["features", "--data-dir", str(snapshot_dir), "--metric", "volume", "--out", str(tmp_path)])
    assert exc.value.code == 2


def test_missing_data_dir_is_data_error(tmp_path):
    code = run(["features", "--data-dir", str(tmp_path / "nope"), "--out", str(tmp_path)])
    assert code == 1


def test_cluster_command(tmp_path, snapshot_dir):
    code = run(["cluster", "--data-dir", str(snapshot_dir), "--metric", "price_usd",
                "--out", str(tmp_path)])
    assert code == 0
    payload = json.loads((tmp_path / "clusters.price_usd.json").read_text())
    assert payload["k"] == 5
    assert payload["seed"] == 42
    assert sum(len(c["coins"]) for c in payload["clusters"]) == 18
    assert min(len(c["coins"]) for c in payload["clusters"]) >= 2


def test_report_bundle(tmp_path, snapshot_dir):
    code = run(["report", "--data-dir", str(snapshot_dir), "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert sorted(report["metrics"]) == ["block_size_bytes", "block_time_minutes", "price_usd"]
    assert (tmp_path / "report.md").exists()
    for metric in report["metrics"]:
        assert (tmp_path / f"projection.{metric}.csv").exists()
        assert (tmp_path / f"clusters.{metric}.svg").exists()
    # config echoed verbatim for reproducibility
    assert report["config"]["seed"] == 42
    assert report["fingerprints"]


def test_report_stdout_lists_purities_in_report_md_order(tmp_path, snapshot_dir, capsys):
    assert run(["report", "--data-dir", str(snapshot_dir), "--metric", "price_usd", "--out", str(tmp_path)]) == 0
    printed = re.findall(r"purity\[(\w+)\]=", capsys.readouterr().out)
    [line] = [line for line in (tmp_path / "report.md").read_text().splitlines() if line.startswith("purity: ")]
    written = [entry.split()[0] for entry in line.removeprefix("purity: ").split(", ")]
    assert printed == written == list(CROSSTAB_ATTRIBUTES)


@pytest.mark.parametrize("token", ["SHA|256", "SHA\\|256"])
def test_a_pipe_in_a_profile_token_stays_in_its_markdown_cell(tmp_path, snapshot_dir, token):
    data = tmp_path / "data"
    shutil.copytree(snapshot_dir, data)
    profiles = data / "profiles.txt"
    profiles.write_text(profiles.read_text(encoding="utf-8").replace("SHA-256", token, 1), encoding="utf-8")
    assert run(["report", "--data-dir", str(data), "--metric", "price_usd", "--out", str(tmp_path / "out")]) == 0
    table = [line for line in (tmp_path / "out" / "report.md").read_text().splitlines() if line.startswith("|")]
    # GFM splits a row at each "|" that no backslash precedes, turns "\|" into "|",
    # then reads the cell's backslash escapes
    rows = [[re.sub(r"\\(.)", r"\1", cell.replace("\\|", "|")).strip() for cell in re.split(r"(?<!\\)\|", line)[1:-1]]
            for line in table]
    assert len(rows) > 2 and {len(row) for row in rows} == {len(rows[0])}
    assert any(token in cell.split(", ") for row in rows[2:] for cell in row)


def test_snapshot_report_never_imports_numpy_ma(tmp_path, snapshot_dir):
    # np.quantile, np.median and np.unique import numpy.ma on first use
    code = (
        "import sys\n"
        "from coinclust.cli import main\n"
        f"assert main(['report', '--data-dir', {str(snapshot_dir)!r}, '--out', {str(tmp_path)!r}]) == 0\n"
        "sys.exit('numpy.ma' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src") + os.pathsep + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr


def test_report_rerun_identical(tmp_path, snapshot_dir):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert run(["report", "--data-dir", str(snapshot_dir), "--metric", "price_usd",
                    "--out", str(out)]) == 0
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    assert (out1 / "clusters.price_usd.svg").read_bytes() == (out2 / "clusters.price_usd.svg").read_bytes()


def test_golden_svg(tmp_path, snapshot_dir):
    golden = json.loads((FIXTURE_DIR / "golden" / "digests.json").read_text())["snapshot/report/clusters.price_usd.svg"]
    assert run(["report", "--data-dir", str(snapshot_dir), "--metric", "price_usd",
                "--out", str(tmp_path)]) == 0
    assert hashlib.sha256((tmp_path / "clusters.price_usd.svg").read_bytes()).hexdigest() == golden


def test_config_file_and_flag_precedence(tmp_path, snapshot_dir):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "data_dir": str(snapshot_dir),
        "metrics": ["price_usd"],
        "seed": 7,
        "k_max": 4,
    }))
    out = tmp_path / "out"
    assert run(["cluster", "--config", str(cfg_path), "--seed", "42", "--out", str(out)]) == 0
    payload = json.loads((out / "clusters.price_usd.json").read_text())
    assert payload["seed"] == 42  # flag beats file
    assert payload["k"] <= 4     # file beats default


def test_config_file_unknown_key(tmp_path, snapshot_dir):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"data_dir": str(snapshot_dir), "bogus": 1}))
    assert run(["cluster", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("content, message", [
    (b'{"bogus": 1}', "cfg.json: unknown config keys: ['bogus']"),
    (b'{"k_max": 4,', "cfg.json:1: malformed JSON"),
    (b'{"data_dir": "caf\xe9"}', "cfg.json: not UTF-8 text"),
], ids=["unknown_key", "malformed_json", "not_utf8"])
def test_config_file_error_is_usage_error_naming_the_file(tmp_path, snapshot_dir, capsys,
                                                          content, message):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_bytes(content)
    assert run(["report", "--config", str(cfg_path), "--data-dir", str(snapshot_dir),
                "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_missing_config_file_is_usage_error_naming_the_file(tmp_path, snapshot_dir, capsys):
    assert run(["cluster", "--config", str(tmp_path / "nope.json"), "--data-dir", str(snapshot_dir),
                "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "error: nope.json: No such file or directory\n"
    assert not (tmp_path / "out").exists()


def test_fetch_stub_prints_urls(tmp_path, snapshot_dir, capsys):
    assert run(["fetch-stub", "--data-dir", str(snapshot_dir), "--coin", "bitcoin"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "no fetching" in out[0]
    assert out[1:] == [f"https://bitinfocharts.com/comparison/{chart}-bitcoin.html"
                       for chart in ("price", "confirmationtime", "size")]


def test_fetch_stub_unknown_coin_is_a_data_error(snapshot_dir, capsys):
    assert run(["fetch-stub", "--data-dir", str(snapshot_dir), "--coin", "nosuchcoin"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: profiles.txt: no profile for coin 'nosuchcoin'\n"
    assert captured.out == ""


@pytest.mark.parametrize("flag", ["--k-max", "--sigma", "--bins", "--seed", "--out"])
def test_fetch_stub_refuses_flags_it_does_not_use(snapshot_dir, capsys, flag):
    with pytest.raises(SystemExit) as exc:
        run(["fetch-stub", "--data-dir", str(snapshot_dir), flag, "3"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 3" in capsys.readouterr().err


def test_help_documents_config_fields(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["report", "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    for flag in ("--data-dir", "--profiles", "--metric", "--bins", "--k-max", "--seed",
                 "--sigma", "--min-series-len", "--dfa-min-window", "--embedding-dim",
                 "--out"):
        assert flag in text
    assert "--metric {price_usd,block_time_minutes,block_size_bytes}" in text


def test_every_config_field_is_a_report_flag():
    args = build_parser().parse_args(["report"])
    assert {f.name for f in fields(RunConfig)} <= set(vars(args))


def test_cluster_and_report_write_identical_clusters_json(tmp_path, snapshot_dir):
    out1, out2 = tmp_path / "cluster", tmp_path / "report"
    for command, out in (("cluster", out1), ("report", out2)):
        assert run([command, "--data-dir", str(snapshot_dir), "--metric", "price_usd",
                    "--out", str(out)]) == 0
    assert (out1 / "clusters.price_usd.json").read_bytes() == (out2 / "clusters.price_usd.json").read_bytes()


def test_parameter_error_is_not_hidden_as_excluded_coins(tmp_path, snapshot_dir, capsys):
    code = run(["features", "--data-dir", str(snapshot_dir), "--metric", "price_usd",
                "--bins", "1", "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "spectrum_bins must be an integer >= 2, got 1" in err
    assert "no coin produced features" not in err


@pytest.mark.parametrize("flags", [
    ["--sigma", "0"],
    ["--embedding-delay", "0"],
    ["--lyap-fit-steps", "-1"],
    ["--embedding-dim", "0"],
    ["--sigma", "1e-200"],
    ["--sigma", "1e200"],
], ids=["sigma_0", "embedding_delay_0", "lyap_fit_steps_negative", "embedding_dim_0",
        "sigma_squared_underflows", "sigma_squared_overflows"])
def test_out_of_range_parameter_is_usage_error(tmp_path, snapshot_dir, capsys, flags):
    code = run(["cluster", "--data-dir", str(snapshot_dir), "--metric", "price_usd",
                *flags, "--out", str(tmp_path)])
    assert code == 2
    assert "must be" in capsys.readouterr().err
    assert not (tmp_path / "clusters.price_usd.json").exists()


@pytest.mark.parametrize("content, message", [
    ({"metrics": ["price_usd"], "k_max": "6"}, "k_max must be an integer"),
    (["price_usd"], "expected a JSON object"),
], ids=["k_max_string", "not_an_object"])
def test_config_file_wrong_type_is_usage_error(tmp_path, snapshot_dir, capsys, content, message):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(content))
    assert run(["cluster", "--config", str(cfg_path), "--data-dir", str(snapshot_dir),
                "--out", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [
    ("k_max", 1), ("k_max", True), ("seed", -1), ("sigma", float("nan")), ("sigma", "1"),
    ("dfa_min_window", 2), ("dfa_max_window_frac", 0.0), ("lyapunov_max_fit_steps", 2),
    ("metrics", "price_usd"), ("metrics", []), ("metrics", [["price_usd"]]), ("data_dir", 5), ("spectrum_bins", 1),
    pytest.param("sigma", 10**400, id="sigma-int_beyond_float"),
    pytest.param("dfa_max_window_frac", 10**400, id="dfa_max_window_frac-int_beyond_float"),
])
def test_run_config_rejects_bad_value(field, value):
    with pytest.raises(ConfigError, match=field):
        RunConfig(**{field: value})


def test_run_config_defaults_and_edges_accepted():
    RunConfig()
    RunConfig(sigma=1, k_max=2, seed=0, dfa_min_window=3, dfa_max_window_frac=1,
              embedding_dim=1, lyapunov_max_fit_steps=3, spectrum_bins=2)
    RunConfig(sigma=1e-150)  # 2 * sigma**2 = 2e-300
    RunConfig(sigma=1e150)


def test_report_json_does_not_depend_on_where_the_inputs_are(tmp_path, snapshot_dir):
    for name, extra in (("locA", []), ("locBB", ["--profiles", str(tmp_path / "locBB/data/profiles.txt")])):
        shutil.copytree(snapshot_dir, tmp_path / name / "data")
        assert run(["report", "--data-dir", str(tmp_path / name / "data"), "--metric", "price_usd",
                    *extra, "--out", str(tmp_path / name / "out")]) == 0
    reports = [(tmp_path / name / "out" / "report.json").read_bytes() for name in ("locA", "locBB")]
    assert reports[0] == reports[1]


def test_k_max_at_a_metrics_coin_count_fails_that_metric_only(tmp_path, snapshot_dir):
    assert run(["report", "--data-dir", str(snapshot_dir), "--k-max", "16", "--out", str(tmp_path)]) == 0
    sections = json.loads((tmp_path / "report.json").read_text())["metrics"]
    assert sections["price_usd"]["assignment"]["k"] <= 16
    assert sections["block_time_minutes"]["assignment"]["k"] <= 16
    assert sections["block_size_bytes"]["error"] == \
        "block_size_bytes: k_max=16 needs more than 16 coins, got 16"


@pytest.mark.parametrize("command, written", [
    ("cluster", ["clusters.block_time_minutes.json", "clusters.price_usd.json"]),
    ("features", ["features.block_size_bytes.csv", "features.block_time_minutes.csv",
                  "features.price_usd.csv"]),
])
def test_every_command_fails_a_metric_alone(tmp_path, snapshot_dir, command, written):
    assert run([command, "--data-dir", str(snapshot_dir), "--k-max", "16", "--out", str(tmp_path)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == written


def test_run_that_writes_nothing_exits_1_after_the_report(tmp_path, snapshot_dir, capsys):
    assert run(["report", "--data-dir", str(snapshot_dir), "--k-max", "18", "--out", str(tmp_path)]) == 1
    sections = json.loads((tmp_path / "report.json").read_text())["metrics"]
    assert all("error" in section for section in sections.values())
    assert (tmp_path / "report.md").exists()
    err = capsys.readouterr().err
    assert "no metric produced output" in err
    for metric in sections:
        assert f"{metric}: k_max=18 needs more than 18 coins" in err


def _cut_snapshot(snapshot_dir, dest, files, rows=150):
    """A copy of the snapshot whose named files keep only their first ``rows`` days."""
    shutil.copytree(snapshot_dir, dest)
    for name in files:
        path = dest / name
        path.write_text("\n".join(path.read_text().splitlines()[: rows + 1]) + "\n")
    return dest


def test_features_names_every_coin_when_a_metric_has_none(tmp_path, snapshot_dir, capsys):
    names = sorted(p.name for p in snapshot_dir.glob("*.block_time_minutes.csv"))
    data = _cut_snapshot(snapshot_dir, tmp_path / "data", names)
    out = tmp_path / "out"
    assert run(["features", "--data-dir", str(data), "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["features.block_size_bytes.csv",
                                                     "features.price_usd.csv"]
    coins = ", ".join(name.split(".")[0] for name in names)
    assert (f"block_time_minutes: failed (no coin produced features for block_time_minutes; "
            f"{coins}: chaos: need >= 200 observations, got 150)") in capsys.readouterr().out


def test_dfa_window_grid_reason_is_named_once(tmp_path, snapshot_dir, capsys):
    reason = ("self_similarity: dfa_min_window=5000 and dfa_max_window_frac=0.25 leave fewer than 2 "
              "window sizes: the largest window int(n * dfa_max_window_frac) must exceed dfa_min_window")
    assert run(["features", "--data-dir", str(snapshot_dir), "--metric", "block_time_minutes",
                "--dfa-min-window", "5000", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: no metric produced output; block_time_minutes: failed")
    assert err.count(reason) == 1 and err.count("self_similarity") == 1


def _negate_line_1502(rows):
    rows[1501] = rows[1501].split(",")[0] + ",-3.0"


def _swap_lines_701_702(rows):
    rows[700], rows[701] = rows[701], rows[700]


@pytest.mark.parametrize("name, edit, message", [
    ("bitcoin.block_time_minutes.csv", _negate_line_1502,
     "bitcoin.block_time_minutes.csv:1502: block_time_minutes must be strictly positive, got -3.0"),
    ("dash.block_time_minutes.csv", _swap_lines_701_702,
     "dash.block_time_minutes.csv:702: dates not strictly increasing"),
], ids=["negative_block_time", "swapped_dates"])
def test_series_row_error_names_file_and_line(tmp_path, snapshot_dir, capsys, name, edit, message):
    data = shutil.copytree(snapshot_dir, tmp_path / "data")
    rows = (data / name).read_text().splitlines()
    edit(rows)
    (data / name).write_text("\n".join(rows) + "\n")
    assert run(["features", "--data-dir", str(data), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")


@pytest.mark.parametrize("sigma", [[], ["--sigma", "1.0"]], ids=["median", "given"])
def test_identical_series_give_the_flagged_halving_whatever_sigma(tmp_path, snapshot_dir, capsys, sigma):
    data = tmp_path / "data"
    data.mkdir()
    shutil.copy(snapshot_dir / "profiles.txt", data)
    coins = sorted(p.name.split(".")[0] for p in snapshot_dir.glob("*.price_usd.csv"))[:8]
    for coin in coins:
        shutil.copy(snapshot_dir / "bitcoin.price_usd.csv", data / f"{coin}.price_usd.csv")
    out = tmp_path / "out"
    assert run(["cluster", "--data-dir", str(data), "--metric", "price_usd", "--out", str(out), *sigma]) == 0
    assert capsys.readouterr().out.endswith("k=2 sizes=[4, 4] flags=['degenerate_geometry']\n")
    clusters = json.loads((out / "clusters.price_usd.json").read_text())["clusters"]
    assert [c["coins"] for c in clusters] == [coins[:4], coins[4:]]

def test_error_section_lists_coins_excluded_before_the_failure(tmp_path, snapshot_dir):
    data = _cut_snapshot(snapshot_dir, tmp_path / "data", ["bitcoin.block_size_bytes.csv"])
    out = tmp_path / "out"
    assert run(["report", "--data-dir", str(data), "--k-max", "15", "--out", str(out)]) == 0
    section = json.loads((out / "report.json").read_text())["metrics"]["block_size_bytes"]
    assert section["error"] == "block_size_bytes: k_max=15 needs more than 15 coins, got 15"
    assert section["excluded"] == {"bitcoin": "chaos: need >= 200 observations, got 150"}


def test_series_below_min_series_len_is_excluded_per_coin(tmp_path, snapshot_dir):
    data = _cut_snapshot(snapshot_dir, tmp_path / "data", ["bitcoin.price_usd.csv"], rows=20)
    cut, whole = tmp_path / "cut", tmp_path / "whole"
    assert run(["report", "--data-dir", str(data), "--out", str(cut)]) == 0
    assert run(["report", "--data-dir", str(snapshot_dir), "--out", str(whole)]) == 0
    sections = [json.loads((out / "report.json").read_text())["metrics"] for out in (cut, whole)]
    assert sections[0]["price_usd"]["excluded"] == {"bitcoin": "min_series_len: fewer than 30 rows"}
    assert all("bitcoin" not in c["coins"] for c in sections[0]["price_usd"]["assignment"]["clusters"])
    for metric in ("block_time_minutes", "block_size_bytes"):
        assert sections[0][metric] == sections[1][metric]
        for name in (f"clusters.{metric}.json", f"projection.{metric}.csv", f"clusters.{metric}.svg"):
            assert (cut / name).read_bytes() == (whole / name).read_bytes()


def test_two_spellings_of_a_metric_set_give_the_same_report(tmp_path, snapshot_dir, capsys):
    reports = []
    spellings = {"a": ["--metric", "block_size_bytes", "--metric", "price_usd", "--metric", "price_usd"],
                 "b": ["--metric", "price_usd", "--metric", "block_size_bytes"]}
    for name, flags in spellings.items():
        assert run(["report", "--data-dir", str(snapshot_dir), *flags, "--out", str(tmp_path / name)]) == 0
        reports.append((tmp_path / name / "report.json").read_bytes())
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["config"]["metrics"] == ["price_usd", "block_size_bytes"]
    capsys.readouterr()
    assert run(["fetch-stub", "--data-dir", str(snapshot_dir), "--coin", "bitcoin", *spellings["a"]]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == [
        "https://bitinfocharts.com/comparison/price-bitcoin.html",
        "https://bitinfocharts.com/comparison/size-bitcoin.html",
    ]


@pytest.mark.parametrize("command", ["features", "cluster", "report"])
def test_metrics_come_out_in_table_order_whatever_the_flag_order(tmp_path, snapshot_dir, capsys, command):
    flags = [arg for metric in reversed(METRICS) for arg in ("--metric", metric)]
    assert run([command, "--data-dir", str(snapshot_dir), *flags, "--out", str(tmp_path)]) == 0
    order = list(METRICS)
    pattern = "|".join(order)
    printed = [re.search(pattern, line).group() for line in capsys.readouterr().out.splitlines()
               if not line.startswith(" ")]
    assert printed == order
    if command == "report":
        headings = re.findall(rf"^### ({pattern}) ", (tmp_path / "report.md").read_text(), re.M)
        assert headings == order


@pytest.mark.parametrize("scale", [1e76, 1e100, 1e-100])
def test_a_series_whose_fourth_powers_leave_the_float_range_is_excluded(tmp_path, snapshot_dir, capsys, scale):
    data = _cut_snapshot(snapshot_dir, tmp_path / "data", [])
    path = data / "bitcoin.price_usd.csv"
    header, *rows = path.read_text().splitlines()
    path.write_text("\n".join([header] + [f"{day},{float(value) * scale!r}"
                                           for day, value in (row.split(",") for row in rows)]) + "\n")
    assert run(["features", "--data-dir", str(data), "--metric", "price_usd", "--out", str(tmp_path)]) == 0
    assert "skipped bitcoin: kurtosis: a range of " in capsys.readouterr().out
    assert "nan" not in (tmp_path / "features.price_usd.csv").read_text()


def test_a_series_too_short_for_the_spectrum_is_excluded_with_its_field(tmp_path, snapshot_dir, capsys):
    data = _cut_snapshot(snapshot_dir, tmp_path / "data", [])
    (data / "bitcoin.price_usd.csv").write_text(
        "date,value\n" + "".join(f"2019-01-0{day},5.0\n" for day in range(1, 6)))
    assert run(["features", "--data-dir", str(data), "--metric", "price_usd", "--min-series-len", "3",
                "--out", str(tmp_path)]) == 0
    assert "skipped bitcoin: spectrum: need >= 8 observations, got 5" in capsys.readouterr().out


def _documented_exclusion_prefixes():
    """The prefixes of the exclusion-reason row of the prefix table in docs/data_formats.md."""
    rows = [[cell.strip() for cell in line.split("|")[1:-1]]
            for line in (REPO_ROOT / "docs" / "data_formats.md").read_text().splitlines() if line.startswith("| `")]
    [prefixes] = [row[0] for row in rows if row[1].startswith("exclusion reasons")]
    return re.findall(r"`(\w+:)`", prefixes)


# One crafted litecoin series per exclusion reason, with the flags that let it reach that reason.
_EXCLUSIONS = {
    "min_series_len": (random_walk(20, seed=3, start=100.0), []),
    "kurtosis": (1e100 * random_walk(40, seed=3, start=100.0), []),
    "autocorrelation": (np.array([1.0, 2.0]), ["--min-series-len", "2"]),
    "self_similarity": (random_walk(50, seed=3, start=100.0), []),
    "chaos": (random_walk(150, seed=3, start=100.0), []),
    "spectrum": (np.full(5, 5.0), ["--min-series-len", "3"]),
}


@pytest.mark.parametrize("field", list(_EXCLUSIONS))
def test_every_exclusion_reason_starts_with_a_documented_prefix(tmp_path, snapshot_dir, capsys, field):
    documented = _documented_exclusion_prefixes()
    assert sorted(documented) == sorted(f"{name}:" for name in _EXCLUSIONS)
    data = tmp_path / "data"
    data.mkdir()
    shutil.copy(snapshot_dir / "profiles.txt", data)
    values, flags = _EXCLUSIONS[field]
    for coin, series in (("bitcoin", random_walk(300, seed=1, start=100.0)), ("litecoin", values)):
        days = np.datetime64("2019-01-01") + np.arange(series.size)
        (data / f"{coin}.price_usd.csv").write_text(
            "date,value\n" + "".join(f"{day},{value!r}\n" for day, value in zip(days, series.tolist())))
    assert run(["features", "--data-dir", str(data), "--metric", "price_usd", *flags, "--out", str(tmp_path)]) == 0
    [reason] = re.findall(r"^  skipped (?:\w+): (.*)$", capsys.readouterr().out, re.M)
    assert reason.startswith(tuple(documented)) and reason.startswith(f"{field}:"), reason


def _feature_column(out, column):
    lines = (out / "features.price_usd.csv").read_text().splitlines()
    j = lines[0].split(",").index(column)
    return {cells[0]: float(cells[j]) for cells in (line.split(",") for line in lines[1:])}


@pytest.fixture(scope="module")
def default_price_features(tmp_path_factory):
    out = tmp_path_factory.mktemp("default")
    assert run(["features", "--data-dir", str(SNAPSHOT_DIR), "--metric", "price_usd", "--out", str(out)]) == 0
    return out


_ESTIMATOR_FLAGS = [
    ("--dfa-min-window", "dfa_min_window", 5, "self_similarity"),
    ("--dfa-max-window-frac", "dfa_max_window_frac", 0.3, "self_similarity"),
    ("--embedding-dim", "embedding_dim", 4, "chaos"),
    ("--embedding-delay", "embedding_delay", 2, "chaos"),
    ("--lyap-fit-steps", "lyapunov_max_fit_steps", 10, "chaos"),
]


@pytest.mark.parametrize("flag, field, value, column", _ESTIMATOR_FLAGS,
                         ids=[field for _, field, _, _ in _ESTIMATOR_FLAGS])
def test_estimator_flag_reaches_the_estimator(tmp_path, snapshot_dir, default_price_features,
                                              flag, field, value, column):
    assert run(["features", "--data-dir", str(snapshot_dir), "--metric", "price_usd",
                flag, str(value), "--out", str(tmp_path)]) == 0
    got = _feature_column(tmp_path, column)
    assert got != _feature_column(default_price_features, column)
    config = RunConfig(**{field: value})
    dataset = build_dataset(snapshot_dir, snapshot_dir / "profiles.txt", "price_usd")
    series = [s.values for s in dataset.series.values()]
    if column == "self_similarity":
        expected = self_similarity_dfa(series, config).tolist()
    else:
        expected = [chaos_lyapunov(x, config) for x in series]
    assert got == dict(zip(dataset.series, expected))


@pytest.mark.parametrize("delay, code", [(1000, 0), (2000, 1)])
def test_embedding_longer_than_a_series_excludes_that_coin(tmp_path, snapshot_dir, capsys, delay, code):
    # (embedding_dim - 1) * delay days leave fewer than the 5 embedded points
    # the divergence fit needs in every series up to 2 * delay + 4 days
    reason = "chaos: not enough points to follow divergence trajectories"
    dataset = build_dataset(snapshot_dir, snapshot_dir / "profiles.txt", "price_usd")
    short = sorted(c for c in dataset.coin_ids() if len(dataset.series[c]) < 2 * delay + 5)
    assert run(["features", "--data-dir", str(snapshot_dir), "--metric", "price_usd",
                "--embedding-delay", str(delay), "--out", str(tmp_path)]) == code
    captured = capsys.readouterr()
    if code == 0:
        assert 0 < len(short) < len(dataset.series)
        assert f"{len(dataset.series) - len(short)} coins, 216 columns" in captured.out
        assert "".join(f"\n  skipped {c}: {reason}" for c in short) in captured.out
    else:
        assert short == dataset.coin_ids()
        assert captured.err.endswith(f"{', '.join(short)}: {reason})\n")


def test_embedding_longer_than_the_series_raises_a_chaos_error():
    with pytest.raises(CoinclustError, match=r"^chaos: not enough points to follow divergence trajectories$"):
        chaos_lyapunov(random_walk(300, seed=1), RunConfig(embedding_dim=400))


def test_programming_error_propagates_instead_of_exit_1(tmp_path, snapshot_dir, monkeypatch):
    def broken(matrix):
        raise ValueError("bug in a stage")

    monkeypatch.setattr("coinclust.report.pca3", broken)
    with pytest.raises(ValueError, match="^bug in a stage$"):
        run(["report", "--data-dir", str(snapshot_dir), "--metric", "price_usd", "--out", str(tmp_path)])
