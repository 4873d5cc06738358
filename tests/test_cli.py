import json
from dataclasses import fields

import pytest

from coinclust.cli import build_parser, main
from coinclust.characteristics import COLUMNS
from coinclust.config import RunConfig
from coinclust.errors import ConfigError
from coinclust.spectrum import bin_names

from conftest import FIXTURE_DIR


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


def test_report_rerun_identical(tmp_path, snapshot_dir):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert run(["report", "--data-dir", str(snapshot_dir), "--metric", "price_usd",
                    "--out", str(out)]) == 0
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    assert (out1 / "clusters.price_usd.svg").read_bytes() == (out2 / "clusters.price_usd.svg").read_bytes()


def test_golden_svg(tmp_path, snapshot_dir):
    golden = FIXTURE_DIR / "golden" / "clusters.price_usd.svg"
    assert run(["report", "--data-dir", str(snapshot_dir), "--metric", "price_usd",
                "--out", str(tmp_path)]) == 0
    assert (tmp_path / "clusters.price_usd.svg").read_bytes() == golden.read_bytes()


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
    assert run(["cluster", "--config", str(cfg_path), "--out", str(tmp_path)]) == 1


def test_fetch_stub_prints_urls(tmp_path, snapshot_dir, capsys):
    assert run(["fetch-stub", "--data-dir", str(snapshot_dir), "--coin", "bitcoin"]) == 0
    out = capsys.readouterr().out
    assert "https://bitinfocharts.com/comparison/price-bitcoin.html" in out
    assert "no fetching" in out


def test_help_documents_config_fields(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["report", "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    for flag in ("--data-dir", "--profiles", "--metric", "--bins", "--k-max", "--seed",
                 "--sigma", "--min-series-len", "--dfa-min-window", "--embedding-dim",
                 "--out"):
        assert flag in text


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
    assert code == 1
    err = capsys.readouterr().err
    assert "need at least 2 bins" in err
    assert "no coin produced features" not in err


@pytest.mark.parametrize("flags", [
    ["--sigma", "0"],
    ["--embedding-delay", "0"],
    ["--lyap-fit-steps", "-1"],
    ["--embedding-dim", "0"],
], ids=["sigma_0", "embedding_delay_0", "lyap_fit_steps_negative", "embedding_dim_0"])
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
    ("metrics", "price_usd"), ("metrics", []), ("data_dir", 5),
])
def test_run_config_rejects_bad_value(field, value):
    with pytest.raises(ConfigError, match=field):
        RunConfig(**{field: value})


def test_run_config_defaults_and_edges_accepted():
    RunConfig()
    RunConfig(sigma=1, k_max=2, seed=0, dfa_min_window=3, dfa_max_window_frac=1,
              embedding_dim=1, lyapunov_max_fit_steps=3, spectrum_bins=1)
