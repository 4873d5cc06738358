"""Golden digests of every output: the byte contract of docs/data_formats.md.

The sha256 of every file that ``features``, ``cluster`` and ``report``
write on the snapshot, and of ``report.json`` on the ``wide`` and ``deep``
benchmark sets at seed 301, must equal ``fixtures/golden/digests.json``
in their canonical form, on the default BLAS kernel and on another.  After
a deliberate output change, rewrite the file with
``PYTHONPATH=src python tests/test_golden.py`` and say in the change what
moved and by how much.
"""

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from conftest import FIXTURE_DIR, REPO_ROOT, SNAPSHOT_DIR, benchmark_files

GOLDEN = FIXTURE_DIR / "golden" / "digests.json"
SEED = 301
# Floats from eigh and the SVD, whose last digits depend on the BLAS kernel
PER_KERNEL_KEYS = ("coords", "eigenvalues", "explained_variance_ratio")
MAIN = "import json, sys; from coinclust.cli import main; sys.exit(max(main(a) for a in json.loads(sys.argv[1])))"


def _without_per_kernel(obj):
    if isinstance(obj, dict):
        return {k: _without_per_kernel(v) for k, v in obj.items() if k not in PER_KERNEL_KEYS}
    if isinstance(obj, list):
        return [_without_per_kernel(v) for v in obj]
    return obj


def canonical(name: str, data: bytes) -> bytes:
    """A JSON file less its per-kernel keys, a projection CSV as its
    ``coin_id,cluster_id`` columns, any other file as written."""
    if name.endswith(".json"):
        return json.dumps(_without_per_kernel(json.loads(data)), indent=2, sort_keys=True).encode()
    if name.startswith("projection."):
        rows = list(csv.reader(io.StringIO(data.decode())))
        keep = [rows[0].index("coin_id"), rows[0].index("cluster_id")]
        return "".join(",".join(row[i] for i in keep) + "\n" for row in rows).encode()
    return data


def write_benchmark_sets(dest: Path) -> dict[str, list[str]]:
    """Write ``wide`` and ``deep`` at ``SEED`` under ``dest``; the CLI
    arguments of each set's report."""
    args = {}
    for name in ("wide", "deep"):
        files = benchmark_files(name, SEED)
        (dest / name).mkdir()
        for fname, data in files.items():
            (dest / name / fname).write_bytes(data)
        metrics = sorted({fname.split(".")[1] for fname in files if fname.endswith(".csv")})
        args[name] = ["--data-dir", str(dest / name)] + [a for m in metrics for a in ("--metric", m)]
    return args


def digests(sets: dict[str, list[str]], out: Path, coretype: str | None = None) -> dict[str, str]:
    """Run every command in one process under ``coretype`` and digest its files."""
    runs = {f"snapshot/{cmd}": [cmd, "--data-dir", str(SNAPSHOT_DIR)] for cmd in ("features", "cluster", "report")}
    runs.update({name: ["report", *args] for name, args in sets.items()})
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    if coretype:
        env["OPENBLAS_CORETYPE"] = coretype
    argv = [args + ["--out", str(out / run)] for run, args in runs.items()]
    done = subprocess.run([sys.executable, "-c", MAIN, json.dumps(argv)],
                          env=env, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    got = {}
    for run in runs:
        paths = sorted((out / run).iterdir()) if run.startswith("snapshot/") else [out / run / "report.json"]
        got.update({f"{run}/{p.name}": hashlib.sha256(canonical(p.name, p.read_bytes())).hexdigest() for p in paths})
    return got


@pytest.fixture(scope="module")
def benchmark_sets(tmp_path_factory):
    return write_benchmark_sets(tmp_path_factory.mktemp("sets"))


@pytest.mark.parametrize("coretype", [None, "Prescott"])
def test_every_output_matches_its_golden_digest(tmp_path, snapshot_dir, benchmark_sets, coretype):
    # OpenBLAS builds with DYNAMIC_ARCH pick their kernel from OPENBLAS_CORETYPE
    got = digests(benchmark_sets, tmp_path, coretype)
    assert len(got) == 3 + 3 + 11 + 2
    assert got == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text(json.dumps(digests(write_benchmark_sets(Path(tmp)), Path(tmp)), indent=2) + "\n")
