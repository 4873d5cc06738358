"""Golden digests of every output: the byte contract of docs/data_formats.md.

The sha256 of every file that ``features``, ``cluster`` and ``report``
write on the snapshot, and of ``report.json`` on the ``wide`` and ``deep``
benchmark sets at seed 301, must equal ``fixtures/golden/digests.json``
in their canonical form: on the default BLAS kernel, on another, and on
one CPU, where ``compute_characteristics`` forks no worker.  The per-kernel
floats that the canonical form leaves out must equal
``fixtures/golden/floats.json`` to within ``FLOAT_ATOL``.  After a
deliberate output change, rewrite both files with
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

import numpy as np
import pytest

from conftest import FIXTURE_DIR, REPO_ROOT, SNAPSHOT_DIR, benchmark_files

GOLDEN = FIXTURE_DIR / "golden" / "digests.json"
FLOATS = FIXTURE_DIR / "golden" / "floats.json"
SEED = 301
# Floats from eigh and the SVD, whose last digits depend on the BLAS kernel
PER_KERNEL_KEYS = ("coords", "eigenvalues", "explained_variance_ratio")
# Prescott differs from the Haswell kernel by at most 1.6e-13 in these floats
FLOAT_ATOL = 1e-10
MAIN = "import json, sys; from coinclust.cli import main; sys.exit(max(main(a) for a in json.loads(sys.argv[1])))"
ONE_CORE = "import os; os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); "


def _without_per_kernel(obj):
    if isinstance(obj, dict):
        return {k: _without_per_kernel(v) for k, v in obj.items() if k not in PER_KERNEL_KEYS}
    if isinstance(obj, list):
        return [_without_per_kernel(v) for v in obj]
    return obj


def _per_kernel(obj, keep: bool = False) -> list[float]:
    """The values under the per-kernel keys of a JSON value; every value if ``keep``."""
    if isinstance(obj, dict):
        return [x for k, v in sorted(obj.items()) for x in _per_kernel(v, keep or k in PER_KERNEL_KEYS)]
    if isinstance(obj, list):
        return [x for v in obj for x in _per_kernel(v, keep)]
    return [obj] if keep else []


def per_kernel_floats(name: str, data: bytes) -> list[float]:
    """The floats ``canonical`` leaves out of a file, in sorted-key and row order."""
    if name.endswith(".json"):
        return _per_kernel(json.loads(data))
    if name.startswith("projection."):
        rows = list(csv.reader(io.StringIO(data.decode())))
        keep = [i for i, col in enumerate(rows[0]) if col not in ("coin_id", "cluster_id")]
        return [float(row[i]) for row in rows[1:] for i in keep]
    return []


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


def digests(sets: dict[str, list[str]], out: Path, coretype: str | None = None,
            one_core: bool = False) -> tuple[dict[str, str], dict[str, list[float]]]:
    """Run every command in one process under ``coretype``, pinned to one
    CPU if ``one_core``; the digest of each file, and the per-kernel floats
    of each file that has some."""
    runs = {f"snapshot/{cmd}": [cmd, "--data-dir", str(SNAPSHOT_DIR)] for cmd in ("features", "cluster", "report")}
    runs.update({name: ["report", *args] for name, args in sets.items()})
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    if coretype:
        env["OPENBLAS_CORETYPE"] = coretype
    argv = [args + ["--out", str(out / run)] for run, args in runs.items()]
    done = subprocess.run([sys.executable, "-c", (ONE_CORE if one_core else "") + MAIN, json.dumps(argv)],
                          env=env, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    got, floats = {}, {}
    for run in runs:
        paths = sorted((out / run).iterdir()) if run.startswith("snapshot/") else [out / run / "report.json"]
        for p in paths:
            data = p.read_bytes()
            got[f"{run}/{p.name}"] = hashlib.sha256(canonical(p.name, data)).hexdigest()
            if values := per_kernel_floats(p.name, data):
                floats[f"{run}/{p.name}"] = values
    return got, floats


@pytest.fixture(scope="module")
def benchmark_sets(tmp_path_factory):
    return write_benchmark_sets(tmp_path_factory.mktemp("sets"))


@pytest.mark.parametrize("coretype, one_core", [
    pytest.param(None, False, id="None"),
    pytest.param("Prescott", False, id="Prescott"),
    pytest.param(None, True, id="one_core"),
])
def test_every_output_matches_its_golden_digest(tmp_path, snapshot_dir, benchmark_sets, coretype, one_core):
    # OpenBLAS builds with DYNAMIC_ARCH pick their kernel from OPENBLAS_CORETYPE
    got, floats = digests(benchmark_sets, tmp_path, coretype, one_core)
    assert len(got) == 3 + 3 + 11 + 2
    assert got == json.loads(GOLDEN.read_text())
    expected = json.loads(FLOATS.read_text())
    assert floats.keys() == expected.keys()
    for name, values in expected.items():
        np.testing.assert_allclose(floats[name], values, rtol=0, atol=FLOAT_ATOL, err_msg=name)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        got, floats = digests(write_benchmark_sets(Path(tmp)), Path(tmp))
    GOLDEN.write_text(json.dumps(got, indent=2) + "\n")
    FLOATS.write_text(json.dumps(floats, indent=1) + "\n")
