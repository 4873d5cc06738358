"""The benchmark tracer still finds every function it wraps.

``perfbench/spans.py`` wraps module attributes where the callers look them
up; a caller that stops looking a name up there leaves its span silent and
its per-layer metric at zero.  This test only reads ``perfbench/``.
"""

import json
import os
import subprocess
import sys

from conftest import REPO_ROOT, load_module


def test_every_wrapped_span_is_recorded(tmp_path, snapshot_dir):
    script = REPO_ROOT / "perfbench" / "spans.py"
    spans = load_module("perfbench/spans.py")
    trace = tmp_path / "trace.json"
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(script), str(trace), "0", "report", "--metric", "price_usd",
         "--data-dir", str(snapshot_dir), "--out", str(tmp_path / "out")],
        env=env, cwd=REPO_ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    recorded = {span["name"] for span in json.loads(trace.read_text())["spans"]}
    assert {name for _, _, name in spans.WRAPPED} <= recorded
