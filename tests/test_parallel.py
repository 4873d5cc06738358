"""The fork pool of ``compute_characteristics`` gives the same results and
errors at every worker count and leaves no worker behind.

The worker count is the number of CPUs in the affinity mask, capped at the
number of items; each test sets the mask's size by patching
``os.sched_getaffinity``, so one process runs every count.
"""

import os
import threading

import pytest

from coinclust import characteristics
from coinclust.characteristics import _fork_map, compute_characteristics
from coinclust.cli import build_datasets
from coinclust.clustering import characteristics_by_metric
from coinclust.config import RunConfig
from coinclust.errors import CoinclustError

from conftest import SNAPSHOT_DIR, make_series, random_walk

# 52 is len(items) + 1 for the 51 snapshot series: one item per worker
CPU_COUNTS = (1, 2, 3, 52)


def on_cpus(monkeypatch, cpus: int) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))


def assert_no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def outcomes(results) -> list:
    """Each row's bytes, or each error's type and message."""
    return [(type(r), str(r)) if isinstance(r, CoinclustError) else r.tobytes() for r in results]


@pytest.fixture(scope="module")
def snapshot_series():
    datasets, _ = build_datasets(RunConfig(data_dir=str(SNAPSHOT_DIR)))
    series = [ds.series[c] for ds in datasets.values() for c in ds.coin_ids()]
    assert len(series) == 51
    return series


def test_items_come_back_in_order_from_every_worker(monkeypatch):
    on_cpus(monkeypatch, 3)
    got = _fork_map(lambda share: [(x, os.getpid()) for x in share], range(7))
    assert [x for x, _ in got] == list(range(7))
    pids = [pid for _, pid in got]
    assert pids[0::3] == [os.getpid()] * 3
    assert len(set(pids)) == 3
    assert_no_child_left()


def test_one_cpu_runs_in_this_process(monkeypatch):
    on_cpus(monkeypatch, 1)
    assert _fork_map(lambda share: [os.getpid() for _ in share], range(5)) == [os.getpid()] * 5


def test_a_call_off_the_main_thread_runs_in_its_thread(monkeypatch):
    on_cpus(monkeypatch, 3)
    got = []

    def pids(share):
        return [os.getpid() for _ in share]

    thread = threading.Thread(target=lambda: got.extend(_fork_map(pids, range(5))))
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive() and got == [os.getpid()] * 5


# dfa_min_window=300 excludes the series shorter than about 1,200 days
@pytest.mark.parametrize("config", [RunConfig(), RunConfig(dfa_min_window=300)], ids=["default", "excluding"])
def test_rows_and_messages_are_the_same_at_every_worker_count(monkeypatch, snapshot_series, config):
    got = {}
    for cpus in CPU_COUNTS:
        on_cpus(monkeypatch, cpus)
        got[cpus] = outcomes(compute_characteristics(snapshot_series, config))
        assert_no_child_left()
    errors = sum(isinstance(o, tuple) for o in got[1])
    assert errors == (0 if config.dfa_min_window == 4 else 9)
    assert all(got[cpus] == got[1] for cpus in CPU_COUNTS)


def test_one_call_over_every_metric_gives_each_metric_its_own_rows(monkeypatch):
    datasets, _ = build_datasets(RunConfig(data_dir=str(SNAPSHOT_DIR)))
    on_cpus(monkeypatch, 2)
    got = characteristics_by_metric(datasets, RunConfig())
    assert_no_child_left()
    assert list(got) == list(datasets)
    on_cpus(monkeypatch, 1)
    for name, ds in datasets.items():
        assert outcomes(got[name]) == outcomes(compute_characteristics([ds.series[c] for c in ds.coin_ids()]))


@pytest.mark.parametrize("cpus", CPU_COUNTS[1:])
def test_a_data_error_excludes_only_its_series(monkeypatch, snapshot_series, cpus):
    batch = snapshot_series[:6] + [make_series(random_walk(150, 3))] + snapshot_series[6:12]
    on_cpus(monkeypatch, 1)
    alone = outcomes(compute_characteristics(batch))
    on_cpus(monkeypatch, cpus)
    got = outcomes(compute_characteristics(batch))
    assert_no_child_left()
    assert got == alone
    assert got[6] == (CoinclustError, "chaos: need >= 200 observations, got 150")
    assert not any(isinstance(o, tuple) for i, o in enumerate(got) if i != 6)


def fail_on_length(monkeypatch, n: int, exc) -> None:
    """Make ``chaos_lyapunov`` raise ``exc`` on a series of ``n`` values."""
    chaos = characteristics.chaos_lyapunov

    def patched(values, config=None):
        if len(values) == n:
            raise exc
        return chaos(values, config)

    monkeypatch.setattr(characteristics, "chaos_lyapunov", patched)


class NotRebuilt(Exception):
    """Pickles, but unpickling calls ``__init__`` with one argument and fails."""

    def __init__(self, what, where):
        super().__init__(f"{what} at {where}")


@pytest.mark.parametrize("at", [0, 1], ids=["own_share", "worker_share"])
def test_a_programming_error_reaches_the_parent_with_its_type(monkeypatch, at):
    batch = [make_series(random_walk(400 + i, i)) for i in range(4)]
    fail_on_length(monkeypatch, 400 + at, TypeError("bad operand"))
    on_cpus(monkeypatch, 2)
    with pytest.raises(TypeError, match="^bad operand$") as info:
        compute_characteristics(batch)
    assert_no_child_left()
    if at == 1:
        assert isinstance(info.value.__cause__, RuntimeError)
        assert "Traceback" in str(info.value.__cause__) and "in patched" in str(info.value.__cause__)


def test_an_error_that_cannot_be_unpickled_arrives_as_its_traceback(monkeypatch):
    batch = [make_series(random_walk(400 + i, i)) for i in range(4)]
    fail_on_length(monkeypatch, 401, NotRebuilt("bad", "here"))
    on_cpus(monkeypatch, 2)
    with pytest.raises(RuntimeError, match="cannot be pickled") as info:
        compute_characteristics(batch)
    assert_no_child_left()
    assert "NotRebuilt: bad at here" in str(info.value) and "in patched" in str(info.value)


def test_a_worker_that_exits_without_results_raises(monkeypatch):
    parent = os.getpid()

    def exits_in_worker(share):
        if os.getpid() != parent and 1 in share:
            os._exit(3)
        return share

    on_cpus(monkeypatch, 2)
    with pytest.raises(RuntimeError, match="ended with exit status 3 without sending its results"):
        _fork_map(exits_in_worker, range(4))
    assert_no_child_left()
