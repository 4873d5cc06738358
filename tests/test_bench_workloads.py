"""The benchmark's synthetic workloads still build from the snapshot generator.

``perfbench/workloads.py`` imports ``tools/make_snapshot.py`` and reads its
group tables, ``END`` and ``band``; a generator change that drops one of
them breaks the ``wide`` and ``deep`` workloads.  This test only reads
``perfbench/``.
"""

from conftest import REPO_ROOT, load_module


def test_synthetic_workloads_build_from_the_generator():
    workloads = load_module("perfbench/workloads.py")
    gen = workloads.load_generator(REPO_ROOT)
    for name, files_expected in (("wide", 601), ("deep", 31)):
        files, planted = workloads.synthesize(gen, name, 301)
        assert len(files) == files_expected
        assert "profiles.txt" in files and planted
        again, _ = workloads.synthesize(gen, name, 301)
        assert workloads.digest(again) == workloads.digest(files)
