import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from attlab.cli import main
from attlab.parallel import RANGES_PER_WORKER, map_ranges, usable_cpus, worker_count

from conftest import set_usable_cpus, use_in_process_pool


def test_usable_cpus_are_the_affinity_mask(monkeypatch):
    set_usable_cpus(monkeypatch, 1)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert usable_cpus() == 1
    asked = []
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: asked.append(pid) or {0})
    usable_cpus()
    assert asked == [0]  # this process's mask, not another's


@pytest.mark.parametrize("cpu_count, cpus", [(3, 3), (None, 1)])
def test_without_an_affinity_mask_every_cpu_is_usable(monkeypatch, cpu_count, cpus):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
    assert usable_cpus() == cpus


@pytest.mark.parametrize("requested, n_items, workers", [(8, 100, 3), (2, 100, 2), (8, 2, 2), (8, 0, 1)])
def test_workers_are_capped_by_the_items_and_the_usable_cpus(monkeypatch, requested, n_items, workers):
    set_usable_cpus(monkeypatch, 3)
    assert worker_count(requested, n_items) == workers



@given(n=st.integers(0, 300), workers=st.integers(1, 5), cpus=st.integers(1, 4),
       max_size=st.one_of(st.none(), st.integers(1, 40)))
def test_map_ranges_cuts_contiguous_near_equal_ranges_and_returns_them_in_order(n, workers, cpus, max_size):
    with pytest.MonkeyPatch.context() as monkeypatch:
        set_usable_cpus(monkeypatch, cpus)
        started = use_in_process_pool(monkeypatch)
        ranges = list(map_ranges(lambda r: r, n, workers, max_size=max_size))
        pool_workers = worker_count(workers, n)
    assert started == ([pool_workers] if pool_workers > 1 else [])
    assert all(isinstance(r, range) and r.step == 1 for r in ranges)
    assert [i for r in ranges for i in r] == list(range(n))  # contiguous, in order, covering range(n) once
    sizes = [len(r) for r in ranges]
    assert max(sizes, default=0) - min(sizes, default=0) <= 1
    assert max_size is None or max(sizes, default=0) <= max_size
    want = 1 if max_size is None else -(-n // max_size)
    if pool_workers > 1:
        want = max(want, min(n, pool_workers * RANGES_PER_WORKER))
    assert len(ranges) == want


def src_env():
    """This process's environment with the package's source tree first on ``PYTHONPATH``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_importing_the_cli_loads_no_process_pool():
    # Only ``map_ranges`` imports the pool, and only when it starts one.
    code = "import sys, attlab.cli; print(sorted(m for m in sys.modules if m.startswith('concurrent.futures')))"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=src_env(), timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


# Runs a full-bootstrap estimate and a lab coverage run on two pool workers,
# under the start method and into the directory given as arguments.
POOLED_RUNS = """
import multiprocessing, sys
import attlab.parallel
from attlab.cli import main

method, world, out = sys.argv[1:]
multiprocessing.set_start_method(method)
attlab.parallel.usable_cpus = lambda: 2
assert main(["estimate", "--pre", f"{world}/pre.csv", "--post", f"{world}/post.csv", "--seed", "5",
             "--bootstrap", "full", "--replicates", "200", "--out", f"{out}/estimate", "--quiet"]) == 0
assert main(["simulate", "--scenario", "baseline", "--replicates", "4", "--with-coverage", "--boot-replicates", "100",
             "--threads", "2", "--seed", "3", "--out", f"{out}/simulate", "--quiet"]) == 0
"""


@pytest.mark.skipif(not {"fork", "forkserver"} <= set(multiprocessing.get_all_start_methods()),
                    reason="needs both the fork and the forkserver start methods")
def test_workers_that_are_not_forked_write_the_same_bytes(tmp_path):
    # A forkserver worker inherits nothing from the parent, the stream states
    # that ``rng`` keeps among it, so it builds what it draws.
    world = tmp_path / "world"
    assert main(["generate", "--seed", "5", "--n-pre", "300", "--n-post", "200", "--out", str(world), "--quiet"]) == 0
    files = {}
    for method in ("fork", "forkserver"):
        out = tmp_path / method
        done = subprocess.run([sys.executable, "-c", POOLED_RUNS, method, str(world), str(out)],
                              capture_output=True, text=True, env=src_env(), timeout=300)
        assert done.returncode == 0, done.stderr
        files[method] = {path.relative_to(out): path.read_bytes() for path in out.rglob("*") if path.is_file()}
    assert len(files["fork"]) >= 3
    assert files["forkserver"] == files["fork"]
