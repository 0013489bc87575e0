import os

import pytest

from attlab.parallel import usable_cpus, worker_count

from conftest import set_usable_cpus


def test_usable_cpus_are_the_affinity_mask(monkeypatch):
    set_usable_cpus(monkeypatch, 1)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert usable_cpus() == 1


@pytest.mark.parametrize("cpu_count, cpus", [(3, 3), (None, 1)])
def test_without_an_affinity_mask_every_cpu_is_usable(monkeypatch, cpu_count, cpus):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
    assert usable_cpus() == cpus


@pytest.mark.parametrize("requested, n_items, workers", [(8, 100, 3), (2, 100, 2), (8, 2, 2), (8, 0, 1)])
def test_workers_are_capped_by_the_items_and_the_usable_cpus(monkeypatch, requested, n_items, workers):
    set_usable_cpus(monkeypatch, 3)
    assert worker_count(requested, n_items) == workers

