import concurrent.futures
import dataclasses
import os

import numpy as np
import pytest
from hypothesis import settings

from attlab.glm import PlanSource, fit_model
from attlab.records import Period, Treatment, TumorLocation
from attlab.synth import GeneratorConfig, generate
from records_oracle import DosePlan, PatientRecord
from records_oracle import cohort_of_records as cohort_of

# Property tests draw the same examples on every run, however long one takes.
settings.register_profile("attlab", derandomize=True, deadline=None)
settings.load_profile("attlab")


def make_record(
    rid="p-1",
    period=Period.PRE,
    treatment=Treatment.STANDARD,
    dysphagia=0,
    location=TumorLocation.OROPHARYNX,
    photon=(55.0, 50.0, 40.0, 42.0),
    proton=None,
    outcome=0,
    latent=None,
):
    return PatientRecord(
        id=rid,
        period=period,
        treatment=treatment,
        baseline_dysphagia=dysphagia,
        tumor_location=location,
        photon_doses=DosePlan(*photon),
        outcome=outcome,
        proton_doses=DosePlan(*proton) if proton is not None else None,
        latent=latent,
    )


def make_post_record(rid="q-1", treatment=Treatment.TARGET, outcome=0, **kwargs):
    kwargs.setdefault("proton", (40.0, 38.0, 30.0, 31.0))
    return make_record(rid=rid, period=Period.POST, treatment=treatment, outcome=outcome, **kwargs)


@pytest.fixture(scope="session")
def small_world():
    """A modest generated world shared by read-only tests."""
    return generate(GeneratorConfig(n_pre=300, n_post=150, seed=20240801))


@pytest.fixture(scope="session")
def small_fit(small_world):
    return fit_model(small_world.pre)


@pytest.fixture(scope="session")
def default_world():
    """Full-size default world (750/300) shared by read-only tests."""
    return generate(GeneratorConfig(seed=11))


def as_treated(cohort):
    """``cohort``'s patients as a treated group: post-introduction, target-treated, proton plan = photon plan."""
    n = len(cohort)
    return dataclasses.replace(
        cohort,
        post=np.ones(n, dtype=bool),
        treatment=np.full(n, Treatment.TARGET.value),
        proton=cohort.photon,
        has_proton=np.ones(n, dtype=bool),
    )


def fixed_risk(photon_risk, proton_risk):
    """A selection risk function giving every patient ``photon_risk`` under the photon plan, ``proton_risk`` else."""

    def risk(patients, plan_source):
        return np.full(len(patients), photon_risk if plan_source is PlanSource.PHOTON else proton_risk)

    return risk


@pytest.fixture
def in_process_pool(monkeypatch):
    """Replace the process pool by one that maps in this process, so no process is started.

    Returns the list it appends each started pool's ``max_workers`` to.
    """
    return use_in_process_pool(monkeypatch)


def use_in_process_pool(monkeypatch):
    """The ``in_process_pool`` fixture's body, for a test that patches with its own ``MonkeyPatch``."""
    started = []

    class InProcessPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable, chunksize=1):
            return map(fn, iterable)

    # ``parallel.map_ranges`` imports the pool class from here when it starts one.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    return started


def set_usable_cpus(monkeypatch, n):
    """Make the process's affinity mask, as ``attlab.parallel`` reads it, hold ``n`` CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
