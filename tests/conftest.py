import pytest
from hypothesis import settings

from attlab.glm import fit_model
from attlab.records import (
    Cohort,
    CohortLabel,
    DosePlan,
    PatientRecord,
    Period,
    Treatment,
    TumorLocation,
)
from attlab.synth import GeneratorConfig, generate

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


def cohort_of(records, label=CohortLabel.PRE_INTRODUCTION):
    return Cohort.from_records(records, label)
