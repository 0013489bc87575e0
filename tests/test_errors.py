import inspect
import pickle

import pytest

import attlab.errors
from attlab.errors import CollinearityError, MissingPlanError, SchemaError, UnstableBootstrapError
from attlab.records import SchemaViolation

ERRORS = [cls for _, cls in inspect.getmembers(attlab.errors, inspect.isclass)
          if issubclass(cls, Exception) and cls.__module__ == attlab.errors.__name__]

# Constructor arguments of the errors that take other arguments than a message.
ARGUMENTS = {
    CollinearityError: (["x1", "x2"],),
    MissingPlanError: (["p-1", "p-2"],),
    SchemaError: ([SchemaViolation("p-1", "outcome", "outcome 2 not in {0,1}"), SchemaViolation(None, None, "x")],),
    UnstableBootstrapError: (3, 100, 0.05),
}


@pytest.mark.parametrize("cls", ERRORS, ids=lambda cls: cls.__name__)
def test_every_error_survives_a_pickle_round_trip(cls):
    # A pool worker's error reaches the parent process pickled.
    error = cls(*ARGUMENTS.get(cls, ("a message",)))
    back = pickle.loads(pickle.dumps(error))
    assert type(back) is cls
    assert str(back) == str(error)
    assert vars(back) == vars(error) and back.args == error.args
