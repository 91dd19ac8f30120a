import faulthandler
import os
import sys

import pytest
from hypothesis import HealthCheck, settings

sys.path.insert(0, os.path.dirname(__file__))

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")

# The slowest test takes a few seconds. One that runs past the cap is
# taken to loop for ever: the run stops with every thread's traceback
# instead of growing until the machine runs out of memory.
TEST_TIME_CAP_S = 120

_STDERR = pytest.StashKey[int]()  # the run's own stderr: a test's stderr is captured


def pytest_configure(config):
    config.stash[_STDERR] = os.dup(sys.__stderr__.fileno())


def pytest_unconfigure(config):
    os.close(config.stash[_STDERR])


@pytest.fixture(autouse=True)
def _time_cap(request):
    faulthandler.dump_traceback_later(TEST_TIME_CAP_S, exit=True, file=request.config.stash[_STDERR])
    yield
    faulthandler.cancel_dump_traceback_later()
