import tempfile

import pytest
from hypothesis import configuration, settings

from tsepdm import plant

# Property tests draw the same examples on every run and keep no example
# database; per-test max_examples still apply.
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")

_HYPOTHESIS_HOME = pytest.StashKey[tempfile.TemporaryDirectory]()


def pytest_configure(config):
    # Hypothesis caches constants read from the source at collection time;
    # keep that cache in a temporary directory, not ``.hypothesis/``.
    config.stash[_HYPOTHESIS_HOME] = tempfile.TemporaryDirectory(prefix="hypothesis-")
    configuration.set_hypothesis_home_dir(config.stash[_HYPOTHESIS_HOME].name)


def pytest_unconfigure(config):
    config.stash[_HYPOTHESIS_HOME].cleanup()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    import sys

    for name, module in list(sys.modules.items()):
        if name.rpartition(".")[2] == "test_acceptance" and getattr(module, "RESULTS", None):
            terminalreporter.section("acceptance criteria")
            for line in module.RESULTS:
                terminalreporter.write_line(line)
            break


@pytest.fixture(scope="session")
def prototype():
    return plant.DEFAULT_PARAMS


@pytest.fixture(scope="session")
def full_power_config():
    """The configuration of `full_power_trace`."""
    return plant.SimConfig(duration=3e-3, collect_samples=True)


@pytest.fixture(scope="session")
def full_power_trace(prototype, full_power_config):
    """3 ms co-simulation at full density on both sides, with samples."""
    from tsepdm.modulator import PulseDensityModulator
    from tsepdm.ntf import build_first_order

    return plant.simulate(prototype, full_power_config,
                          PulseDensityModulator(build_first_order()),
                          PulseDensityModulator(build_first_order()),
                          1.0, 1.0)
