from pathlib import Path

import pytest
from hypothesis import configuration, settings

from tsepdm import plant

# Property tests draw the same examples on every run and keep no example
# database; per-test max_examples still apply.
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")

# Hypothesis keeps its caches in the checkout's gitignored ``.hypothesis/``,
# whatever the working directory: the constants it reads from each source
# file (keyed by the file's hash, so an edit never reads stale ones) and the
# unicode charmap that ``st.text()`` draws from, which takes seconds to
# build. Later runs reuse both; with ``database=None`` no example is stored.
configuration.set_hypothesis_home_dir(Path(__file__).resolve().parents[1] / ".hypothesis")


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
