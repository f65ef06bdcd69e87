"""Registers the ``slow`` marker for ``pytest perfbench`` run on its own.

In the repo's full test run, ``tests/conftest.py`` registers the same
marker and skips slow tests unless ``--runslow`` is given; run alone,
every self-test runs.
"""


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: spawns worker processes; skipped by the tier-1 run"
    )
