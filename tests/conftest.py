"""Shared pytest configuration for the repro test suite."""

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="regenerate tests/golden/*.json from the current code instead "
        "of asserting against the stored values",
    )


def pytest_collection_modifyitems(items):
    """Injected faults poison arrays with NaN/Inf on purpose: ``chaos``
    tests alone are exempt from the ``error::RuntimeWarning`` ini filter, and
    silently — the arithmetic downstream of a deliberate NaN is not news."""
    for item in items:
        if item.get_closest_marker("chaos") is not None:
            item.add_marker(pytest.mark.filterwarnings("ignore::RuntimeWarning"))


@pytest.fixture
def update_golden(request):
    """True when the run should rewrite the golden files."""
    return bool(request.config.getoption("--update-golden"))
