"""Shared fixtures for the perf-subsystem tests."""

import pytest

from repro import obs


@pytest.fixture
def observed():
    """Enabled observability for the duration of one test."""
    obs.OBS.configure()
    yield obs.OBS
    obs.OBS.reset()
