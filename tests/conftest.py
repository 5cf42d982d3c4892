"""Shared fixtures: one full default report for the tests that only read it."""

import pytest

from lgorbit.report import Config, run


@pytest.fixture(scope="session")
def full_report():
    return run("all", Config())
