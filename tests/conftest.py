"""Shared session fixtures.

The magic-square builds and root decompositions take seconds each, so
they are computed once per session and handed out by key.  Acceptance
summary lines are collected here and echoed after the pytest summary.
"""

from typing import Callable, Dict

import pytest

from realforms.pipeline import (
    ModelBuild,
    SatakeResult,
    build_model,
    cartan_decomposition_report,
    model_key,
    run_satake,
)

_BUILDS: Dict[str, ModelBuild] = {}
_SATAKE: Dict[str, SatakeResult] = {}
_REPORTS: Dict[str, Dict[str, object]] = {}


@pytest.fixture(scope="session")
def get_build() -> Callable[[str], ModelBuild]:
    def _get(key: str) -> ModelBuild:
        if key not in _BUILDS:
            _BUILDS[key] = build_model(key)
        return _BUILDS[key]

    return _get


@pytest.fixture(scope="session")
def get_satake(get_build) -> Callable[[str], SatakeResult]:
    def _get(name: str) -> SatakeResult:
        key = model_key(name)
        if key not in _SATAKE:
            _SATAKE[key] = run_satake(key, get_build(key))
        return _SATAKE[key]

    return _get


@pytest.fixture(scope="session")
def get_cartan_report(get_build) -> Callable[[str], Dict[str, object]]:
    def _get(key: str) -> Dict[str, object]:
        if key not in _REPORTS:
            _REPORTS[key] = cartan_decomposition_report(key, get_build(key))
        return _REPORTS[key]

    return _get


ACCEPTANCE_LINES: list = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
