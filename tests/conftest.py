"""Shared test guards."""

import logging

import pytest

ALIASED = "reaches half the recurrence time"


@pytest.fixture(autouse=True)
def no_aliased_evolution(request, caplog):
    """Fail a test whose evolution reaches half the recurrence time.

    Past T_rec / 2 a residual on a uniform omega grid is aliased, so a test
    that passes there may pass by recurrence, not by decay. Tests that cross
    the window on purpose carry the ``past_recurrence`` marker.
    """
    yield
    if request.node.get_closest_marker("past_recurrence"):
        return
    aliased = [
        record.getMessage()
        for phase in ("setup", "call")
        for record in caplog.get_records(phase)
        if record.name.startswith("phasedec")
        and record.levelno == logging.WARNING
        and ALIASED in record.getMessage()
    ]
    if aliased:
        pytest.fail(f"evolution reached half the recurrence time: {aliased[0]}", pytrace=False)
