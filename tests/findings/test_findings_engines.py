"""Findings F1–F10 under the analytic engines: the engine matrix.

``test_paper_findings`` asserts every finding under the DES (``sim``).
This module collects the same test classes again with the ``engine``
fixture parametrized over ``model`` and ``hybrid``, so each figure is
regenerated through one executor per engine and every finding — and
every driver's own checks — must hold under each.  A model drift that
survives per-point calibration tolerance but flips an ordering fails
here.

``learned`` is not a column: its answers miss F4, F7 and F8 today, and
they depend on what the engine evaluated before (its active-learning
refits), so the outcome would change with test order.
"""

import pytest

from tests.findings.test_paper_findings import (  # noqa: F401
    TestF1TransfersSerialize,
    TestF2PartialOverlap,
    TestF3SpatialSharingAlone,
    TestF4StreamedVsNonStreamed,
    TestF5DivisorFastPoints,
    TestF6KmeansMonotone,
    TestF7HotspotCacheDip,
    TestF8NNPlateau,
    TestF9TileSweeps,
    TestF10MultiMicScaling,
    TestRecordedChecks,
)


@pytest.fixture(params=["model", "hybrid"])
def engine(request):
    return request.param
