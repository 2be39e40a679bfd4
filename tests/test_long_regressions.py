"""Opt-in long regressions: the slower published values, re-searched from
scratch, and orbit completeness of orderly generation at 5x5 and 4x6.

Run with ``BIRAMSEY_LONG_TESTS=1 pytest tests/test_long_regressions.py``;
about half a minute total (29 s on a 2-core machine, 18 s of it the m=13
scan; the orbit tests take about 5 s).
The default suite stays compact, so these are skipped unless asked for.
"""

import os

import pytest

from biramsey.core import BipartiteGraph
from biramsey.search import (
    NOT_ARROWS,
    ArrowingInstance,
    SearchConfig,
    arrows,
    find_br_m,
    is_canonical_assignment,
)
from biramsey.witnesses import EXACT, witness_8x29

from oracles import c4_free_classes, row_orders

pytestmark = pytest.mark.skipif(
    not os.environ.get("BIRAMSEY_LONG_TESTS"),
    reason="set BIRAMSEY_LONG_TESTS=1 to run the long registry regressions",
)

CFG = SearchConfig(time_budget=3600.0)


def test_value_m9_t4():
    record = find_br_m(9, 4, 18, CFG)
    assert record.status == EXACT
    assert record.value == 14


def test_value_m13_t4():
    # with monotonicity in m this pins the published 14 for all of m=9..13
    record = find_br_m(13, 4, 18, CFG)
    assert record.status == EXACT
    assert record.value == 14


def test_lower_bound_m8_t5_restriction_free():
    # the 8x29 fixture decides this instantly when seeded; the point here is
    # that the engine also finds some 8x29 good coloring on its own
    out = arrows(ArrowingInstance(8, 29, 5), CFG)
    assert out.verdict == NOT_ARROWS
    assert out.certificate.valid
    assert out.certificate.graph.n == witness_8x29().n


@pytest.mark.parametrize("m, n, classes", [(5, 5, 470), (4, 6, 343)])
def test_every_c4_free_class_has_canonical_image(m, n, classes):
    # the default suite checks this up to 4x5; these sizes take seconds each
    found = c4_free_classes(m, n)
    assert len(found) == classes
    for images in found:
        assert any(
            is_canonical_assignment(BipartiteGraph(m, n, order))
            for order in row_orders(images)
        ), min(images)
