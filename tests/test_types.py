"""Tests for the shared type helpers (repro.types)."""

from __future__ import annotations

import pytest

from repro.types import CostReport, EdgeKey, normalize_edge, normalize_edges


class TestNormalizeEdge:
    def test_orders_endpoints(self):
        assert normalize_edge(5, 2) == (2, 5)
        assert normalize_edge(2, 5) == (2, 5)

    def test_preserves_already_sorted(self):
        assert normalize_edge(0, 1) == (0, 1)

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            normalize_edge(3, 3)

    def test_normalize_edges_deduplicates(self):
        edges = [(1, 2), (2, 1), (3, 4)]
        assert normalize_edges(edges) == {(1, 2), (3, 4)}


class TestEdgeKey:
    def test_orders_by_weight_first(self):
        light = EdgeKey.of(9, 8, 1.0)
        heavy = EdgeKey.of(0, 1, 2.0)
        assert light < heavy

    def test_breaks_ties_lexicographically(self):
        first = EdgeKey.of(0, 5, 1.0)
        second = EdgeKey.of(1, 2, 1.0)
        assert first < second

    def test_edge_property_is_canonical(self):
        key = EdgeKey.of(7, 3, 1.5)
        assert key.edge == (3, 7)

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            EdgeKey.of(2, 2, 1.0)


class TestCostReport:
    def test_addition_sums_all_fields(self):
        total = CostReport(rounds=2, messages=5, words=7) + CostReport(rounds=3, messages=1, words=2)
        assert (total.rounds, total.messages, total.words) == (5, 6, 9)

    def test_default_is_zero(self):
        report = CostReport()
        assert report.rounds == 0 and report.messages == 0 and report.words == 0
