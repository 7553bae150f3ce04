"""Tests for S5: the per-level significance variance scan."""

import pytest

from repro.scorpio import DynDFG, find_significance_variance, level_variance
from repro.scorpio.dyndfg import DFGNode


def node(nid, parents=(), op="op", sig=None):
    return DFGNode(
        id=nid,
        op=op,
        label=None,
        value=1.0,
        adjoint=None,
        significance=sig,
        parents=tuple(parents),
    )


def layered(sig_by_level):
    """Build a graph with one output and given significances per level."""
    nodes = [node(0, op="out", sig=1.0)]
    nid = 1
    prev_level = [0]
    for sigs in sig_by_level:
        current = []
        for s in sigs:
            nodes.append(node(nid, (0,) if prev_level == [0] else tuple(prev_level[:1]), sig=s))
            current.append(nid)
            nid += 1
        # Wire this whole level as parents of one node of the previous level.
        target = nodes[prev_level[0]]
        target.parents = tuple(current)
        prev_level = current
    # Rebuild with correct parents.
    return DynDFG(nodes, outputs=[0])


class TestLevelVariance:
    def test_uniform_level_zero_variance(self):
        g = layered([[0.5, 0.5, 0.5]])
        assert level_variance(g, 1) == 0.0

    def test_varying_level_positive(self):
        g = layered([[0.1, 0.9]])
        assert level_variance(g, 1) == pytest.approx(0.16)

    def test_single_node_level_zero(self):
        g = layered([[0.7]])
        assert level_variance(g, 1) == 0.0

    def test_unscored_counts_as_zero(self):
        g = layered([[None, 0.8]])
        assert level_variance(g, 1) == pytest.approx(0.16)


class TestScan:
    def test_finds_first_varying_level(self):
        g = layered([[0.5, 0.5], [0.1, 0.9]])
        scan = find_significance_variance(g, delta=1e-3)
        assert scan.found_level == 2

    def test_truncates_above_found_level(self):
        g = layered([[0.5, 0.5], [0.1, 0.9], [0.3, 0.3]])
        scan = find_significance_variance(g, delta=1e-3)
        assert scan.graph.height <= scan.found_level + 2

    def test_no_variance_returns_whole_graph(self):
        g = layered([[0.5, 0.5], [0.4, 0.4]])
        scan = find_significance_variance(g, delta=1e-3)
        assert scan.found_level is None
        assert len(scan.graph) == len(g)

    def test_task_nodes_at_found_level(self):
        g = layered([[0.1, 0.9]])
        scan = find_significance_variance(g, delta=1e-3)
        assert {n.significance for n in scan.task_nodes} == {0.1, 0.9}

    def test_task_nodes_fall_back_to_inputs(self):
        g = layered([[0.5, 0.5]])
        scan = find_significance_variance(g, delta=1e-3)
        assert scan.task_nodes == scan.graph.inputs()

    def test_delta_controls_sensitivity(self):
        g = layered([[0.5, 0.52]])
        assert find_significance_variance(g, delta=1.0).found_level is None
        assert find_significance_variance(g, delta=1e-6).found_level == 1

    def test_variances_recorded(self):
        g = layered([[0.5, 0.5], [0.1, 0.9]])
        scan = find_significance_variance(g, delta=1e-3)
        assert 1 in scan.variances and 2 in scan.variances
        assert scan.variances[1] == 0.0


class TestSquares:
    """The variance squares deviations as IEEE products, and a finite
    deviation whose square overflows raises as ``d ** 2`` does, in the
    object scan, the compiled scan and the lane scan alike."""

    def test_square_is_the_product(self):
        from repro.scorpio.variance import squared_deviations

        sigs = [-458.7228991098864, 78.48650741311735, 816.6283851054695]
        mean = sum(sigs) / len(sigs)
        assert squared_deviations(sigs, mean) == sum(
            (s - mean) * (s - mean) for s in sigs
        )

    def test_overflow_raises_in_every_scan(self):
        import numpy as np

        from repro.scorpio.compiled import _scan_columns, scan_grouped

        graph = layered([[1e200, -1e200]])
        with pytest.raises(OverflowError):
            level_variance(graph, 1)
        with pytest.raises(OverflowError):
            scan_grouped({0: [0], 1: [1, 2]}, [1.0, 1e200, -1e200], 1e-6)
        with pytest.raises(OverflowError):
            _scan_columns(
                np.array([[1.0, 1.0], [1e200, 1.0], [-1e200, 2.0]]),
                (2,),
                {0: [0], 1: [1, 2]},
                delta=1e-6,
            )

    def test_infinite_significance_does_not_raise(self):
        graph = layered([[float("inf"), 1.0]])
        assert level_variance(graph, 1) != level_variance(graph, 1)  # NaN
