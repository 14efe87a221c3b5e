"""Error-path coverage for :mod:`repro.exceptions` across the layers.

Asserts two properties of every name-lookup failure (algorithm, engine,
preset, graph family): the raised type sits in the ``ReproError``
hierarchy, and the message *lists the available options*, so a sweep
typo is a one-glance fix.  Also covers the exception taxonomy itself and
the actionable messages of scenario validation.
"""

from __future__ import annotations

import math
import re

import networkx as nx
import pytest

from repro import compute_mst, GraphSpec, RunConfig, Runner
from repro.algorithms import algorithm_info, available_algorithms, run_algorithm
from repro.analysis.experiments import run_single
from repro.api import Scenario
from repro.campaign.presets import available_presets, preset_campaign
from repro.campaign.spec import graph_spec_for
from repro.exceptions import (
    ConfigurationError,
    DisconnectedGraphError,
    GraphError,
    ReproError,
    WeightError,
)
from repro.graphs.generators import make_graph, random_connected_graph
from repro.simulator.engine import available_engines, create_engine, engine_wrapper


class TestUnknownNamesListOptions:
    def test_unknown_algorithm_lists_all_registered(self):
        with pytest.raises(ConfigurationError) as excinfo:
            run_algorithm(random_connected_graph(6, seed=0), "bellman-ford", RunConfig())
        message = str(excinfo.value)
        for name in available_algorithms():
            assert name in message

    def test_algorithm_info_raises_the_same_message(self):
        with pytest.raises(ConfigurationError, match="available:"):
            algorithm_info("bogus")

    def test_unknown_engine_lists_all_registered(self):
        with pytest.raises(ConfigurationError) as excinfo:
            create_engine(random_connected_graph(6, seed=0), engine="hyperdrive")
        message = str(excinfo.value)
        for name in available_engines():
            assert name in message

    def test_unknown_preset_lists_all_presets(self):
        with pytest.raises(ConfigurationError) as excinfo:
            preset_campaign("e99-imaginary")
        message = str(excinfo.value)
        for name in available_presets():
            assert name in message

    def test_unknown_family_lists_known_families(self):
        with pytest.raises(GraphError, match="random_connected"):
            make_graph("mystery", n=10)
        with pytest.raises(ConfigurationError, match="known families"):
            graph_spec_for("mystery", 10)


class TestErrorHierarchy:
    def test_every_lookup_error_is_a_repro_error(self):
        for raiser in (
            lambda: run_algorithm(random_connected_graph(5, seed=0), "nope", RunConfig()),
            lambda: create_engine(random_connected_graph(5, seed=0), engine="nope"),
            lambda: preset_campaign("nope"),
            lambda: make_graph("nope", n=5),
        ):
            with pytest.raises(ReproError):
                raiser()

    def test_configuration_error_is_catchable_as_base(self):
        try:
            RunConfig(bandwidth=0)
        except ReproError as error:
            assert isinstance(error, ConfigurationError)
        else:  # pragma: no cover - the construction must raise
            pytest.fail("RunConfig(bandwidth=0) did not raise")


class TestScenarioValidationMessages:
    def test_disconnected_graph_message_is_actionable(self):
        graph = nx.Graph()
        graph.add_edge(0, 1, weight=1.0)
        graph.add_edge(2, 3, weight=2.0)
        graph.add_edge(4, 5, weight=3.0)
        with pytest.raises(DisconnectedGraphError) as excinfo:
            Scenario(graph=graph)
        message = str(excinfo.value)
        assert "3 components" in message
        assert "connected" in message

    def test_bandwidth_message_names_the_model(self):
        config = RunConfig()
        config.bandwidth = -2
        with pytest.raises(ConfigurationError, match="CONGEST"):
            Scenario(graph=GraphSpec("path", {"n": 4, "seed": 0}), config=config)

    def test_config_type_error_names_the_offender(self):
        from repro.config import normalize_config

        with pytest.raises(ConfigurationError, match="int"):
            normalize_config(4)  # a classic: bandwidth passed positionally


class TestNonFiniteWeightsNeverReachTheStore:
    """An infinite weight is rejected before any run, sequential ones included."""

    @pytest.mark.parametrize("algorithm", ["elkin", "kruskal"])
    @pytest.mark.parametrize(
        "edges",
        [
            [(0, 1, 1.0), (1, 2, math.inf), (0, 2, 3.0), (2, 3, 2.0)],
            [(0, 1, 1.0), (1, 2, math.inf)],
        ],
        ids=["off-mst", "on-mst"],
    )
    def test_infinite_weight_raises_and_writes_nothing(self, tmp_path, algorithm, edges):
        path = tmp_path / "runs.jsonl"
        with pytest.raises(WeightError, match=r"edge \(1, 2\) has weight inf"):
            Runner(store=path).run(Scenario(graph=edges, algorithm=algorithm))
        assert not path.exists() or "Infinity" not in path.read_text(encoding="utf-8")


class TestSelfLoopsAreRejected:
    """CONGEST has no link from a vertex to itself, so validation rejects a loop."""

    @staticmethod
    def _looped_graph():
        graph = random_connected_graph(40, seed=2)
        graph.add_edge(5, 5, weight=1e-3)
        return graph

    @pytest.mark.parametrize("engine", sorted(available_engines()))
    @pytest.mark.parametrize(
        "algorithm",
        [name for name in available_algorithms() if algorithm_info(name).is_distributed],
    )
    def test_every_distributed_runner_refuses_a_loop(self, algorithm, engine):
        # A loop used to pass validation: compute_mst sent five extra
        # messages over it, and run_single failed later with a bare
        # ValueError from normalize_edge.
        with pytest.raises(GraphError, match=r"edge \(5, 5\) is a self-loop"):
            run_algorithm(self._looped_graph(), algorithm, RunConfig(engine=engine))

    @pytest.mark.parametrize(
        "algorithm",
        [name for name in available_algorithms() if not algorithm_info(name).is_distributed],
    )
    def test_every_sequential_runner_refuses_a_loop(self, algorithm):
        # run_single used to fail here with a bare ValueError from
        # normalize_edge, while elkin raised this GraphError.
        message = r"^edge \(5, 5\) is a self-loop; CONGEST links join two vertices$"
        with pytest.raises(GraphError, match=message):
            run_single(self._looped_graph(), algorithm=algorithm)

    @pytest.mark.parametrize("algorithm", ["elkin", "kruskal"])
    def test_a_scenario_over_a_looped_graph_fails_its_build(self, algorithm):
        with pytest.raises(GraphError, match=r"edge \(5, 5\) is a self-loop"):
            Runner().run(Scenario(graph=self._looped_graph(), algorithm=algorithm))


class TestVertexIdentitiesMustBeNonNegativeIntegers:
    """Controlled-GHS colours fragments by their root's identity.

    ``elkin``, ``prs`` and ``gkp`` run it, so they reject a graph whose
    vertices are not non-negative integers before the run sends a
    message.  They used to fail late, after the BFS stage: negative
    labels with a ``ProtocolError``, strings with a bare ``ValueError``
    and tuples with a bare ``TypeError``; float labels were truncated.
    ``ghs`` and the sequential references never read an identity's
    value, and accept these graphs.
    """

    #: case -> (relabelling of ``random_connected_graph(120, seed=1)``,
    #: the first vertex the error names)
    RELABELLINGS = {
        "negative": (lambda v: v - 60, -60),
        "string": (lambda v: f"v{v}", "v0"),
        "tuple": (lambda v: (v, v), (0, 0)),
        "float": (lambda v: v + 0.5, 0.5),
    }

    def _graph(self, case):
        relabel, _ = self.RELABELLINGS[case]
        return nx.relabel_nodes(random_connected_graph(120, seed=1), relabel)

    @pytest.mark.parametrize("engine", ["reference", "fast"])
    @pytest.mark.parametrize("case", sorted(RELABELLINGS))
    def test_controlled_ghs_runners_refuse_before_round_one(self, case, engine):
        graph = self._graph(case)
        first = self.RELABELLINGS[case][1]
        message = re.escape(f"vertex {first!r} is not a non-negative integer")
        built = []

        def record(engine_obj, *_):
            built.append(engine_obj)
            return engine_obj

        with engine_wrapper(record):
            for algorithm in ("elkin", "prs", "gkp"):
                with pytest.raises(GraphError, match=message):
                    run_algorithm(graph, algorithm, RunConfig(engine=engine))
        assert built == []

    @pytest.mark.parametrize("engine", ["reference", "fast"])
    def test_two_floats_that_truncate_alike_are_refused_too(self, engine):
        # They used to fail in Cole-Vishkin: "0.7 and 0.5 share 0".
        graph = nx.Graph()
        graph.add_edge(0.5, 0.7, weight=1.0)
        with pytest.raises(GraphError, match=r"vertex 0\.5 is not"):
            compute_mst(graph, RunConfig(engine=engine))

    @pytest.mark.parametrize("case", sorted(RELABELLINGS))
    def test_ghs_and_the_sequential_references_accept_them(self, case):
        graph = self._graph(case)
        expected = nx.minimum_spanning_tree(graph).size(weight="weight")
        for algorithm in ("ghs", "kruskal", "prim", "prim_dense", "boruvka_seq"):
            result = run_algorithm(graph, algorithm, RunConfig(engine="fast"))
            assert len(result.edges) == 119
            assert result.total_weight == pytest.approx(expected)
