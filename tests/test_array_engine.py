"""Unit coverage of the numpy structure-of-arrays kernel.

The algorithm-level guarantees live in ``test_engine_equivalence.py``
and ``test_golden_regression.py``; this file pins down the machinery
underneath: registry gating when numpy is missing, the content-hashed
CSR layout LRU, the message-column growth and generation stamping, the
lazily materialized inboxes, and the vectorized broadcast's
partial-commit error semantics.

Everything except the registry-gating tests requires numpy; the gating
tests run on a numpy-less interpreter too (that is their point).
"""

from __future__ import annotations

import json

import pytest

from repro.campaign import Campaign, execute_campaign, RunStore
from repro.campaign.spec import graph_spec_for
from repro.exceptions import BandwidthExceededError, ConfigurationError, SimulationError
from repro.graphs import path_graph, random_connected_graph, star_graph
from repro.simulator import array_network as anmod
from repro.simulator.array_network import (
    ArrayNetwork,
    clear_layout_cache,
    csr_layout,
    layout_cache_info,
)
from repro.simulator.engine import (
    available_engines,
    create_engine,
    Engine,
    register_engine,
)

try:
    import numpy  # noqa: F401

    HAVE_NUMPY = True
except ImportError:
    HAVE_NUMPY = False

needs_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="needs numpy")


def _inbox_signature(inboxes):
    """Engine-independent projection of one round's deliveries."""
    return [
        (
            receiver,
            [
                (m.sender, m.receiver, m.kind, tuple(m.payload), m.words, m.sent_in_round)
                for m in inboxes[receiver]
            ],
        )
        for receiver in inboxes
    ]


def _hub(graph):
    """The maximum-degree vertex (the centre of a star)."""
    return max(graph.nodes(), key=lambda v: (graph.degree(v), -v))


# ---------------------------------------------------------------------- #
# registry gating (runs with and without numpy)
# ---------------------------------------------------------------------- #


class TestRegistryGating:
    def test_advertised_exactly_when_numpy_is_importable(self):
        assert ("array" in available_engines()) == HAVE_NUMPY

    def test_missing_numpy_yields_actionable_errors(self, small_random_graph):
        if HAVE_NUMPY:
            saved = anmod.np
            anmod.np = None
            anmod._register()
        try:
            assert "array" not in available_engines()
            with pytest.raises(ConfigurationError, match="numpy"):
                create_engine(small_random_graph, engine="array")
            with pytest.raises(ConfigurationError, match=r"\[fast\]"):
                ArrayNetwork(small_random_graph)
            with pytest.raises(ConfigurationError, match=r"\[fast\]"):
                csr_layout(small_random_graph)
        finally:
            if HAVE_NUMPY:
                anmod.np = saved
                anmod._register()
        if HAVE_NUMPY:
            assert "array" in available_engines()

    @needs_numpy
    def test_create_engine_returns_the_array_kernel(self, small_random_graph):
        engine = create_engine(small_random_graph, engine="array")
        assert isinstance(engine, ArrayNetwork)
        assert issubclass(ArrayNetwork, Engine)

    def test_unknown_engine_error_is_distinct_from_unavailable(self, small_random_graph):
        with pytest.raises(ConfigurationError, match="unknown"):
            create_engine(small_random_graph, engine="warp")


# ---------------------------------------------------------------------- #
# CSR layout LRU
# ---------------------------------------------------------------------- #


@needs_numpy
class TestLayoutCache:
    def test_equal_content_graphs_share_one_layout(self):
        clear_layout_cache()
        first = random_connected_graph(24, extra_edges=12, seed=9)
        second = random_connected_graph(24, extra_edges=12, seed=9)
        assert first is not second
        a = ArrayNetwork(first)
        before = layout_cache_info()
        b = ArrayNetwork(second)
        after = layout_cache_info()
        assert a._layout is b._layout
        assert after["hits"] == before["hits"] + 1
        assert after["misses"] == before["misses"]

    def test_different_content_misses(self):
        clear_layout_cache()
        ArrayNetwork(path_graph(10, seed=0))
        ArrayNetwork(path_graph(11, seed=0))
        info = layout_cache_info()
        assert info["misses"] == 2 and info["hits"] == 0

    def test_eviction_past_maxsize(self):
        clear_layout_cache()
        maxsize = layout_cache_info()["maxsize"]
        oldest = path_graph(4, seed=0)
        csr_layout(oldest)
        for n in range(5, 5 + maxsize):  # push maxsize more layouts
            csr_layout(path_graph(n, seed=0))
        info = layout_cache_info()
        assert info["size"] == maxsize
        # The least recently used entry (the first graph) was evicted:
        # asking for it again is a miss, not a hit.
        misses = info["misses"]
        csr_layout(oldest)
        assert layout_cache_info()["misses"] == misses + 1


# ---------------------------------------------------------------------- #
# kernel internals
# ---------------------------------------------------------------------- #


@needs_numpy
class TestKernelInternals:
    def test_message_columns_grow_geometrically(self):
        network = ArrayNetwork(path_graph(3, seed=0), bandwidth=64)
        start_cap = network._cap
        count = 2 * start_cap + 5
        for i in range(count):
            network.send(0, 1, "burst", payload=(i,))
        # Point sends are staged in Python lists; the columns only grow
        # when the staged run is flushed (here: at delivery, since the
        # round exceeds the eager limit).
        assert network.pending_count() == count
        assert network._cap == start_cap
        inboxes = network.deliver_round()
        assert network._cap >= count
        assert [m.payload[0] for m in inboxes[1]] == list(range(count))
        assert network.metrics.messages == count

    def test_pure_point_send_round_never_materializes_columns(self):
        network = ArrayNetwork(path_graph(4, seed=0), bandwidth=4)
        network.send(0, 1, "ping", payload=("a",))
        network.send(2, 1, "ping", payload=("b",))
        network.send(3, 2, "pong")
        assert network.pending_count() == 3
        assert network._fill == 0  # staged, not written to the columns
        inboxes = network.deliver_round()
        assert [m.payload for m in inboxes[1]] == [("a",), ("b",)]
        assert list(inboxes) == [1, 2]  # first-message receiver order
        assert network.metrics.words == 3
        assert network.pending_count() == 0

    def test_broadcast_flushes_staged_point_sends_in_order(self):
        graph = star_graph(8, seed=1)
        network = ArrayNetwork(graph, bandwidth=2)
        network.send(1, 0, "early")
        network.send_to_neighbors(0, "blast")  # flushes the staged send first
        network.send(2, 0, "late")
        inboxes = network.deliver_round()
        kinds = [m.kind for m in inboxes[0]]
        assert kinds == ["early", "late"]
        assert all(m.kind == "blast" for v, inbox in inboxes.items() if v != 0 for m in inbox)
        # Global send order: the hub's broadcast lands between the two
        # point sends at every receiver that sees both.
        assert network.metrics.messages == 2 + len(network.node(0).neighbors)

    def test_generation_stamping_resets_bandwidth_without_clearing(self):
        network = ArrayNetwork(path_graph(3, seed=0), bandwidth=2)
        network.send(0, 1, "a", words=2)
        with pytest.raises(BandwidthExceededError):
            network.send(0, 1, "over", words=1)
        network.deliver_round()
        # No counter was zeroed -- the generation base moved past it.
        network.send(0, 1, "b", words=2)
        with pytest.raises(BandwidthExceededError):
            network.send(0, 1, "over", words=1)
        network.deliver_round()
        network.deliver_round()
        network.send(0, 1, "c", words=2)
        assert network.pending_count() == 1

    def test_small_rounds_deliver_eager_plain_dicts(self):
        network = ArrayNetwork(path_graph(4, seed=0))
        network.send(1, 2, "x")
        inboxes = network.deliver_round()
        assert type(inboxes) is dict

    def test_large_rounds_deliver_lazy_inboxes(self):
        graph = star_graph(anmod._EAGER_DELIVERY_LIMIT + 9, seed=0)
        network = ArrayNetwork(graph)
        hub = _hub(graph)
        count = network.send_to_neighbors(hub, "wave")
        assert count == graph.degree(hub) > anmod._EAGER_DELIVERY_LIMIT
        inboxes = network.deliver_round()
        assert isinstance(inboxes, anmod._LazyInboxes)
        # len / membership / key order never materialize a message...
        leaves = sorted(graph.neighbors(hub))
        assert list(inboxes) == leaves
        view = inboxes[leaves[0]]
        assert len(view) == 1 and view
        assert view._list is None
        # ... and first per-message access materializes the exact
        # FastMessage rows the fast kernel would have delivered.
        message = view[0]
        assert view._list is not None
        assert (message.sender, message.receiver, message.kind) == (
            hub,
            leaves[0],
            "wave",
        )
        assert message.sent_in_round == 0
        assert view == [message]
        assert inboxes[leaves[-1]][0].receiver == leaves[-1]

    def test_lazy_delivery_matches_fast_kernel_exactly(self):
        graph = random_connected_graph(40, extra_edges=80, seed=13)
        signatures = []
        for engine in ("fast", "array"):
            network = create_engine(graph, bandwidth=2, engine=engine)
            for vertex in network.vertices():
                network.send_to_neighbors(vertex, "flood", payload=(vertex,))
            signatures.append(_inbox_signature(network.deliver_round()))
            assert network.metrics.messages == 2 * graph.number_of_edges()
        assert signatures[0] == signatures[1]

    def test_metrics_charged_as_reductions_match(self):
        graph = star_graph(40, seed=2)
        counts = {}
        for engine in ("reference", "fast", "array"):
            network = create_engine(graph, bandwidth=4, engine=engine)
            hub = _hub(graph)
            network.send_to_neighbors(hub, "a", words=3)
            network.send_to_neighbors(hub, "b", words=1)
            network.deliver_round()
            counts[engine] = (
                network.metrics.messages,
                network.metrics.words,
                dict(network.metrics.messages_by_kind),
            )
        assert counts["reference"] == counts["fast"] == counts["array"]


# ---------------------------------------------------------------------- #
# the vectorized broadcast
# ---------------------------------------------------------------------- #


@needs_numpy
class TestBroadcast:
    @pytest.mark.parametrize("exclude_origin", [False, True])
    def test_broadcast_equivalent_across_engines(self, exclude_origin):
        graph = random_connected_graph(30, extra_edges=45, seed=21)
        results = {}
        for engine in ("reference", "fast", "array"):
            network = create_engine(graph, bandwidth=2, engine=engine)
            rounds = []
            for vertex in sorted(network.vertices()):
                exclude = None
                if exclude_origin:
                    exclude = min(network.node(vertex).neighbors)
                network.send_to_neighbors(
                    vertex, "gossip", payload=(vertex,), exclude=exclude
                )
            rounds.append(_inbox_signature(network.deliver_round()))
            results[engine] = (rounds, network.metrics.messages, network.metrics.words)
        assert results["reference"] == results["fast"] == results["array"]

    def test_exclude_leaves_that_edge_uncharged(self):
        graph = star_graph(12, seed=1)
        hub = _hub(graph)
        network = ArrayNetwork(graph, bandwidth=1)
        leaves = sorted(graph.neighbors(hub))
        skipped = leaves[3]
        count = network.send_to_neighbors(hub, "wave", exclude=skipped)
        assert count == len(leaves) - 1
        network.send(hub, skipped, "direct")  # still within bandwidth
        with pytest.raises(BandwidthExceededError):
            network.send(hub, leaves[0], "direct")

    def test_partial_commit_and_error_identical_to_fast_kernel(self):
        graph = star_graph(10, seed=3)
        hub = _hub(graph)
        leaves = sorted(graph.neighbors(hub))
        blocked = leaves[4]
        outcomes = {}
        for engine in ("fast", "array"):
            network = create_engine(graph, bandwidth=1, engine=engine)
            network.send(hub, blocked, "pre")
            with pytest.raises(BandwidthExceededError) as excinfo:
                network.send_to_neighbors(hub, "bcast")
            network_inboxes = network.deliver_round()
            outcomes[engine] = (
                str(excinfo.value),
                network.metrics.messages,
                _inbox_signature(network_inboxes),
            )
        # Same error text, and the same prefix (every neighbour sorted
        # before the saturated edge) was committed before the raise.
        assert outcomes["fast"] == outcomes["array"]
        assert outcomes["array"][1] == 1 + leaves.index(blocked)

    def test_oversized_broadcast_raises_without_committing(self):
        graph = star_graph(10, seed=3)
        hub = _hub(graph)
        network = ArrayNetwork(graph, bandwidth=2)
        with pytest.raises(BandwidthExceededError):
            network.send_to_neighbors(hub, "huge", words=3)
        assert network.pending_count() == 0
        # Nothing was charged: every edge still fits a full-cap message.
        assert network.send_to_neighbors(hub, "fits", words=2) == graph.degree(hub)

    def test_broadcast_from_unknown_vertex_raises(self):
        network = ArrayNetwork(path_graph(4, seed=0))
        with pytest.raises(SimulationError, match="unknown vertex"):
            network.send_to_neighbors(10_000, "ghost")

    def test_zero_word_broadcast_rejected(self):
        graph = star_graph(10, seed=3)
        network = ArrayNetwork(graph, bandwidth=2)
        with pytest.raises(ValueError):
            network.send_to_neighbors(_hub(graph), "empty", words=0)
        assert network.pending_count() == 0


# ---------------------------------------------------------------------- #
# batched campaigns on the array engine
# ---------------------------------------------------------------------- #


def _array_grid() -> Campaign:
    graphs = [
        graph_spec_for("random_connected", 20),
        graph_spec_for("planted_fragments", 16),
    ]
    return Campaign.from_grid(
        "array-eq",
        graphs,
        algorithms=("elkin", "ghs"),
        bandwidths=(1, 2),
        engines=("array",),
        seeds=(0, 1),
    )


@needs_numpy
class TestBatchedArrayCampaign:
    def test_rows_and_store_records_byte_identical(self, tmp_path):
        campaign = _array_grid()
        with RunStore(tmp_path / "serial.jsonl") as serial_store:
            serial = execute_campaign(campaign, store=serial_store, batch=False)
        with RunStore(tmp_path / "batched.jsonl") as batched_store:
            batched = execute_campaign(campaign, store=batched_store, batch=True)
        assert serial.rows == batched.rows
        assert serial_store.run_keys() == batched_store.run_keys()
        for spec in campaign.specs:
            key = spec.run_key()
            assert json.dumps(serial_store.get_row(key), sort_keys=True) == json.dumps(
                batched_store.get_row(key), sort_keys=True
            )
            assert (
                serial_store.get_result(key).to_json_dict()
                == batched_store.get_result(key).to_json_dict()
            )

    def test_batched_stands_down_when_array_engine_is_replaced(self):
        # A re-registered "array" kernel must be honoured: the batch
        # runner builds every cell's kernel through the registry.
        created = []

        class CountingArray(ArrayNetwork):
            __slots__ = ()

            def __init__(self, graph, bandwidth=1, validate=True):
                created.append(id(graph))
                super().__init__(graph, bandwidth=bandwidth, validate=validate)

        register_engine("array", CountingArray)
        try:
            campaign = Campaign.from_grid(
                "swapped-array",
                [graph_spec_for("random_connected", 16)],
                algorithms=("elkin",),
                engines=("array",),
                seeds=(0,),
            )
            report = execute_campaign(campaign, batch=True)
            assert created, "replacement engine was never constructed"
            assert report.executed == 1
        finally:
            register_engine("array", ArrayNetwork)
