"""A distributed run pauses Python's cyclic garbage collector, and only while it runs.

``compute_mst`` (and through it ``prs``), ``ghs`` and ``gkp`` disable
the collector for the whole run: the objects a simulation allocates form
no reference cycles, so the collections it used to trigger freed
nothing.  The contract checked here:

* no collection runs while a runner's body is on the stack;
* a clean run leaves no cyclic garbage, which is what makes the pause
  safe;
* the collector is enabled again after a run that returns and after
  runs that raise (non-termination under crash-stop, a protocol that
  does not converge, a rejected graph);
* a caller who turned the collector off finds it off afterwards;
* a run nested inside another run leaves it off until the outer run
  ends.
"""

from __future__ import annotations

import gc
import inspect
import sys

import networkx as nx
import pytest

from repro import compute_mst, RunConfig
from repro.analysis.experiments import run_single
from repro.baselines import ghs_style_mst, gkp_mst, prs_style_mst
from repro.exceptions import ConvergenceError, GraphError, NonTerminationError
from repro.graphs import make_graph, random_connected_graph
from repro.simulator.engine import engine_wrapper

try:
    import numpy  # noqa: F401

    HAVE_NUMPY = True
except ImportError:
    HAVE_NUMPY = False

RUNNERS = (compute_mst, ghs_style_mst, gkp_mst, prs_style_mst)

#: The body that holds the pause for each runner; ``prs`` runs
#: ``compute_mst``.
PAUSED_BODY = {
    runner: inspect.unwrap(compute_mst if runner is prs_style_mst else runner).__code__
    for runner in RUNNERS
}


@pytest.fixture(autouse=True)
def collector_enabled():
    """Every test starts with the collector on, and leaves it as it found it."""
    was_enabled = gc.isenabled()
    gc.enable()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


def collections_inside(body, call) -> list:
    """Generations of the collections that start while ``body`` is on the stack.

    The count of allocations grows while the collector is paused, so the
    first allocation after the run may collect at once; that collection
    is after the run, not inside it.
    """
    seen = []

    def callback(phase, info):
        if phase != "start":
            return
        frame = sys._getframe(1)
        while frame is not None:
            if frame.f_code is body:
                seen.append(info["generation"])
                return
            frame = frame.f_back

    gc.callbacks.append(callback)
    try:
        call()
    finally:
        gc.callbacks.remove(callback)
    return seen


@pytest.mark.parametrize("runner", RUNNERS, ids=lambda f: f.__name__)
def test_a_run_triggers_no_collection(runner):
    graph = random_connected_graph(200, seed=1)
    config = RunConfig(engine="fast")
    assert collections_inside(PAUSED_BODY[runner], lambda: runner(graph, config)) == []
    assert gc.isenabled()


def garbage_left_by(run) -> int:
    """Objects in cycles that ``run`` leaves, after a warm-up run."""
    run()
    gc.collect()
    gc.disable()
    run()
    return gc.collect()


@pytest.mark.parametrize(
    "engine",
    (
        "fast",
        "reference",
        pytest.param(
            "array", marks=pytest.mark.skipif(not HAVE_NUMPY, reason="needs numpy")
        ),
    ),
)
@pytest.mark.parametrize("runner", RUNNERS, ids=lambda f: f.__name__)
def test_a_clean_run_leaves_no_cyclic_garbage(runner, engine):
    # What makes the pause safe: reference counting frees everything a
    # run allocates, so nothing waits for a collection while it lasts.
    graph = random_connected_graph(60, seed=8)
    assert garbage_left_by(lambda: runner(graph, RunConfig(engine=engine))) == 0


@pytest.mark.parametrize("condition", ("lossy", "delayed", "heavy-delay"))
@pytest.mark.parametrize("algorithm", ("elkin", "ghs", "gkp", "prs"))
def test_a_conditioned_run_leaves_no_cyclic_garbage(algorithm, condition):
    graph = make_graph("random_connected", n=40, seed=9)
    assert garbage_left_by(
        lambda: run_single(graph, algorithm=algorithm, seed=9, condition=condition)
    ) == 0


def test_the_probe_sees_collections_when_nothing_pauses_them():
    # Guards the test above against a probe that can never fire.
    def allocate():
        return [[] for _ in range(20_000)]

    assert collections_inside(allocate.__code__, allocate)


@pytest.mark.parametrize("runner", RUNNERS, ids=lambda f: f.__name__)
def test_the_collector_is_enabled_after_a_run_returns(runner):
    runner(random_connected_graph(30, seed=2), RunConfig(engine="fast"))
    assert gc.isenabled()


@pytest.mark.parametrize("algorithm", ("elkin", "ghs", "gkp", "prs"))
def test_the_collector_is_enabled_after_a_crash_stop_run(algorithm):
    graph = make_graph("random_connected", n=24, seed=3)
    with pytest.raises(NonTerminationError):
        run_single(graph, algorithm=algorithm, seed=0, condition="crash-stop")
    assert gc.isenabled()


def _deliver_nothing(engine, graph, bandwidth, name):
    """A kernel whose sent messages stay pending forever."""
    engine.deliver_round = dict
    return engine


@pytest.mark.parametrize("runner", RUNNERS, ids=lambda f: f.__name__)
def test_the_collector_is_enabled_after_a_run_that_does_not_converge(runner):
    graph = random_connected_graph(12, seed=4)
    with engine_wrapper(_deliver_nothing), pytest.raises(ConvergenceError):
        runner(graph, RunConfig(engine="reference"))
    assert gc.isenabled()


@pytest.mark.parametrize("runner", RUNNERS, ids=lambda f: f.__name__)
def test_the_collector_is_enabled_after_a_rejected_graph(runner):
    graph = nx.Graph()
    graph.add_edge(0, 1, weight=1.0)
    graph.add_edge(1, 1, weight=2.0)
    with pytest.raises(GraphError, match="self-loop"):
        runner(graph, RunConfig(engine="fast"))
    assert gc.isenabled()


@pytest.mark.parametrize("runner", RUNNERS, ids=lambda f: f.__name__)
def test_a_caller_who_turned_the_collector_off_keeps_it_off(runner):
    gc.disable()
    runner(random_connected_graph(30, seed=5), RunConfig(engine="fast"))
    assert not gc.isenabled()
    graph = nx.Graph()
    graph.add_edge(0, 0, weight=1.0)
    with pytest.raises(GraphError):
        runner(graph, RunConfig(engine="fast"))
    assert not gc.isenabled()


def test_a_nested_run_leaves_the_collector_off_until_the_outer_run_ends():
    inner_graph = random_connected_graph(20, seed=6)
    after_inner = []

    def run_inside(engine, graph, bandwidth, name):
        if graph is not inner_graph and not after_inner:
            gkp_mst(inner_graph, RunConfig(engine="fast"))
            after_inner.append(gc.isenabled())
        return engine

    with engine_wrapper(run_inside):
        compute_mst(random_connected_graph(30, seed=7), RunConfig(engine="fast"))
    assert after_inner == [False]
    assert gc.isenabled()
