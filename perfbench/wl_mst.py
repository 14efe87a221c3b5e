"""mst-dense and mst-deep: one ``compute_mst`` call per operation.

Each run generates several graphs of the workload's family from its
seed (the first with the seed itself) and cycles through them, so
``op_s`` averages over instances instead of riding on one draw of edge
weights.  The traced run wraps, from here and for the traced operation
only:

* ``run_protocol`` where each ``primitives/*`` module bound it by name
  (rounds, vertex visits and ``on_round`` calls per protocol);
* ``deliver_round`` on the kernel classes (the kernel's own time);
* ``create_engine`` through the ``engine_provider`` seam, which hands
  the benchmark the engine so its ``Metrics.messages_by_kind`` splits
  messages by protocol namespace.
"""

from __future__ import annotations

import contextlib
import random
import statistics
import sys
from collections import Counter
from typing import Any, Dict, Iterator, List, Optional, Tuple

from catalog import DEFAULT_SEED, PROTOCOLS, STAGES
from harness import (
    Measurement,
    mean_residual_seconds,
    mean_span_seconds,
    Op,
    patched,
    per_key_mean,
    Tracer,
)

from repro import compute_mst
from repro.analysis.bounds import elkin_message_bound_formula, elkin_time_bound_formula
from repro.config import RunConfig
from repro.exceptions import VerificationError
from repro.graphs import hop_diameter, path_graph, random_connected_graph
from repro.simulator import protocol as protocol_module
from repro.simulator.array_network import ArrayNetwork
from repro.simulator.engine import engine_provider, registered_factory
from repro.simulator.fast_network import FastNetwork
from repro.simulator.network import SyncNetwork
from repro.verify.mst_checks import MSTOracle

#: size -> workload -> (generator, n, graphs per run)
SIZES = {
    "full": {
        "mst-dense": (random_connected_graph, 2000, 8),
        "mst-deep": (path_graph, 500, 16),
    },
    "toy": {
        "mst-dense": (random_connected_graph, 60, 2),
        "mst-deep": (path_graph, 30, 2),
    },
}

#: (workload, size) -> (rounds, messages) of the default seed's first graph
PINS: Dict[Tuple[str, str], Tuple[int, int]] = {
    ("mst-dense", "full"): (1513, 332_724),
    ("mst-deep", "full"): (9410, 62_545),
    ("mst-dense", "toy"): (190, 4112),
    ("mst-deep", "toy"): (633, 1959),
}

KERNEL_CLASSES = (FastNetwork, SyncNetwork, ArrayNetwork)


def run_protocol_bindings(original: Any) -> List[Any]:
    """Modules that imported ``run_protocol`` by name (the primitives)."""
    return [
        module
        for name, module in sorted(sys.modules.items())
        if name.startswith("repro.")
        and name != protocol_module.__name__
        and getattr(module, "run_protocol", None) is original
    ]


@contextlib.contextmanager
def mst_tracing(tracer: Tracer) -> Iterator[None]:
    """Record driver, primitive and kernel spans into ``tracer``."""
    original = protocol_module.run_protocol

    def traced_run_protocol(network: Any, protocol: Any, max_rounds: Optional[int] = None) -> Any:
        namespace = protocol.name
        before = network.checkpoint()
        own_on_round = vars(protocol).get("on_round")
        on_round = protocol.on_round
        calls = [0]

        def counted_on_round(vertex: Any, node: Any, api: Any, inbox: Any) -> Any:
            calls[0] += 1
            return on_round(vertex, node, api, inbox)

        protocol.on_round = counted_on_round
        try:
            return tracer.timed(f"proto.{namespace}", original, network, protocol, max_rounds)
        finally:
            if own_on_round is None:
                del protocol.on_round
            else:
                protocol.on_round = own_on_round
            rounds = network.cost_since(before).rounds
            tracer.counts[f"proto.{namespace}.rounds"] += rounds
            tracer.counts["driver.visits"] += len(protocol.participants) * rounds
            tracer.counts["driver.on_round_calls"] += calls[0]

    def capture_engine(graph: Any, bandwidth: int, engine_name: str) -> Any:
        factory = registered_factory(engine_name)
        if factory is None:
            return None
        built = factory(graph, bandwidth=bandwidth, validate=False)
        tracer.engines.append(built)
        return built

    with contextlib.ExitStack() as stack:
        for module in run_protocol_bindings(original):
            stack.enter_context(patched(module, "run_protocol", traced_run_protocol))
        for cls in KERNEL_CLASSES:
            deliver = vars(cls)["deliver_round"]
            stack.enter_context(
                patched(cls, "deliver_round", tracer.wrap("kernel.deliver", deliver))
            )
        stack.enter_context(engine_provider(capture_engine))
        yield


def messages_by_namespace(engine: Any) -> Counter:
    """``Metrics.messages_by_kind`` folded onto protocol namespaces."""
    totals: Counter = Counter()
    for kind, count in engine.metrics.messages_by_kind.items():
        totals[kind.split(":", 1)[0]] += count
    return totals


def message_bound_split(n: int, m: int) -> Dict[str, float]:
    """Theorem 3.1's message bound, split into its two terms.

    Both terms come from :func:`elkin_message_bound_formula` itself:
    with unit constant and no slack it is ``m log n + n log n log* n``,
    and with ``m = 0`` only the second term remains.
    """
    both = elkin_message_bound_formula(n, m, constant=1.0, slack=0)
    n_term = elkin_message_bound_formula(n, 0, constant=1.0, slack=0)
    return {
        "m_log_n": both - n_term,
        "n_log_n_log_star_n": n_term,
        "m_log_n_share": (both - n_term) / both,
        "bound": elkin_message_bound_formula(n, m),
    }


class MstWorkload:
    """``compute_mst`` over generated graphs (the fast engine unless told otherwise)."""

    def __init__(self, name: str, seed: int, size: str, engine: str = "fast") -> None:
        self.name = name
        self.config = RunConfig(engine=engine)
        self._generator, self._n, count = SIZES[size][name]
        rng = random.Random(seed)
        self._graph_seeds = [seed] + [rng.randrange(2**31) for _ in range(count - 1)]
        self._pin = PINS.get((name, size)) if seed == DEFAULT_SEED else None
        self.graphs: List[Any] = []
        self._oracles: Dict[int, MSTOracle] = {}
        self._counts: Dict[int, Tuple[int, int]] = {}

    # -- harness protocol --------------------------------------------------

    def instances(self) -> int:
        return len(self._graph_seeds)

    def setup(self) -> None:
        self.graphs = [self._generator(self._n, seed=seed) for seed in self._graph_seeds]

    def prepare(self, key: int) -> None:
        pass

    def cleanup(self, key: int) -> None:
        pass

    def op(self, key: int, tracer: Optional[Tracer]) -> Tuple[Any, Dict[str, float]]:
        graph = self.graphs[key]
        if tracer is None:
            return compute_mst(graph, self.config), {}
        with mst_tracing(tracer):
            return tracer.timed("core", compute_mst, graph, self.config), {}

    def check(self, key: int, result: Any) -> List[str]:
        """Oracle panel, determinism, stage accounting and the seed pin."""
        errors = []
        oracle = self._oracles.get(key)
        if oracle is None:
            oracle = self._oracles[key] = MSTOracle(self.graphs[key])
        try:
            oracle.verify(result)
        except VerificationError as error:
            errors.append(f"graph {key}: {error}")
        counts = (result.rounds, result.messages)
        if self._counts.setdefault(key, counts) != counts:
            errors.append(f"graph {key}: costs {counts} differ from {self._counts[key]}")
        stages = result.details["stage_costs"]
        staged = (
            sum(stages[name]["rounds"] for name in STAGES),
            sum(stages[name]["messages"] for name in STAGES),
        )
        if staged != counts:
            errors.append(f"graph {key}: stage costs sum to {staged}, run cost {counts}")
        if key == 0 and self._pin is not None and counts != self._pin:
            errors.append(f"pinned (rounds, messages) {self._pin}, got {counts}")
        return errors

    # -- reporting ---------------------------------------------------------

    def headline(self, measurement: Measurement) -> Dict[str, float]:
        ops = [op for op in measurement.untraced if not op.errors]
        return {
            "mst_s": per_key_mean(ops, lambda op: op.calibrated),
            "sim_msgs_per_s": per_key_mean(
                ops, lambda op: self._counts[op.key][1] / op.calibrated
            ),
        }

    def bound_metrics(self, result: Any) -> Dict[str, float]:
        split = message_bound_split(result.n, result.m)
        round_bound = elkin_time_bound_formula(
            result.n, hop_diameter(self.graphs[0]), result.bandwidth
        )
        return {
            "bound.message_ratio": result.messages / split["bound"],
            "bound.round_ratio": result.rounds / round_bound,
            "bound.m_log_n_share": split["m_log_n_share"],
        }

    def bound_lines(self, measurement: Measurement) -> List[str]:
        first = next(
            (op for op in measurement.ops if op.key == 0 and not op.errors), None
        )
        if first is None:
            return []
        result = first.output
        split = message_bound_split(result.n, result.m)
        return [
            f"Theorem 3.1 message bound, graph 0 (n={result.n}, m={result.m}):",
            f"  m*log n term            {split['m_log_n']:>12.0f}"
            f"  ({split['m_log_n_share']:.1%} of the bound's terms)",
            f"  n*log n*log* n term     {split['n_log_n_log_star_n']:>12.0f}",
            f"  measured messages       {result.messages:>12d}"
            f"  = {result.messages / split['bound']:.4f} x the bound (12x terms + 300)",
        ]

    def layers(self, measurement: Measurement) -> Tuple[Dict[str, float], List[str]]:
        """Per-layer metrics of the traced operations, and report lines.

        Counts come from the first traced operation (always graph 0, so
        they are a function of the seed alone); seconds are means over
        every traced operation.
        """
        for op in measurement.traced:
            if not op.errors:
                op.errors.extend(self._trace_consistency(op))
        traced = [op for op in measurement.traced if not op.errors]
        if not traced:
            return {}, ["no traced operation succeeded"]
        first = traced[0]
        counts, result = first.tracer.counts, first.output
        engine = first.tracer.engines[0]
        by_namespace = messages_by_namespace(engine)
        visits = counts["driver.visits"]
        metrics: Dict[str, float] = {
            "driver.rounds": result.rounds,
            "driver.visits": visits,
            "driver.on_round_calls": counts["driver.on_round_calls"],
            "driver.idle_frac": 1.0 - counts["driver.on_round_calls"] / visits,
            "driver.msgs_per_visit": result.messages / visits,
            "kernel.deliver_s": mean_span_seconds(traced, "kernel.deliver"),
            "kernel.messages": engine.metrics.messages,
            "kernel.words": engine.metrics.words,
            "kernel.us_per_msg": 1e6
            * sum(op.tracer.seconds["kernel.deliver"] for op in traced)
            / sum(op.tracer.engines[0].metrics.messages for op in traced),
            "core.local_s": mean_span_seconds(traced, "core"),
            "mst.other_s": mean_residual_seconds(traced),
            **self.bound_metrics(result),
        }
        for namespace in PROTOCOLS:
            metrics[f"proto.{namespace}.rounds"] = counts[f"proto.{namespace}.rounds"]
            metrics[f"proto.{namespace}.messages"] = by_namespace[namespace]
            metrics[f"proto.{namespace}.s"] = mean_span_seconds(traced, f"proto.{namespace}")
        for stage in STAGES:
            for field in ("rounds", "messages"):
                metrics[f"stage.{stage}.{field}"] = result.details["stage_costs"][stage][field]
        return metrics, self._tables(metrics, traced)

    @staticmethod
    def _trace_consistency(op: Op) -> List[str]:
        """The per-protocol split must account for the whole run."""
        result, counts = op.output, op.tracer.counts
        by_namespace = messages_by_namespace(op.tracer.engines[0])
        errors = []
        unknown = sorted(set(by_namespace) - set(PROTOCOLS))
        if unknown:
            errors.append(f"messages in protocols outside the catalog: {unknown}")
        rounds = sum(counts[f"proto.{namespace}.rounds"] for namespace in PROTOCOLS)
        if rounds != result.rounds:
            errors.append(f"protocol rounds sum to {rounds}, run used {result.rounds}")
        if sum(by_namespace.values()) != result.messages:
            errors.append("per-protocol messages do not sum to the run's messages")
        return errors

    @staticmethod
    def _tables(metrics: Dict[str, float], traced: List[Op]) -> List[str]:
        op_s = statistics.fmean(op.seconds for op in traced)
        lines = [
            "per protocol (traced):",
            f"  {'protocol':<10} {'rounds':>8} {'messages':>10} {'seconds':>9} {'share':>7}",
        ]
        for namespace in PROTOCOLS:
            seconds = metrics[f"proto.{namespace}.s"]
            lines.append(
                f"  {namespace:<10} {metrics[f'proto.{namespace}.rounds']:>8.0f}"
                f" {metrics[f'proto.{namespace}.messages']:>10.0f}"
                f" {seconds:>9.4f} {seconds / op_s:>7.1%}"
            )
        for name, label in (
            ("kernel.deliver_s", "kernel (deliver_round)"),
            ("core.local_s", "core (compute_mst local work)"),
            ("mst.other_s", "residual (outside compute_mst)"),
        ):
            lines.append(f"  {label:<31} {metrics[name]:>9.4f} {metrics[name] / op_s:>7.1%}")
        lines.append(f"  {'traced compute_mst':<31} {op_s:>9.4f}")
        lines.append("per stage:")
        for stage in STAGES:
            lines.append(
                f"  {stage:<28} {metrics[f'stage.{stage}.rounds']:>8.0f} rounds"
                f" {metrics[f'stage.{stage}.messages']:>10.0f} messages"
            )
        return lines
