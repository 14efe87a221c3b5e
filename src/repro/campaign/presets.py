"""Named campaign presets reproducing the paper's E1-E9 scenario grids.

Each preset is a factory returning a fresh :class:`Campaign` whose grid
mirrors one of the experiment scenarios of the reproduction record
(``benchmarks/bench_e*``), at a scale suitable for laptops and CI:

* E1/E2 -- the controlled-GHS base forest: mixed families across the
  diameter regimes, and an explicit sweep of the ``k`` override.
* E3/E4 -- Theorem 3.1: round scaling on low-diameter graphs and the
  near-linear message bound across density extremes.
* E5 -- the high-diameter regime (``k = D``).
* E6 -- Theorem 3.2: the CONGEST(b log n) bandwidth sweep.
* E7/E8/E9 -- head-to-heads against the GKP, GHS and PRS-style
  baselines on their separating families.

``smoke`` is a deliberately tiny 16-cell grid used by CI and the
acceptance tests for the parallel executor.  ``zoo`` is the workload-zoo
sweep: every registered graph family (core set plus the
:mod:`repro.workloads` additions) under the paper's algorithm and a
sequential differential reference, plus a denser differential-stress
grid -- the preset the batched executor is sized against.  ``zoo-large``
is the n = 10^5 grid the numpy ``array`` kernel is sized against.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, List

from ..exceptions import ConfigurationError
from ..graphs.generators import GraphSpec
from .spec import Campaign, graph_spec_for, RunSpec


def _e1_base_forest() -> Campaign:
    """E1: controlled-GHS base forest across diameter regimes."""
    graphs = [
        graph_spec_for("random_connected", 64),
        graph_spec_for("grid", 64),
        graph_spec_for("path", 64),
        graph_spec_for("star", 64),
    ]
    return Campaign.from_grid("e1-base-forest", graphs, seeds=(0, 1))


def _e2_k_sweep() -> Campaign:
    """E2: explicit base-forest parameter (k) sweep on one instance."""
    graphs = [graph_spec_for("random_connected", 96)]
    return Campaign.from_grid("e2-k-sweep", graphs, seeds=(0,), k_overrides=(2, 4, 8, None))


def _e3_low_diameter() -> Campaign:
    """E3 (Theorem 3.1, time): round scaling on low-diameter graphs."""
    graphs = [graph_spec_for("random_connected", n) for n in (64, 128, 256)]
    return Campaign.from_grid("e3-low-diameter", graphs, seeds=(0,))


def _e4_messages() -> Campaign:
    """E4 (Theorem 3.1, messages): density extremes for the message bound."""
    graphs = [
        GraphSpec("random_connected", {"n": 96, "extra_edges": 96}),
        graph_spec_for("complete", 32),
        GraphSpec("random_regular", {"n": 64, "degree": 4}),
        graph_spec_for("preferential_attachment", 96),
    ]
    return Campaign.from_grid("e4-messages", graphs, seeds=(0,))


def _e5_high_diameter() -> Campaign:
    """E5: the high-diameter regime where the paper picks k = D."""
    graphs = [
        graph_spec_for("path", 128),
        graph_spec_for("cycle", 128),
        graph_spec_for("caterpillar", 128),
        graph_spec_for("lollipop", 96),
    ]
    return Campaign.from_grid("e5-high-diameter", graphs, seeds=(0,))


def _e6_bandwidth() -> Campaign:
    """E6 (Theorem 3.2): CONGEST(b log n) bandwidth sweep."""
    graphs = [graph_spec_for("random_connected", 128)]
    return Campaign.from_grid("e6-bandwidth", graphs, bandwidths=(1, 2, 4, 8), seeds=(0,))


def _e7_vs_gkp() -> Campaign:
    """E7: messages against Garay-Kutten-Peleg on sparse low-diameter graphs."""
    graphs = [GraphSpec("random_connected", {"n": 128, "extra_edges": 128})]
    return Campaign.from_grid("e7-vs-gkp", graphs, algorithms=("elkin", "gkp"), seeds=(0, 1))


def _e8_vs_ghs() -> Campaign:
    """E8: rounds against GHS on families whose MST diameter is Theta(n)."""
    graphs = [graph_spec_for("hub_path", 128), graph_spec_for("wheel", 64)]
    return Campaign.from_grid("e8-vs-ghs", graphs, algorithms=("elkin", "ghs"), seeds=(0,))


def _e9_vs_prs() -> Campaign:
    """E9: second-phase messages against a PRS-style sqrt(n) base forest."""
    graphs = [graph_spec_for("path", 96), graph_spec_for("lollipop", 96)]
    return Campaign.from_grid("e9-vs-prs", graphs, algorithms=("elkin", "prs"), seeds=(0,))


def _smoke() -> Campaign:
    """Tiny 16-cell grid (2 graphs x 2 algorithms x 2 bandwidths x 2 seeds)."""
    graphs = [
        graph_spec_for("random_connected", 24),
        graph_spec_for("grid", 16),
    ]
    return Campaign.from_grid(
        "smoke", graphs, algorithms=("elkin", "ghs"), bandwidths=(1, 2), seeds=(0, 1)
    )


#: The sequential references every zoo instance is differentially
#: tested against (four independent implementations; see
#: ``tests/test_property_based.py`` for the seeded-instance suite).
ZOO_REFERENCES = ("kruskal", "prim", "prim_dense", "boruvka_seq")


def _zoo() -> Campaign:
    """The workload-zoo sweep (coverage + differential stress).

    Two concatenated sub-grids, all on the fast kernel with pinned
    seeds (every cell deterministic, so the batched executor can share
    graphs, oracles and descriptions):

    * *coverage*: the canonical small instance of **every** registered
      family, run by the paper's algorithm (seed 0) and by all four
      sequential references (seeds 0 and 1) -- a differential panel on
      every family;
    * *stress*: denser instances where verification and graph
      construction dominate, run by the four sequential references --
      the differential-testing workload that batched execution
      amortizes hardest.
    """
    from .. import workloads

    specs: List[RunSpec] = []
    for graph in workloads.zoo_coverage_specs():
        specs.append(RunSpec(graph=graph, algorithm="elkin", engine="fast", seed=0))
        for algorithm, seed in itertools.product(ZOO_REFERENCES, (0, 1)):
            specs.append(
                RunSpec(graph=graph, algorithm=algorithm, engine="fast", seed=seed)
            )
    for graph, algorithm, seed in itertools.product(
        workloads.zoo_stress_specs(), ZOO_REFERENCES, (0, 1)
    ):
        specs.append(
            RunSpec(graph=graph, algorithm=algorithm, engine="fast", seed=seed)
        )
    return Campaign(name="zoo", specs=specs)


def _zoo_large() -> Campaign:
    """n = 10^5-scale instances on the array kernel (Theorem 3.1 regime).

    The scale the paper's complexity statements are about: three
    message-heavy low-diameter families at n = 10^5, run by the paper's
    algorithm on the numpy kernel.  Verification is off (the sequential
    oracle would dominate the sweep) and callers should pass
    ``--no-diameter`` -- exact hop-diameter is O(n m) and these
    instances are all D = O(log n) by construction.  The ``fast``
    kernel can execute this grid too, just not interactively.
    """
    graphs = [
        GraphSpec("random_connected", {"n": 100_000, "extra_edges": 400_000, "seed": 0}),
        GraphSpec("random_regular", {"n": 100_000, "degree": 8, "seed": 0}),
        GraphSpec("hypercube", {"dim": 16, "seed": 0}),
    ]
    specs = [
        RunSpec(graph=graph, algorithm="elkin", engine="array", seed=0)
        for graph in graphs
    ]
    return Campaign(name="zoo-large", specs=specs, verify=False)


def _zoo_faulty() -> Campaign:
    """The network-conditions sweep: algorithm x graph x condition.

    Three small zoo graphs, the paper's algorithm and the GHS baseline,
    each under the clean network plus three condition presets.  The
    ``lossy`` and ``delayed`` cells terminate and must pass the full
    oracle panel (eventual delivery preserves correctness); the
    ``crash-stop`` cells exercise the typed
    :class:`~repro.exceptions.NonTerminationError` path and produce
    ``status = "non-terminated"`` rows.  Every cell is deterministic
    (pinned seeds, counter-hashed fault fates), so two runs of this
    preset -- at any jobs count -- are byte-identical.
    """
    graphs = [
        graph_spec_for("random_connected", 24),
        graph_spec_for("grid", 16),
        graph_spec_for("cycle", 20),
    ]
    return Campaign.from_grid(
        "zoo-faulty",
        graphs,
        algorithms=("elkin", "ghs"),
        engines=("fast",),
        seeds=(0,),
        conditions=(None, "lossy", "delayed", "crash-stop"),
    )


PRESETS: Dict[str, Callable[[], Campaign]] = {
    "e1-base-forest": _e1_base_forest,
    "e2-k-sweep": _e2_k_sweep,
    "e3-low-diameter": _e3_low_diameter,
    "e4-messages": _e4_messages,
    "e5-high-diameter": _e5_high_diameter,
    "e6-bandwidth": _e6_bandwidth,
    "e7-vs-gkp": _e7_vs_gkp,
    "e8-vs-ghs": _e8_vs_ghs,
    "e9-vs-prs": _e9_vs_prs,
    "smoke": _smoke,
    "zoo": _zoo,
    "zoo-faulty": _zoo_faulty,
    "zoo-large": _zoo_large,
}


def available_presets() -> List[str]:
    """Sorted preset names accepted by ``repro-mst sweep --preset``."""
    return sorted(PRESETS)


def preset_campaign(name: str, engine: str = "") -> Campaign:
    """Materialize the named preset, optionally retargeted at ``engine``."""
    if name not in PRESETS:
        raise ConfigurationError(
            f"unknown preset {name!r}; available: {', '.join(available_presets())}"
        )
    campaign = PRESETS[name]()
    if engine:
        campaign = campaign.with_engine(engine)
    return campaign
