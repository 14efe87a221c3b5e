"""Controlled-GHS: constructing an (n/k, O(k))-MST forest (Section 4, Theorem 4.3).

The procedure runs ``ceil(log2 k)`` phases.  Phase ``i`` starts from an
``(n / 2^{i-1}, 6 * 2^i)``-MST forest and produces an
``(n / 2^i, 6 * 2^{i+1})``-MST forest:

1. every vertex tells its neighbours its fragment identity;
2. every fragment of diameter at most ``2^i`` (the set ``F'_i``) finds
   its minimum-weight outgoing edge (MWOE) by a convergecast over its
   fragment tree, and a message is sent over that edge;
3. the MWOEs orient ``F'_i`` into a *candidate fragment forest* (with the
   higher-identity fragment of a mutual MWOE pair acting as the parent);
4. the forest is 3-coloured with Cole-Vishkin and a maximal matching is
   extracted colour class by colour class;
5. matched pairs merge along their MWOE; every unmatched fragment of
   ``F'_i`` merges along its MWOE into whatever fragment that edge leads
   to; the new fragment identity (the identity of the new root) is then
   broadcast inside every merged fragment.

Every communication step above is executed through the simulator (the
neighbour exchange, the convergecasts, the broadcasts, the per-edge
messages and one broadcast/cross-edge/convergecast exchange per
Cole-Vishkin iteration and per matching sub-step), so the measured
round and message totals reflect the procedure the paper analyses:
``O(k log* n)`` rounds and ``O(|E| log k + n log k log* n)`` messages.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..exceptions import FragmentError
from ..simulator.engine import Engine
from ..simulator.primitives.broadcast import forest_broadcast
from ..simulator.primitives.convergecast import forest_convergecast
from ..simulator.primitives.direct import send_over_edges
from ..simulator.primitives.neighbor_exchange import neighbor_exchange
from ..simulator.primitives.trees import RootedForest
from ..types import CostReport, Edge, FragmentId, PhaseTelemetry, VertexId
from .cole_vishkin import cole_vishkin_coloring
from .fragments import MSTForest
from .maximal_matching import maximal_matching_from_coloring
from .mwoe import Candidate, candidate_edge, fragment_outgoing_edges
from .parameters import controlled_ghs_phase_count


@dataclass
class ControlledGHSResult:
    """Outcome of the base-forest construction.

    Attributes:
        forest: the resulting MST forest (at most ``O(n/k)`` fragments of
            strong diameter ``O(k)``).
        k: the parameter the construction was run with.
        phases: per-phase telemetry (fragment counts and costs).
        cost: total rounds/messages/words consumed by the construction.
    """

    forest: MSTForest
    k: int
    phases: List[PhaseTelemetry] = field(default_factory=list)
    cost: CostReport = field(default_factory=CostReport)


def _first_non_none(first, second):
    """Convergecast combiner used by the cost-charging exchanges."""
    return first if first is not None else second


def _fragment_level_exchange(
    network: Engine,
    fragment_forest: RootedForest,
    root_values: Dict[VertexId, object],
    cross_messages: List[Tuple[VertexId, VertexId, object]],
) -> None:
    """One fragment-graph communication step, executed on the real network.

    A value travels from every fragment root down its tree
    (broadcast), across the relevant inter-fragment edges (one message
    each), and back up to the receiving fragments' roots (convergecast).
    This is exactly the cost the paper charges for one step of the
    Cole-Vishkin simulation or of the matching procedure:
    O(max fragment diameter) rounds and O(n) messages.
    """
    forest_broadcast(network, fragment_forest, root_values)
    received = send_over_edges(network, cross_messages)
    values: Dict[VertexId, Optional[object]] = dict.fromkeys(fragment_forest.vertices)
    for vertex, arrivals in received.items():
        if vertex in values and arrivals:
            values[vertex] = arrivals[0][1]
    forest_convergecast(network, fragment_forest, values, _first_non_none)


def build_base_forest(network: Engine, k: int) -> ControlledGHSResult:
    """Build an (n/k, O(k))-MST forest on ``network`` (Theorem 4.3).

    Args:
        network: the simulated network; all communication is charged to it.
        k: the forest parameter.  ``k = 1`` returns the forest of
            singletons without any communication.

    Returns:
        A :class:`ControlledGHSResult`.  Guarantees (for ``k <= n/10``,
        with the constants of Lemmas 4.1/4.2): at most ``4 n / k``
        fragments, each of strong diameter at most ``12 k``.
    """
    start = network.checkpoint()
    forest = MSTForest.singletons(network.vertices())
    result = ControlledGHSResult(forest=forest, k=k)
    total_phases = controlled_ghs_phase_count(k)

    for phase_index in range(total_phases):
        if forest.count <= 1:
            break
        phase_start = network.checkpoint()
        diameter_bound = 2**phase_index

        # Step 1: every vertex updates its neighbours with its fragment identity.
        fragment_of = forest.vertex_to_fragment()
        neighbor_fragments = neighbor_exchange(network, fragment_of)

        # Step 2: fragments of diameter <= 2^i (the set F'_i) find their MWOE.
        small_ids = {
            fragment_id
            for fragment_id, fragment in forest.fragments.items()
            if fragment.diameter() <= diameter_bound
        }
        if not small_ids:
            # Nothing can merge this phase; the paper's analysis never
            # reaches this state, but guard against it to stay safe.
            result.phases.append(
                PhaseTelemetry(
                    phase=phase_index,
                    fragments_before=forest.count,
                    fragments_after=forest.count,
                    rounds=0,
                    messages=0,
                    mst_edges_added=0,
                )
            )
            continue

        # F'_i's identities in increasing order, each with its root.
        small_roots = {fid: forest.root_of(fid) for fid in sorted(small_ids)}
        small_parent: Dict[VertexId, Optional[VertexId]] = {}
        for fragment_id in small_roots:
            small_parent.update(forest.fragments[fragment_id].parent)
        small_forest = RootedForest(parent=small_parent)

        mwoe_by_root = fragment_outgoing_edges(
            network, small_forest, fragment_of, neighbor_fragments
        )
        mwoe: Dict[FragmentId, Candidate] = {}
        for fragment_id, root in small_roots.items():
            candidate = mwoe_by_root[root]
            if candidate is None:
                raise FragmentError(
                    f"fragment {fragment_id} has no outgoing edge although "
                    f"{forest.count} fragments remain (graph disconnected?)"
                )
            mwoe[fragment_id] = candidate

        # The root informs the MWOE endpoint, and a message is sent over
        # the MWOE edge so the other side learns about its new
        # foreign-fragment child.
        forest_broadcast(
            network,
            small_forest,
            {root: mwoe[fid][:3] for fid, root in small_roots.items()},
        )
        send_over_edges(
            network,
            [(mwoe[fid][1], mwoe[fid][2], fid) for fid in small_roots],
        )

        # Step 3: orient F'_i into the candidate fragment forest.
        target_of: Dict[FragmentId, FragmentId] = {fid: mwoe[fid][3] for fid in small_roots}
        candidate_parent: Dict[FragmentId, Optional[FragmentId]] = {}
        for fid in small_roots:
            target = target_of[fid]
            if target not in small_ids:
                candidate_parent[fid] = None
                continue
            mutual = candidate_edge(mwoe[fid]) == candidate_edge(mwoe[target])
            if mutual and fid > target:
                # The higher-identity fragment of a mutual pair becomes
                # the parent, i.e. it is a root of the candidate forest.
                candidate_parent[fid] = None
            else:
                candidate_parent[fid] = target
        # Every fragment with a candidate parent, with the parent and the
        # MWOE endpoints (u in the fragment, v in the parent): the edges
        # every exchange below crosses, the same in each exchange.
        links = [
            (fid, candidate_parent[fid], mwoe[fid][1], mwoe[fid][2])
            for fid in small_roots
            if candidate_parent[fid] is not None
        ]

        # Step 4a: Cole-Vishkin 3-colouring; each colour exchange is
        # charged as one fragment-level communication step.
        def charge_color_exchange(colors: Dict[FragmentId, int]) -> None:
            root_values = {root: colors[fid] for fid, root in small_roots.items()}
            cross = [(v, u, colors[parent_fid]) for _, parent_fid, u, v in links]
            _fragment_level_exchange(network, small_forest, root_values, cross)

        coloring = cole_vishkin_coloring(
            candidate_parent,
            initial_ids={fid: int(fid) for fid in small_roots},
            on_exchange=charge_color_exchange,
        )

        # Step 4b: maximal matching, two fragment-level exchanges per
        # colour sub-step (children report their status, parents notify
        # the chosen child).
        gather = [(u, v, fid) for fid, _, u, v in links]
        notify = [(v, u, parent_fid) for _, parent_fid, u, v in links]

        def charge_matching_step(step: int, matching_so_far) -> None:
            root_values = dict.fromkeys(small_roots.values(), step)
            _fragment_level_exchange(network, small_forest, root_values, gather)
            _fragment_level_exchange(network, small_forest, root_values, notify)

        matching = maximal_matching_from_coloring(
            candidate_parent, coloring.colors, on_step=charge_matching_step
        )

        # Step 5: merge.  Matched pairs merge along the MWOE joining them;
        # every unmatched fragment of F'_i merges along its own MWOE.
        matched: Set[FragmentId] = set()
        merge_edges: List[Tuple[Edge, FragmentId, FragmentId]] = []
        for pair in matching:
            a, b = sorted(pair)
            matched.update((a, b))
            child = a if candidate_parent.get(a) == b else b
            edge = candidate_edge(mwoe[child])
            merge_edges.append((edge, a, b))
        for fid in small_roots:
            if fid in matched:
                continue
            edge = candidate_edge(mwoe[fid])
            merge_edges.append((edge, fid, target_of[fid]))

        groups = _merge_components(forest, small_ids, merge_edges)
        new_forest = forest.merge_groups(groups)
        # A spanning forest of n vertices and c trees has n - c edges.
        added = forest.count - new_forest.count

        # The new fragment identity is broadcast inside every fragment.
        new_combined = new_forest.combined_forest()
        forest_broadcast(
            network,
            new_combined,
            {root: fid for fid, root in new_forest.roots().items()},
        )

        phase_cost = network.cost_since(phase_start)
        result.phases.append(
            PhaseTelemetry(
                phase=phase_index,
                fragments_before=forest.count,
                fragments_after=new_forest.count,
                rounds=phase_cost.rounds,
                messages=phase_cost.messages,
                mst_edges_added=added,
                details={
                    "diameter_bound": diameter_bound,
                    "small_fragments": len(small_ids),
                    "matching_size": len(matching),
                    "cole_vishkin_exchanges": coloring.exchanges,
                },
            )
        )
        forest = new_forest

    result.forest = forest
    result.cost = network.cost_since(start)
    return result


def _merge_components(
    forest: MSTForest,
    small_ids: Set[FragmentId],
    merge_edges: List[Tuple[Edge, FragmentId, FragmentId]],
) -> List[Tuple[List[FragmentId], List[Edge], VertexId]]:
    """Group fragments into merge components and pick each component's new root.

    The new root is the root of the unique constituent of diameter larger
    than the phase bound when there is one (Lemma 4.1 guarantees there is
    at most one), and otherwise the root of the highest-identity
    constituent -- an arbitrary but deterministic choice.
    """
    adjacency: Dict[FragmentId, Set[FragmentId]] = {}
    for _, a, b in merge_edges:
        adjacency.setdefault(a, set()).add(b)
        adjacency.setdefault(b, set()).add(a)

    component_of: Dict[FragmentId, int] = {}
    components: List[List[FragmentId]] = []
    for start in sorted(adjacency):
        if start in component_of:
            continue
        component: List[FragmentId] = []
        stack = [start]
        component_of[start] = len(components)
        while stack:
            current = stack.pop()
            component.append(current)
            for neighbor in adjacency[current]:
                if neighbor not in component_of:
                    component_of[neighbor] = len(components)
                    stack.append(neighbor)
        components.append(component)

    # Both ends of a merge edge lie in one component, so one pass over
    # the edges groups them.
    edges_of: List[List[Edge]] = [[] for _ in components]
    for edge, a, _ in merge_edges:
        edges_of[component_of[a]].append(edge)

    groups: List[Tuple[List[FragmentId], List[Edge], VertexId]] = []
    for component, component_edges in zip(components, edges_of):
        large_members = [fid for fid in component if fid not in small_ids]
        if len(large_members) > 1:
            raise FragmentError(
                f"merge component {sorted(component)} contains {len(large_members)} fragments "
                "of large diameter; Lemma 4.1 allows at most one"
            )
        if large_members:
            new_root = forest.root_of(large_members[0])
        else:
            new_root = forest.root_of(max(component))
        # Deduplicate (a mutual MWOE pair contributes the same edge twice).
        groups.append((sorted(component), sorted(set(component_edges)), new_root))
    return groups
