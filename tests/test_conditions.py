"""The network-conditions subsystem: specs, the proxy, and determinism.

The contract under test (DESIGN.md, Section 14): a
:class:`~repro.conditions.NetworkCondition` is pure content-hashed data;
the :class:`~repro.conditions.ConditionedEngine` proxy applies it on the
delivery side of any kernel; and an identical ``(instance, condition,
seed)`` replays byte-identically on every engine and in every executor
mode.  Crash schedules that prevent termination surface as the typed
:class:`~repro.exceptions.NonTerminationError`, never as a hang.
"""

from __future__ import annotations

import pytest

from repro.algorithms import run_algorithm
from repro.analysis.experiments import run_single
from repro.analysis.report import analyze_rows, render_markdown
from repro.campaign import Campaign, execute_campaign, RunStore
from repro.campaign.spec import graph_spec_for, RunSpec
from repro.conditions import (
    AdversarialModel,
    available_conditions,
    CONDITION_PRESETS,
    ConditionedEngine,
    CrashModel,
    DelayModel,
    LossModel,
    NetworkCondition,
    normalize_condition,
    parse_condition,
    with_name,
)
from repro.config import RunConfig
from repro.exceptions import (
    ConfigurationError,
    NonTerminationError,
    VerificationError,
)
from repro.graphs.generators import make_graph
from repro.simulator.fast_network import FastNetwork
from repro.verify.complexity_checks import assert_elkin_bounds

try:
    import numpy  # noqa: F401

    HAVE_NUMPY = True
except ImportError:
    HAVE_NUMPY = False

#: Every registered kernel joins the conditioned byte-identity matrix.
ALL_ENGINES = ["reference", "fast"] + (["array"] if HAVE_NUMPY else [])


def _execute_into(path, campaign, **kwargs):
    """``execute_campaign`` into the JSONL store at ``path``, then close it."""
    with RunStore(path) as store:
        return execute_campaign(campaign, store=store, **kwargs)


class TestConditionSpec:
    def test_presets_resolve_by_name(self):
        for name in available_conditions():
            condition = parse_condition(name)
            assert condition is CONDITION_PRESETS[name]
            assert condition.label() == name

    def test_clause_syntax_composes_models(self):
        condition = parse_condition("loss(rate=0.1,retransmit=4)+delay(max=2)+seed=7")
        assert condition.loss == LossModel(rate=0.1, retransmit=4)
        assert condition.delay == DelayModel(max_delay=2)
        assert condition.crash is None and condition.adversary is None
        assert condition.seed == 7

    def test_crash_clauses_accumulate_schedule_events(self):
        condition = parse_condition("crash(v=0,at=5,down=4)+crash(v=3,at=8)+stretch=2")
        assert condition.crash.schedule == ((0, 5, 9), (3, 8, None))
        assert condition.round_stretch == 2

    def test_adversary_clauses(self):
        condition = parse_condition(
            "adversary(heavy=4,delay=3)+adversary(drop=upcast,rate=0.5)"
        )
        assert condition.adversary == AdversarialModel(
            heaviest_edges=4, heavy_delay=3, drop_kind="upcast", drop_rate=0.5
        )

    @pytest.mark.parametrize(
        "text",
        [
            "delay(3)",  # positional args are not part of the grammar
            "bogus(x=1)",
            "loss(rate=2)",  # rate out of [0, 1)
            "loss(rate=0.1,typo=1)",
            "delay(max=0)",
            "crash(v=0,at=0)",  # crashes start at round >= 1
            "lossy+",  # presets do not compose with clauses
            "",
        ],
    )
    def test_malformed_specs_raise(self, text):
        with pytest.raises(ConfigurationError):
            parse_condition(text)

    @pytest.mark.parametrize(
        "text, repeated",
        [
            ("loss(rate=0.1)+loss(rate=0.2)", "loss"),
            ("delay(max=2)+delay(max=3)", "delay"),
            ("crash(rate=0.1)+crash(rate=0.2,within=8)", "crash"),
            ("adversary(heavy=4,delay=3)+adversary(heavy=2,delay=1)", "adversary\\(heavy"),
            ("adversary(drop=upcast)+adversary(drop=bcast,rate=0.5)", "adversary\\(drop"),
            ("loss(rate=0.1)+seed=1+seed=2", "seed="),
            ("loss(rate=0.1)+stretch=2+stretch=3", "stretch="),
            ("loss(rate=0.1)+cap=50+cap=60", "cap="),
        ],
    )
    def test_repeated_clause_raises_instead_of_overriding(self, text, repeated):
        """A repeat raises instead of silently overriding the first."""
        with pytest.raises(ConfigurationError, match=f"sets {repeated}.* twice"):
            parse_condition(text)

    def test_describe_round_trips_through_the_parser(self):
        for name in available_conditions():
            condition = CONDITION_PRESETS[name]
            assert parse_condition(condition.describe()).key() == condition.key()

    def test_name_is_excluded_from_the_identity_hash(self):
        condition = parse_condition("loss(rate=0.1)+seed=3")
        renamed = with_name(condition, "my-lossy")
        assert renamed.key() == condition.key()
        assert renamed.label() == "my-lossy"
        assert condition.label() == condition.describe()

    def test_json_round_trip_is_exact(self):
        for name in available_conditions():
            condition = CONDITION_PRESETS[name]
            assert NetworkCondition.from_json_dict(condition.to_json_dict()) == condition

    def test_normalize_accepts_every_input_form(self):
        condition = CONDITION_PRESETS["lossy"]
        assert normalize_condition(None) is None
        assert normalize_condition(condition) is condition
        assert normalize_condition("lossy") is condition
        assert normalize_condition(condition.to_json_dict()) == condition
        with pytest.raises(ConfigurationError):
            normalize_condition(42)

    def test_seed_and_models_change_the_hash(self):
        base = parse_condition("loss(rate=0.1)")
        assert parse_condition("loss(rate=0.1)+seed=1").key() != base.key()
        assert parse_condition("loss(rate=0.2)").key() != base.key()

    def test_condition_validation(self):
        with pytest.raises(ConfigurationError):
            NetworkCondition(seed=-1)
        with pytest.raises(ConfigurationError):
            NetworkCondition(round_stretch=0)
        with pytest.raises(ConfigurationError):
            LossModel(rate=1.0)
        with pytest.raises(ConfigurationError):
            CrashModel(schedule=((0, 5, 5),))  # end must exceed start
        with pytest.raises(ConfigurationError):
            AdversarialModel(heaviest_edges=2)  # needs heavy_delay >= 1


class TestRunSpecIntegration:
    """Conditions ride inside run specs without disturbing clean keys."""

    def test_clean_spec_keys_are_unchanged(self):
        graph = graph_spec_for("random_connected", 16)
        bare = RunSpec(graph=graph, algorithm="elkin", seed=0)
        explicit = RunSpec(graph=graph, algorithm="elkin", seed=0, condition=None)
        assert bare.run_key() == explicit.run_key()
        assert "condition" not in bare.to_json_dict()

    def test_conditioned_specs_key_on_the_condition(self):
        graph = graph_spec_for("random_connected", 16)
        bare = RunSpec(graph=graph, algorithm="elkin", seed=0)
        lossy = RunSpec(graph=graph, algorithm="elkin", seed=0, condition="lossy")
        flaky = RunSpec(graph=graph, algorithm="elkin", seed=0, condition="flaky")
        assert len({bare.run_key(), lossy.run_key(), flaky.run_key()}) == 3
        # Renaming never invalidates stored runs.
        renamed = RunSpec(
            graph=graph,
            algorithm="elkin",
            seed=0,
            condition=with_name(CONDITION_PRESETS["lossy"], "other"),
        )
        assert renamed.run_key() == lossy.run_key()

    def test_spec_json_round_trip_carries_the_condition(self):
        spec = RunSpec(
            graph=graph_spec_for("grid", 16),
            algorithm="ghs",
            seed=1,
            condition="delayed",
        )
        back = RunSpec.from_json_dict(spec.to_json_dict())
        assert back.condition == CONDITION_PRESETS["delayed"]
        assert back.run_key() == spec.run_key()

    def test_from_grid_conditions_axis(self):
        campaign = Campaign.from_grid(
            "grid-cond",
            [graph_spec_for("random_connected", 16)],
            algorithms=("elkin",),
            seeds=(0,),
            conditions=(None, "lossy", "delayed"),
        )
        assert len(campaign) == 3
        assert [spec.condition for spec in campaign.specs] == [
            None,
            CONDITION_PRESETS["lossy"],
            CONDITION_PRESETS["delayed"],
        ]

    def test_with_condition_retargets_every_cell(self):
        campaign = Campaign.from_grid(
            "retarget", [graph_spec_for("random_connected", 16)], seeds=(0, 1)
        )
        lossy = campaign.with_condition("lossy")
        assert all(spec.condition == CONDITION_PRESETS["lossy"] for spec in lossy.specs)
        assert campaign.run_keys() != lossy.run_keys()


class TestConditionedEngineUnits:
    """Proxy semantics against a real kernel, one model at a time."""

    def _wrap(self, graph, text, bandwidth=4):
        inner = FastNetwork(graph, bandwidth=bandwidth)
        return ConditionedEngine(inner, parse_condition(text)), inner

    def test_noop_condition_binds_delivery_straight_through(self):
        graph = make_graph("path", n=4, seed=0)
        inner = FastNetwork(graph)
        engine = ConditionedEngine(inner, NetworkCondition(seed=0))
        assert engine.deliver_round.__self__ is inner
        assert engine.send.__self__ is inner

    def test_full_delay_defers_every_message_exactly_one_round(self):
        # max=1 draws are uniform over {1}: fully deterministic.
        graph = make_graph("path", n=3, seed=0)
        engine, _ = self._wrap(graph, "delay(max=1)")
        engine.send(0, 1, "ping")
        assert engine.deliver_round() == {}  # held back
        assert engine.pending_count() == 1
        assert engine.telemetry["delayed"] == 1
        inboxes = engine.deliver_round()
        assert [m.kind for m in inboxes[1]] == ["ping"]
        assert engine.telemetry["delivered"] == 1

    def test_links_stay_fifo_under_delay(self):
        # Independent 1..3-round draws would reorder same-edge traffic
        # without the per-edge FIFO front (the pipelined primitives
        # assume FIFO CONGEST links); the clamp must keep each link's
        # arrival order equal to its send order.
        graph = make_graph("path", n=3, seed=0)
        engine, _ = self._wrap(graph, "delay(max=3)")
        arrivals = []
        for index in range(8):
            engine.send(0, 1, f"m{index}")
            for inbox in engine.deliver_round().values():
                arrivals.extend(message.kind for message in inbox)
        while engine.pending_count():
            for inbox in engine.deliver_round().values():
                arrivals.extend(message.kind for message in inbox)
        assert arrivals == [f"m{index}" for index in range(8)]

    def test_crash_window_omits_traffic_at_both_endpoints(self):
        graph = make_graph("cycle", n=3, seed=0)
        engine, _ = self._wrap(graph, "crash(v=1,at=1,down=2)")
        # Sent in round 0 (before the crash): the send already left the
        # sender, but arrival in round 1 hits the down receiver.
        engine.send(0, 1, "to-crashed")
        engine.send(0, 2, "healthy")
        inboxes = engine.deliver_round()  # round 1: vertex 1 goes down
        assert set(inboxes) == {2}
        assert engine.telemetry["crash_omissions"] == 1
        # A send issued while the sender is down is omitted on delivery.
        engine.send(1, 0, "from-crashed")
        assert engine.deliver_round() == {}  # round 2: still down
        assert engine.telemetry["crash_omissions"] == 2
        engine.deliver_round()  # round 3: the window [1, 3) has ended
        engine.send(0, 1, "after-restart")
        inboxes = engine.deliver_round()
        assert [m.kind for m in inboxes[1]] == ["after-restart"]

    def test_adversary_drop_kind_targets_matching_traffic(self):
        graph = make_graph("path", n=3, seed=0)
        engine, _ = self._wrap(graph, "adversary(drop=upcast)")
        engine.send(0, 1, "upcast-key")
        engine.send(1, 2, "broadcast")
        inboxes = engine.deliver_round()
        assert set(inboxes) == {2}
        assert engine.telemetry["adversary_dropped"] == 1

    def test_retransmits_charge_messages_and_latency(self):
        graph = make_graph("random_connected", n=24, seed=3)
        clean = run_single(graph, algorithm="elkin", engine="fast", seed=0)
        lossy = run_single(
            graph, algorithm="elkin", engine="fast", seed=0, condition="lossy"
        )
        telemetry = lossy.details["condition"]
        assert telemetry["retransmits"] > 0
        assert telemetry["dropped"] == 0  # retransmit=8 makes loss transient
        # Honest accounting: every link-layer retry is a charged message.
        assert lossy.cost.messages == clean.cost.messages + telemetry["retransmits"]
        assert lossy.cost.rounds > clean.cost.rounds
        assert lossy.total_weight == clean.total_weight

    def test_round_cap_raises_typed_non_termination(self):
        graph = make_graph("path", n=3, seed=0)
        engine, _ = self._wrap(graph, "seed=0+cap=3")
        engine.deliver_round()
        engine.deliver_round()
        engine.deliver_round()
        with pytest.raises(NonTerminationError) as excinfo:
            engine.deliver_round()
        assert excinfo.value.round_cap == 3
        assert excinfo.value.rounds == 3


#: Eventual-delivery presets: every algorithm terminates and stays
#: oracle-correct under them.
EVENTUAL_DELIVERY = ("lossy", "delayed", "jittery", "heavy-delay")


class TestConditionedRuns:
    def test_cross_engine_byte_identity(self):
        graph = make_graph("random_connected", n=24, seed=3)
        for condition in EVENTUAL_DELIVERY:
            outcomes = []
            for engine in ALL_ENGINES:
                result = run_single(
                    graph, algorithm="elkin", engine=engine, seed=0, condition=condition
                )
                outcomes.append(
                    (
                        result.cost.rounds,
                        result.cost.messages,
                        result.cost.words,
                        result.total_weight,
                        sorted(result.edges),
                        result.details["condition"],
                    )
                )
            assert len(set(map(repr, outcomes))) == 1, condition

    def test_run_seed_feeds_the_fault_hash(self):
        graph = make_graph("random_connected", n=24, seed=3)
        first = run_single(graph, algorithm="elkin", seed=0, condition="lossy")
        second = run_single(graph, algorithm="elkin", seed=1, condition="lossy")
        assert (
            first.details["condition"]["retransmits"]
            != second.details["condition"]["retransmits"]
        )
        # Both still find the unique MST.
        assert first.total_weight == second.total_weight

    def test_condition_telemetry_is_recorded_only_when_active(self):
        graph = make_graph("random_connected", n=20, seed=1)
        clean = run_single(graph, algorithm="elkin", seed=0)
        assert "condition" not in clean.details
        conditioned = run_single(graph, algorithm="elkin", seed=0, condition="delayed")
        telemetry = conditioned.details["condition"]
        assert telemetry["condition"] == "delayed"
        assert telemetry["delayed"] > 0
        assert telemetry["engines_wrapped"] >= 1

    def test_sequential_references_ignore_conditions(self):
        # No engine is ever built, so there is no network to degrade:
        # the oracle stays exact under any condition.
        graph = make_graph("random_connected", n=20, seed=1)
        result = run_algorithm(graph, "kruskal", RunConfig(condition="lossy"))
        assert result.cost.rounds == 0
        assert "condition" not in result.details

    def test_crash_stop_raises_non_termination(self):
        graph = make_graph("random_connected", n=24, seed=3)
        for algorithm in ("elkin", "ghs"):
            with pytest.raises(NonTerminationError) as excinfo:
                run_single(graph, algorithm=algorithm, seed=0, condition="crash-stop")
            error = excinfo.value
            assert error.rounds is not None and error.rounds >= 0
            assert error.condition_telemetry["condition"] == "crash-stop"

    def test_explicit_round_cap_is_recorded_on_the_error(self):
        graph = make_graph("random_connected", n=20, seed=1)
        with pytest.raises(NonTerminationError) as excinfo:
            run_single(
                graph,
                algorithm="ghs",
                seed=0,
                condition="crash(v=0,at=3)+cap=120+stretch=1",
            )
        assert excinfo.value.round_cap == 120
        assert excinfo.value.rounds >= 120

    def test_degradation_bounds_relax_with_the_condition(self):
        graph = make_graph("random_connected", n=24, seed=3)
        condition = parse_condition("delay(max=10)")
        result = run_single(
            graph, algorithm="elkin", seed=0, condition=condition
        )
        # The degraded run exceeds the stock Theorem 3.1 round bound (the
        # theorem assumes a reliable synchronous network); the audit in
        # degradation mode relaxes the bound by condition.time_stretch()
        # and accepts it.
        assert_elkin_bounds(result, condition=condition)
        with pytest.raises(VerificationError):
            assert_elkin_bounds(result)


class TestConditionedCampaigns:
    def _campaign(self):
        return Campaign.from_grid(
            "cond-exec",
            [graph_spec_for("random_connected", 20)],
            algorithms=("elkin",),
            engines=("fast",),
            seeds=(0,),
            conditions=(None, "lossy", "crash-stop"),
        )

    def test_rows_carry_condition_and_status_columns(self, tmp_path):
        campaign = self._campaign()
        report = _execute_into(tmp_path / "s.jsonl", campaign)
        by_condition = {row.get("condition"): row for row in report.rows}
        assert set(by_condition) == {None, "lossy", "crash-stop"}

        clean = by_condition[None]
        assert "status" not in clean and "dropped" not in clean

        lossy = by_condition["lossy"]
        assert lossy["status"] == "ok"
        assert lossy["condition_key"] == CONDITION_PRESETS["lossy"].key()
        assert lossy["retransmits"] > 0 and lossy["dropped"] == 0
        assert lossy["weight"] == clean["weight"]

        crashed = by_condition["crash-stop"]
        assert crashed["status"] == "non-terminated"
        assert crashed["round_cap"] is None or crashed["round_cap"] >= 1
        assert crashed["crash_omissions"] > 0

    def test_non_terminated_cells_round_trip_through_the_store(self, tmp_path):
        campaign = self._campaign()
        store = _execute_into(tmp_path / "s.jsonl", campaign).store
        crash_spec = next(
            spec for spec in campaign.specs if spec.condition is not None
            and spec.condition.crash is not None
        )
        result = store.get_result(crash_spec.run_key())
        assert result.details["non_terminated"] is True
        assert result.edges == set()
        # Resume treats the recorded non-termination as a finished cell.
        resumed = _execute_into(tmp_path / "s.jsonl", campaign)
        assert resumed.executed == 0 and resumed.reused == 3

    def test_non_termination_without_condition_still_propagates(self):
        # The typed-outcome conversion is scoped to conditioned cells: a
        # clean cell raising NonTerminationError is a genuine failure
        # and must abort the campaign instead of becoming a row.
        from repro.algorithms import AlgorithmInfo, _REGISTRY, register_algorithm

        def stuck(graph, config=None):
            raise NonTerminationError("stuck", round_cap=10)

        register_algorithm(
            AlgorithmInfo(name="stuck", runner=stuck, family="distributed-baseline")
        )
        try:
            campaign = Campaign.from_grid(
                "clean-nonterm",
                [graph_spec_for("random_connected", 16)],
                algorithms=("stuck",),
                seeds=(0,),
            )
            with pytest.raises(NonTerminationError):
                execute_campaign(campaign)
        finally:
            _REGISTRY.pop("stuck", None)

    def test_two_identical_faulty_sweeps_are_byte_identical(self, tmp_path):
        campaign = self._campaign()
        first = _execute_into(tmp_path / "a.jsonl", campaign)
        second = _execute_into(tmp_path / "b.jsonl", campaign)
        assert first.rows == second.rows


class TestDegradationReport:
    def _rows(self, tmp_path):
        campaign = Campaign.from_grid(
            "degradation",
            [graph_spec_for("random_connected", 20)],
            algorithms=("elkin",),
            engines=("fast",),
            seeds=(0,),
            conditions=(None, "delayed", "crash-stop"),
        )
        return _execute_into(tmp_path / "s.jsonl", campaign).rows

    def test_conditioned_rows_are_excluded_from_fits_and_audit(self, tmp_path):
        analysis = analyze_rows(self._rows(tmp_path))
        assert analysis.conditioned == 2
        assert analysis.bound_violations == 0
        assert "conditioned rows excluded" in render_markdown(analysis)

    def test_degradation_table_pairs_rows_with_clean_baselines(self, tmp_path):
        analysis = analyze_rows(self._rows(tmp_path))
        by_condition = {entry["condition"]: entry for entry in analysis.degradation}
        delayed = by_condition["delayed"]
        assert delayed["status"] == "ok"
        assert float(delayed["round_factor"]) > 1.0
        crashed = by_condition["crash-stop"]
        assert crashed["status"] == "non-terminated"
        assert crashed["round_factor"] == "-"

    def test_markdown_report_renders_the_degradation_section(self, tmp_path):
        document = render_markdown(analyze_rows(self._rows(tmp_path)))
        assert "## Degradation under network conditions" in document
        assert "bound-violation count: **0**" in document
