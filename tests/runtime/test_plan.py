"""Unit tests for the planner: auto resolution, rationale, serialization."""

import dataclasses

import pytest

from repro.errors import MemoryBudgetError
from repro.runtime.plan import (
    PARALLEL_THRESHOLD_SECONDS,
    Planner,
    ResourceHints,
    local_cluster,
)
from repro.structure.generators import contrived_worst_case


@pytest.fixture
def small():
    return contrived_worst_case(40)


@pytest.fixture
def large():
    # Acceptance criterion: the contrived worst case at n >= 400 must
    # route to batched PRNA under auto.
    return contrived_worst_case(400)


@pytest.fixture
def planner():
    return Planner(ResourceHints(max_ranks=8))


class TestAutoAlgorithm:
    def test_small_input_stays_sequential(self, planner, small):
        plan = planner.plan(small, small)
        assert plan.algorithm == "srna2"
        assert plan.engine == "batched"
        assert plan.n_ranks == 1
        assert plan.backend == "self"
        assert plan.estimated_sequential_seconds < PARALLEL_THRESHOLD_SECONDS

    def test_worst_case_escalates_to_batched_prna(self, planner, large):
        plan = planner.plan(large, large)
        assert plan.algorithm == "prna"
        assert plan.engine == "batched"
        assert plan.n_ranks >= 2
        assert plan.estimated_seconds < plan.estimated_sequential_seconds

    def test_single_rank_budget_stays_sequential(self, large):
        plan = Planner(ResourceHints(max_ranks=1)).plan(large, large)
        assert plan.algorithm == "srna2"
        assert plan.n_ranks == 1

    def test_unpredictable_costs_choose_managerworker(self, large):
        hints = ResourceHints(max_ranks=8, predictable_costs=False)
        plan = Planner(hints).plan(large, large)
        assert plan.algorithm == "managerworker"
        assert plan.engine == "batched"
        assert plan.backend == "thread"

    def test_backtrace_pins_srna2(self, planner, large):
        plan = planner.plan(large, large, with_backtrace=True)
        assert plan.algorithm == "srna2"
        assert plan.n_ranks == 1

    def test_checkpoint_pins_srna2(self, planner, large, tmp_path):
        path = str(tmp_path / "ckpt.npz")
        plan = planner.plan(large, large, checkpoint_path=path)
        assert plan.algorithm == "srna2"
        assert plan.checkpoint_path == path
        assert any(path in reason for reason in plan.rationale)


class TestExplicitChoices:
    def test_explicit_algorithm_honored(self, planner, small):
        plan = planner.plan(small, small, algorithm="topdown")
        assert plan.algorithm == "topdown"
        assert plan.engine is None  # topdown has no slice engine
        assert any("requested by caller" in r for r in plan.rationale)

    def test_explicit_prna_with_world_size(self, planner, small):
        plan = planner.plan(
            small, small, algorithm="prna", n_ranks=3, backend="thread"
        )
        assert plan.algorithm == "prna"
        assert plan.n_ranks == 3
        assert plan.backend == "thread"

    def test_typo_raises_with_suggestion(self, planner, small):
        with pytest.raises(ValueError, match="did you mean 'vectorized'"):
            planner.plan(small, small, engine="vectorised")


class TestPlanObject:
    def test_plan_is_frozen(self, planner, small):
        plan = planner.plan(small, small)
        with pytest.raises(dataclasses.FrozenInstanceError):
            plan.algorithm = "dense"

    def test_explain_renders_header_and_rationale(self, planner, large):
        plan = planner.plan(large, large)
        text = plan.explain()
        lines = text.splitlines()
        assert lines[0].startswith("plan[pair]: algorithm=prna ")
        assert "ranks=" in lines[0]
        assert len(lines) == 1 + len(plan.rationale)
        assert all(line.startswith("  - ") for line in lines[1:])

    def test_to_dict_is_json_ready(self, planner, small):
        import json

        plan = planner.plan(small, small)
        payload = plan.to_dict()
        assert payload["algorithm"] == "srna2"
        assert payload["rationale"] == list(plan.rationale)
        assert payload["explain"] == plan.explain()
        json.dumps(payload)  # must not raise

    def test_cost_contract_attached_and_serialized(self, planner, small):
        # Every engine the planner can choose carries a statically
        # audited CostContract (repro.check, COST001), and the
        # plan serializes it for downstream tooling.
        plan = planner.plan(small, small)
        contract = plan.cost_contract()
        assert contract is not None
        assert contract.key == f"engine:{plan.engine}"
        payload = plan.to_dict()
        assert payload["cost_contract"] == {
            "key": contract.key,
            "entry": contract.entry,
            "degree": contract.degree,
            "polynomial": contract.polynomial,
        }

    def test_cost_contract_cited_in_rationale(self, planner, large):
        plan = planner.plan(large, large)
        assert any(
            "cost contract" in reason and "statically audited" in reason
            for reason in plan.rationale
        )
        assert "cost contract" in plan.explain()

    def test_engineless_plan_has_no_contract(self, planner, small):
        plan = planner.plan(small, small, algorithm="topdown")
        assert plan.cost_contract() is None
        assert "cost_contract" not in plan.to_dict()

    def test_memory_budget_noted_when_exceeded(self, large):
        # One replica is the |A1| x |A2| int64 arc table: 200 x 200 x 8.
        replica = large.n_arcs * large.n_arcs * 8
        hints = ResourceHints(max_ranks=8, memory_bytes=2 * replica + 100)
        plan = Planner(hints).plan(large, large)
        assert plan.algorithm == "prna"
        assert plan.n_ranks == 2  # the largest world whose replicas fit
        assert any("fits 2 memo replica(s)" in r for r in plan.rationale)
        assert any(
            "memo footprint ~0.64 MB (2 replica(s)" in r for r in plan.rationale
        )
        # Not even one replica fits: a typed error at plan time.
        hints = ResourceHints(max_ranks=8, memory_bytes=replica - 1)
        with pytest.raises(MemoryBudgetError, match="one replica") as info:
            Planner(hints).plan(large, large)
        assert info.value.footprint == replica
        assert info.value.budget == replica - 1
        # A caller-requested world that does not fit is refused too.
        hints = ResourceHints(max_ranks=8, memory_bytes=2 * replica + 100)
        with pytest.raises(MemoryBudgetError, match="4 replica"):
            Planner(hints).plan(large, large, algorithm="prna", n_ranks=4)

    def test_local_cluster_spec(self):
        spec = local_cluster(4)
        assert spec.n_nodes == 1
        assert spec.cores_per_node == 4
        assert local_cluster(0).cores_per_node == 1


class TestPlanBatch:
    def test_auto_picks_srna2_across_pairs(self, planner, small):
        targets = {"a": small, "b": small}
        plan = planner.plan_batch(small, targets, n_workers=1)
        assert plan.algorithm == "srna2"
        assert plan.workload == "search"
        assert plan.backend == "self"
        assert plan.n_ranks == 1

    def test_workers_use_process_pool(self, planner, small):
        plan = planner.plan_batch(small, {"a": small}, n_workers=4)
        assert plan.backend == "process"
        assert plan.n_ranks == 4
        assert plan.estimated_seconds <= plan.estimated_sequential_seconds

    def test_parallel_algorithm_rejected(self, planner, small):
        with pytest.raises(ValueError, match="unknown batch algorithm"):
            planner.plan_batch(small, {"a": small}, algorithm="prna")


class TestScheduleChoice:
    """sync auto, shared-memory crossover, and the calibration source."""

    def _sync_line(self, plan):
        lines = [r for r in plan.rationale if r.startswith("sync auto ->")]
        assert len(lines) == 1
        return lines[0]

    def test_sync_auto_prices_both_schedules(self, planner, large):
        plan = planner.plan(large, large)
        assert plan.algorithm == "prna"
        assert plan.sync_mode in ("row", "dataflow")
        line = self._sync_line(plan)
        assert "row barrier" in line and "dataflow" in line
        assert "priced with" in line

    def test_single_rank_pins_row(self, planner, large):
        plan = planner.plan(large, large, algorithm="prna", n_ranks=1)
        assert plan.sync_mode == "row"
        assert "single rank" in self._sync_line(plan)

    def test_latency_bound_cluster_prefers_dataflow(self, large):
        # A per-collective tax dwarfing the transfer terms is exactly the
        # regime the paper's dataflow variant targets.
        slow_sync = local_cluster(8)
        slow_sync = dataclasses.replace(slow_sync, sync_overhead=0.5)
        plan = Planner(ResourceHints(max_ranks=8, cluster=slow_sync)).plan(
            large, large, algorithm="prna", n_ranks=4
        )
        assert plan.sync_mode == "dataflow"
        assert "caller-provided cluster spec" in self._sync_line(plan)

    def test_message_bound_cluster_prefers_row(self):
        # Segments wider than the coalescing threshold defeat batching,
        # so the dataflow schedule pays one message per consumer per arc
        # — more latency rounds than log2(P) allreduces when collectives
        # themselves are free.
        huge = contrived_worst_case(4200)
        msg_bound = dataclasses.replace(
            local_cluster(8), sync_overhead=0.0, alpha=1.0, beta=1e-15,
        )
        plan = Planner(ResourceHints(max_ranks=8, cluster=msg_bound)).plan(
            huge, huge, algorithm="prna", n_ranks=4
        )
        assert plan.sync_mode == "row"

    def test_dataflow_explanation_names_no_row_reduction(self, large):
        # The n=400 worst case at P=2: the planner's own algorithm and
        # backend lines must describe the schedule actually chosen.
        plan = Planner(ResourceHints(max_ranks=2)).plan(
            large, large, sync_mode="dataflow"
        )
        assert (plan.algorithm, plan.n_ranks) == ("prna", 2)
        assert (plan.backend, plan.sync_mode) == ("process", "dataflow")
        text = plan.explain()
        assert "-> prna" in text and "backend auto -> 'process'" in text
        assert "Allreduce per memo row" not in text
        assert "shared-memory" not in text
        assert plan.shared_memory is False


class TestCalibrationSource:
    """Cluster-spec preference: caller > CALIBRATION.json > defaults."""

    def test_defaults_without_a_record(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CALIBRATION", str(tmp_path / "missing.json"))
        planner = Planner(ResourceHints(max_ranks=4))
        spec, source = planner._resolve_cluster(4, planner._calibration())
        assert "built-in local-cluster defaults" in source
        assert spec == local_cluster(4)

    def test_record_preferred_over_defaults(self, monkeypatch, tmp_path):
        from repro.perf.calibrate import save_calibration

        measured = dataclasses.replace(local_cluster(4), alpha=123e-6)
        path = tmp_path / "cal.json"
        monkeypatch.setenv("REPRO_CALIBRATION", str(path))
        save_calibration(measured)
        planner = Planner(ResourceHints(max_ranks=4))
        spec, source = planner._resolve_cluster(4, planner._calibration())
        assert "measured on-node calibration" in source
        assert spec.alpha == pytest.approx(123e-6)

    def test_caller_spec_beats_the_record(self, monkeypatch, tmp_path):
        from repro.perf.calibrate import save_calibration

        path = tmp_path / "cal.json"
        monkeypatch.setenv("REPRO_CALIBRATION", str(path))
        save_calibration(local_cluster(4))
        mine = dataclasses.replace(local_cluster(4), alpha=7e-6)
        planner = Planner(ResourceHints(max_ranks=4, cluster=mine))
        spec, source = planner._resolve_cluster(4, planner._calibration())
        assert source == "caller-provided cluster spec"
        assert spec is mine

    def test_record_read_once_per_plan(self, monkeypatch, tmp_path, large):
        from repro.perf import calibrate

        calibrate.save_calibration(local_cluster(4), path=str(tmp_path / "c.json"))
        monkeypatch.setenv("REPRO_CALIBRATION", str(tmp_path / "c.json"))
        reads = []
        real = calibrate._load_payload

        def counting(path):
            reads.append(path)
            return real(path)

        monkeypatch.setattr(calibrate, "_load_payload", counting)
        planner = Planner(ResourceHints(max_ranks=4))
        plan = planner.plan(large, large)
        assert len(reads) == 1
        assert any("measured on-node calibration" in r for r in plan.rationale)
        planner.plan_batch(large, {"t": large})
        assert len(reads) == 2

    def test_explain_cites_the_source(self, monkeypatch, tmp_path, large):
        monkeypatch.setenv("REPRO_CALIBRATION", str(tmp_path / "none.json"))
        plan = Planner(ResourceHints(max_ranks=8)).plan(
            large, large, algorithm="prna", n_ranks=2
        )
        assert "built-in local-cluster defaults" in plan.explain()
