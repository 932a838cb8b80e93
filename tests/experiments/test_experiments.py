"""End-to-end experiment harness runs (quick scale).

These are integration tests: each paper artifact regenerates at reduced
size and the *shape* assertions the reproduction targets are checked on
the measured rows themselves.
"""

import pytest

from repro.experiments import ablations, figure8, table1, table2, table3


class TestTable1:
    @pytest.fixture(scope="class")
    def record(self):
        return table1.run(scale="quick")

    def test_srna2_faster(self, record):
        for row in record.rows:
            assert row["srna2_seconds"] < row["srna1_seconds"]

    def test_scores_correct(self, record):
        for row in record.rows:
            assert row["score"] == row["length"] // 2

    def test_growth_superlinear(self, record):
        by_length = {row["length"]: row for row in record.rows}
        # Doubling the length should cost well over 4x (the law is ~16x).
        ratio = (
            by_length[200]["srna2_seconds"] / by_length[100]["srna2_seconds"]
        )
        assert ratio > 4.0

    def test_rendered_mentions_paper(self, record):
        assert "Table I" in record.rendered
        assert "SRNA1 (paper)" in record.rendered

    def test_median_reported_alongside_best_and_mean(self, record):
        for row in record.rows:
            for algo in ("srna1", "srna2"):
                assert row[f"{algo}_best"] <= row[f"{algo}_median"]
                assert row[f"{algo}_mean"] >= row[f"{algo}_best"]


class TestTable2:
    @pytest.fixture(scope="class")
    def record(self):
        return table2.run(scale="quick")

    def test_shape_targets(self, record):
        rows = {row["dataset"]: row for row in record.rows}
        # SRNA2 faster on both datasets.
        for row in rows.values():
            assert row["srna2_seconds"] < row["srna1_seconds"]
            assert row["score"] == row["n_arcs"]  # self-comparison
        # The larger/denser structure costs more.
        assert rows["malaria"]["srna2_seconds"] > rows["fungus"]["srna2_seconds"]

    def test_quick_scale_shrinks(self, record):
        for row in record.rows:
            assert row["length"] < 4216

    def test_median_reported(self, record):
        for row in record.rows:
            assert row["srna2_median"] >= row["srna2_best"]
            assert row["srna2_samples"] >= 1


class TestTable3:
    @pytest.fixture(scope="class")
    def record(self):
        return table3.run(scale="quick")

    def test_stage_one_dominates(self, record):
        for row in record.rows:
            assert row["stage_one"] > 99.0

    def test_shares_sum_to_100(self, record):
        for row in record.rows:
            total = row["preprocessing"] + row["stage_one"] + row["stage_two"]
            assert total == pytest.approx(100.0)

    def test_stage_one_share_grows(self, record):
        shares = [row["stage_one"] for row in record.rows]
        assert shares == sorted(shares)


class TestFigure8:
    @pytest.fixture(scope="class")
    def record(self):
        return figure8.run(scale="quick", validate_executed=False)

    def test_monotone_speedup(self, record):
        curve = [
            row["speedup"]
            for row in record.rows
            if row["problem"] == "800 arcs"
        ]
        assert curve == sorted(curve)

    def test_endpoint_near_paper(self, record):
        end = [
            row
            for row in record.rows
            if row["problem"] == "800 arcs" and row["n_ranks"] == 64
        ][0]
        assert end["speedup"] == pytest.approx(22.0, rel=0.15)

    def test_executed_validation_rows(self):
        record = figure8.run(scale="quick", validate_executed=True)
        validation = [
            row for row in record.rows if "executed" in str(row["problem"])
        ]
        assert validation
        for row in validation:
            assert row["executed_virtual_seconds"] == pytest.approx(
                row["simulated_seconds"], rel=0.05
            )
            # Measured communication pattern: one row Allreduce per outer
            # arc (100 arcs at the validation length of 200 nt), each the
            # arc-table row of 100 int64 cells.
            assert row["allreduces"] == 100
            assert row["allreduce_bytes"] == 100 * 100 * 8


class TestAblations:
    def test_memoization_blowup(self):
        record = ablations.memoization(max_arcs=6)
        last = record.rows[-1]
        assert last["spawns_unmemoized"] > last["spawns_memoized"]
        # Blowup grows with nesting depth.
        blowups = [row["blowup"] for row in record.rows]
        assert blowups[-1] > blowups[0]

    def test_partitioners_greedy_at_least_as_good(self):
        record = ablations.partitioners(length=800, n_ranks=16)
        by_name = {row["partitioner"]: row for row in record.rows}
        assert by_name["greedy"]["speedup"] >= by_name["block"]["speedup"]

    def test_decomposition_rows_never_scale(self):
        record = ablations.decomposition(length=800, n_ranks=16)
        by_mode = {row["distribute"]: row for row in record.rows}
        assert by_mode["rows"]["speedup"] <= 1.05
        assert by_mode["columns"]["speedup"] > 3.0

    def test_scheduling_static_beats_dynamic(self):
        record = ablations.scheduling_scheme(length=800, n_ranks=16)
        by_scheme = {row["scheme"]: row for row in record.rows}
        static = by_scheme["static greedy (PRNA)"]["speedup"]
        dynamic = by_scheme["manager-worker (dynamic)"]["speedup"]
        assert static > dynamic > 0

    def test_memo_backend_dense_not_slower(self):
        record = ablations.memo_backends(length=60)
        by_backend = {row["backend"]: row for row in record.rows}
        assert by_backend["dense"]["score"] == by_backend["sparse"]["score"]

    def test_sync_granularity_dataflow_cheaper(self):
        record = ablations.sync_granularity(length=100, n_ranks=3)
        by_mode = {row["sync_mode"]: row for row in record.rows}
        assert (
            by_mode["dataflow"]["virtual_seconds"]
            < by_mode["row"]["virtual_seconds"]
        )
        assert by_mode["row"]["score"] == by_mode["dataflow"]["score"]

    def test_slice_engines_vectorized_faster(self):
        record = ablations.slice_engines(length=100)
        by_engine = {row["engine"]: row for row in record.rows}
        assert (
            by_engine["vectorized"]["seconds"] < by_engine["python"]["seconds"]
        )
        assert (
            by_engine["vectorized"]["score"] == by_engine["python"]["score"]
        )

    def test_lockfree_scores_stable(self):
        record = ablations.lockfree_baseline(length=30)
        scores = {row["score"] for row in record.rows}
        assert scores == {15}
        for row in record.rows:
            assert row["redundancy"] >= 1.0
