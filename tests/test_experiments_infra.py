"""Tests for the experiment infrastructure: datasets, report, runner, CLI."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments import ExperimentContext, ExperimentReport, Table
from repro.experiments.cli import main as cli_main
from repro.experiments.datasets import (
    DATASETS,
    active_scale,
    dataset_summary,
    load_dataset,
    scale_profile,
    sssp_source,
)


class TestDatasets:
    def test_all_datasets_load_quick(self):
        for name in DATASETS:
            graph = load_dataset(name, "quick")
            assert graph.num_vertices > 0
            assert graph.name == name

    def test_caching_returns_same_object(self):
        a = load_dataset("usa-road", "quick")
        b = load_dataset("usa-road", "quick")
        assert a is b

    def test_unknown_dataset_rejected(self):
        with pytest.raises(ConfigurationError):
            load_dataset("facebook", "quick")

    def test_unknown_scale_rejected(self):
        with pytest.raises(ConfigurationError):
            load_dataset("twitter", "huge")

    def test_scale_env_var(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "quick")
        assert active_scale() == "quick"
        assert active_scale("default") == "default"   # explicit wins

    def test_profile_fields(self):
        profile = scale_profile("quick")
        assert profile.pagerank_iterations >= 1
        assert len(profile.offline_partitions) >= 2

    def test_sssp_source_reaches_many(self):
        graph = load_dataset("twitter", "quick")
        source = sssp_source(graph)
        from repro.graph.analysis import bfs_distances
        assert (bfs_distances(graph, source) >= 0).mean() > 0.5

    def test_dataset_summary_types(self):
        assert dataset_summary("usa-road", "quick")["type"] == "low-degree"
        assert dataset_summary("uk-web", "quick")["type"] == "power-law"
        assert dataset_summary("twitter", "quick")["type"] == "heavy-tailed"


class TestReport:
    def test_table_rendering_aligned(self):
        table = Table("T", ["A", "LongHeader"])
        table.add_row(1, 2.5)
        table.add_row("xx", 10000.0)
        text = table.render()
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "LongHeader" in lines[1]
        assert len({len(line) for line in lines[2:]}) >= 1

    def test_row_width_checked(self):
        table = Table("T", ["A"])
        with pytest.raises(ValueError):
            table.add_row(1, 2)

    def test_report_render(self):
        report = ExperimentReport("x1", "Title")
        t = report.add_table(Table("T", ["A"]))
        t.add_row(3)
        report.add_note("a note")
        text = report.render()
        assert "x1" in text and "Title" in text and "a note" in text

    def test_float_formatting(self):
        table = Table("T", ["A"])
        table.add_row(0.123456)
        assert "0.123" in table.render()


class TestRunner:
    def test_partition_cached(self):
        ctx = ExperimentContext(scale="quick")
        a = ctx.partition("usa-road", "ecr", 4)
        b = ctx.partition("usa-road", "ecr", 4)
        assert a is b

    def test_online_partition_rejects_vertex_cut(self):
        ctx = ExperimentContext(scale="quick")
        with pytest.raises(ConfigurationError):
            ctx.online_partition("usa-road", "hdrf", 4)

    def test_bindings_fixed_across_calls(self):
        ctx = ExperimentContext(scale="quick")
        a = ctx.bindings("usa-road", "one_hop")
        b = ctx.bindings("usa-road", "one_hop")
        assert a is b

    def test_workload_factory(self):
        ctx = ExperimentContext(scale="quick")
        assert ctx.make_workload("pagerank", "usa-road").name == "pagerank"
        assert ctx.make_workload("wcc", "usa-road").name == "wcc"
        assert ctx.make_workload("sssp", "usa-road").name == "sssp"
        with pytest.raises(ConfigurationError):
            ctx.make_workload("kcore", "usa-road")

    def test_analytics_run_cached(self):
        ctx = ExperimentContext(scale="quick")
        a = ctx.analytics_run("usa-road", "ecr", 4, "sssp")
        b = ctx.analytics_run("usa-road", "ecr", 4, "sssp")
        assert a is b


class TestSeedRegistry:
    def test_every_algorithm_constructs_seeded(self):
        """``make_seeded_partitioner`` builds all registered algorithms,
        and each one whose constructor takes ``seed`` keeps it."""
        from repro.partitioning import (
            accepts_seed,
            available_algorithms,
            make_seeded_partitioner,
        )

        seeded = []
        for name in available_algorithms():
            partitioner = make_seeded_partitioner(name, 7)
            if accepts_seed(name):
                assert partitioner.seed == 7, name
                seeded.append(name)
        assert len(seeded) == 9, seeded

    def test_flags_match_constructor_signatures(self):
        import inspect

        from repro.partitioning import (
            accepts_seed,
            available_algorithms,
            make_partitioner,
        )

        for name in available_algorithms():
            factory = type(make_partitioner(name))
            has_seed = "seed" in inspect.signature(factory).parameters
            assert accepts_seed(name) == has_seed, name

    def test_make_seeded_partitioner(self):
        from repro.partitioning import make_seeded_partitioner

        assert make_seeded_partitioner("ldg", 7).seed == 7
        # Hash-based: constructed without the keyword, no TypeError.
        make_seeded_partitioner("ecr", 7)

    def test_constructor_type_errors_propagate(self, monkeypatch):
        from repro.partitioning import registry

        def exploding(seed=None):
            raise TypeError("genuine constructor bug")

        monkeypatch.setitem(registry._FACTORIES, "ldg", exploding)
        with pytest.raises(TypeError, match="genuine constructor bug"):
            registry.make_seeded_partitioner("ldg", 7)

    def test_flag_drift_detected(self, monkeypatch):
        """The flag is read off the constructor, so a constructor that
        gains or loses ``seed`` changes ``accepts_seed`` with it."""
        from repro.partitioning import registry

        class SeededEcr(registry.HashVertexPartitioner):
            def __init__(self, hash_seed=0, seed=None):
                super().__init__(hash_seed)
                self.seed = seed

        assert not registry.accepts_seed("ecr")
        monkeypatch.setitem(registry._FACTORIES, "ecr", SeededEcr)
        assert registry.accepts_seed("ecr")
        assert registry.make_seeded_partitioner("ecr", 7).seed == 7

        monkeypatch.setitem(registry._FACTORIES, "ldg",
                            registry.HashVertexPartitioner)
        assert not registry.accepts_seed("ldg")
        registry.make_seeded_partitioner("ldg", 7)


class TestCli:
    def test_list(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "figure2" in out and "table5" in out

    def test_unknown_experiment(self, capsys):
        assert cli_main(["figure99"]) == 2
        err = capsys.readouterr().err
        # Known experiments are listed one per line.
        assert "\n  table4\n" in err and "\n  figure2\n" in err

    def test_run_table3(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "quick")
        assert cli_main(["table3"]) == 0
        out = capsys.readouterr().out
        assert "twitter" in out and "usa-road" in out

    def test_help_mentions_orchestrator_verbs(self, capsys):
        with pytest.raises(SystemExit):
            cli_main(["--help"])
        out = capsys.readouterr().out
        assert "run-all --jobs 4" in out
        assert "cache stats" in out

    def test_run_all_and_cache_stats(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_SCALE", "quick")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        assert cli_main(["run-all", "table4", "--quiet"]) == 0
        assert "[run-all: 1 experiments" in capsys.readouterr().out
        assert cli_main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "entries:" in out and "partition" in out
        assert cli_main(["cache", "gc"]) == 0
        assert cli_main(["cache", "clear"]) == 0
        capsys.readouterr()

    def test_run_all_unknown_experiment(self, capsys):
        assert cli_main(["run-all", "figure99"]) == 2
        assert "\n  table4\n" in capsys.readouterr().err
