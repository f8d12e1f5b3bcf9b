"""Public-API surface tests: the imports a downstream user relies on."""

from __future__ import annotations

import importlib

import pytest


class TestTopLevel:
    def test_version(self):
        import repro

        assert repro.__version__ == "1.0.0"

    def test_lazy_run_simulation(self):
        import repro

        assert callable(repro.run_simulation)

    def test_unknown_attribute(self):
        import repro

        with pytest.raises(AttributeError):
            _ = repro.does_not_exist

    def test_config_types_exported(self):
        from repro import CodeParams, FailurePattern, JobConfig, SimulationConfig

        assert SimulationConfig().code == CodeParams(20, 15)
        assert JobConfig().num_blocks == 1440
        assert FailurePattern.SINGLE_NODE.value == "single-node"


class TestSubpackageSurfaces:
    @pytest.mark.parametrize(
        "module,names",
        [
            ("repro.ec", ["CodeParams", "ErasureCodec", "ReedSolomon"]),
            ("repro.cluster", ["ClusterTopology", "NodeTree", "NetworkSpec", "FailureInjector"]),
            (
                "repro.storage",
                ["BlockMap", "HdfsRaidCluster", "RepairPlanner", "make_placement_policy"],
            ),
            ("repro.sim", ["Simulator", "Timeout", "Semaphore", "FluidNetwork", "RngStreams"]),
            ("repro.core", ["LocalityFirstScheduler", "BasicDegradedFirstScheduler",
                            "EnhancedDegradedFirstScheduler", "make_scheduler"]),
            ("repro.analysis", ["AnalysisParams", "AnalyticalModel", "sweep_code"]),
            ("repro.testbed", ["TestbedCluster", "TestbedConfig", "WordCountJob",
                               "HdfsRaidFilesystem", "generate_corpus"]),
            ("repro.experiments", ["get_experiment", "list_experiments", "ExperimentTable"]),
            ("repro.obs", ["ObservabilityCollector", "EventBus", "MetricsRegistry",
                           "TimeWeightedSeries", "chrome_trace", "events_jsonl"]),
        ],
    )
    def test_documented_names_importable(self, module, names):
        mod = importlib.import_module(module)
        for name in names:
            assert hasattr(mod, name), f"{module}.{name} missing"

    def test_all_lists_are_accurate(self):
        for module_name in (
            "repro.ec",
            "repro.cluster",
            "repro.storage",
            "repro.sim",
            "repro.core",
            "repro.analysis",
            "repro.testbed",
            "repro.experiments",
            "repro.obs",
        ):
            module = importlib.import_module(module_name)
            for name in getattr(module, "__all__", []):
                assert hasattr(module, name), f"{module_name}.__all__ lists missing {name}"


class TestEcSurface:
    """The ``repro.ec`` imports downstream code uses, however they resolve."""

    def test_coder_names_import_from_the_package(self):
        from repro.ec import CodeParams, ErasureCodec, ReedSolomon
        from repro.ec.codec import CodeParams as codec_params
        from repro.ec.codec import ErasureCodec as codec_class
        from repro.ec.reed_solomon import ReedSolomon as coder_class

        assert ReedSolomon is coder_class
        assert ErasureCodec is codec_class
        assert CodeParams is codec_params

    def test_package_attribute_and_all(self):
        import repro.ec

        assert "ReedSolomon" in repro.ec.__all__
        assert repro.ec.ReedSolomon is repro.ec.reed_solomon.ReedSolomon
        with pytest.raises(AttributeError):
            _ = repro.ec.does_not_exist

    def test_codec_builds_the_reed_solomon_coder(self):
        from repro.ec import CodeParams, ErasureCodec, ReedSolomon

        codec = ErasureCodec(CodeParams(6, 4))
        assert type(codec.coder) is ReedSolomon
        assert (codec.coder.n, codec.coder.k) == (6, 4)
        natives = [bytes([value]) * 8 for value in range(4)]
        stripe = codec.encode_stripes([natives])[0]
        survivors = {position: stripe[position] for position in (1, 2, 4, 5)}
        assert codec.degraded_read(0, survivors) == natives[0]

    def test_default_algorithm_is_vandermonde(self):
        from repro.ec import CodeParams, ErasureCodec, ReedSolomon

        assert type(ErasureCodec(CodeParams(4, 3)).coder) is ReedSolomon

