"""Package-surface tests: the top-level imports a user starts from."""

import importlib

import repro


class TestTopLevel:
    def test_version_is_exposed(self):
        assert repro.__version__
        major = int(repro.__version__.split(".")[0])
        assert major >= 1

    def test_headline_exports(self):
        assert repro.EpidemicNode is not None
        assert repro.VersionVector is not None
        assert repro.Ordering is not None
        assert issubclass(repro.ReplicationError, Exception)

    def test_quickstart_docstring_example_works(self):
        """The example in the package docstring must actually run."""
        from repro.core import EpidemicNode
        from repro.substrate.operations import Put

        items = [f"item-{k}" for k in range(100)]
        a = EpidemicNode(0, 2, items)
        b = EpidemicNode(1, 2, items)
        a.update("item-7", Put(b"hello"))
        b.pull_from(a)
        assert b.read("item-7") == b"hello"


class TestSubpackagesImportCleanly:
    def test_every_public_module_imports(self):
        modules = [
            "repro.core", "repro.core.version_vector", "repro.core.dbvv",
            "repro.core.log_vector", "repro.core.auxiliary", "repro.core.items",
            "repro.core.messages", "repro.core.node", "repro.core.delta",
            "repro.core.conflicts", "repro.core.protocol",
            "repro.substrate", "repro.substrate.operations",
            "repro.substrate.clock",
            "repro.durable", "repro.durable.checkpoint", "repro.durable.journal",
            "repro.cluster", "repro.cluster.events", "repro.cluster.network",
            "repro.cluster.scheduler", "repro.cluster.topologies",
            "repro.cluster.failures", "repro.cluster.convergence",
            "repro.cluster.simulation",
            "repro.cluster.event_sim",
            "repro.baselines", "repro.baselines.per_item",
            "repro.baselines.lotus", "repro.baselines.oracle",
            "repro.baselines.wuu_bernstein", "repro.baselines.agrawal_malpani",
            "repro.workload", "repro.workload.generators", "repro.workload.traces",
            "repro.metrics", "repro.metrics.staleness",
            "repro.metrics.reporting", "repro.metrics.ascii_chart",
            "repro.analysis", "repro.analysis.verdicts",
            "repro.experiments", "repro.experiments.common",
            "repro.experiments.run_all", "repro.interfaces", "repro.errors",
            "repro.obs",
        ] + [f"repro.experiments.e{k}_" for k in []]  # experiment ids below
        modules += [
            "repro.experiments.e1_identical_detection",
            "repro.experiments.e2_propagation_cost",
            "repro.experiments.e3_log_bound",
            "repro.experiments.e4_lotus_comparison",
            "repro.experiments.e5_failure_recovery",
            "repro.experiments.e6_out_of_bound",
            "repro.experiments.e7_convergence",
            "repro.experiments.e8_traffic",
            "repro.experiments.e9_read_staleness",
            "repro.experiments.ablations",
        ]
        for name in modules:
            importlib.import_module(name)

    def test_all_lists_are_accurate(self):
        """Every name in a module's __all__ actually exists."""
        for name in [
            "repro.core", "repro.cluster", "repro.baselines",
            "repro.workload", "repro.metrics", "repro.analysis",
            "repro.substrate",
        ]:
            module = importlib.import_module(name)
            for public in module.__all__:
                assert hasattr(module, public), f"{name}.{public} missing"
