"""Unit tests for conflict reporting and origin pinpointing."""

from repro.core.conflicts import (
    ConflictReporter,
    ConflictSite,
    pinpoint_conflicting_origins,
)
from repro.core.version_vector import VersionVector


def vv(*counts):
    return VersionVector.from_counts(list(counts))


class TestPinpointing:
    """Paper Fig. 4 footnote: vectors conflicting in components k and l
    pinpoint servers k and l as holding inconsistent replicas."""

    def test_simple_two_way_conflict(self):
        assert pinpoint_conflicting_origins(vv(1, 0), vv(0, 1)) == (0, 1)

    def test_multi_component_conflict(self):
        assert pinpoint_conflicting_origins(vv(2, 0, 5, 1), vv(0, 3, 5, 2)) == (0, 1, 3)

    def test_non_conflicting_vectors_pinpoint_nothing(self):
        assert pinpoint_conflicting_origins(vv(2, 2), vv(1, 1)) == ()
        assert pinpoint_conflicting_origins(vv(1, 1), vv(1, 1)) == ()


class TestReporter:
    def test_declare_records_report(self):
        reporter = ConflictReporter()
        report = reporter.declare(
            "x", 0, ConflictSite.ACCEPT_PROPAGATION, vv(1, 0), vv(0, 1)
        )
        assert reporter.count == 1
        assert report.item == "x"
        assert report.origins == (0, 1)
        assert "inconsistent" in report.describe()

    def test_conflicts_for_filters_by_item(self):
        reporter = ConflictReporter()
        reporter.declare("x", 0, ConflictSite.INTRA_NODE, vv(1, 0), vv(0, 1))
        reporter.declare("y", 1, ConflictSite.INTRA_NODE, vv(1, 0), vv(0, 1))
        assert len(reporter.conflicts_for("x")) == 1
        assert reporter.conflicts_for("z") == []

    def test_clear(self):
        reporter = ConflictReporter()
        reporter.declare("x", 0, ConflictSite.INTRA_NODE, vv(1, 0), vv(0, 1))
        reporter.clear()
        assert reporter.count == 0

    def test_reports_snapshot_vectors_as_tuples(self):
        reporter = ConflictReporter()
        local = vv(1, 0)
        reporter.declare("x", 0, ConflictSite.ACCEPT_PROPAGATION, local, vv(0, 1))
        local.increment(0)
        assert reporter.reports[0].local_vv == (1, 0)

    def test_each_node_reports_its_own_detection(self):
        """Both pullers of a conflicting pair declare into their own
        reporter; the simulation sums the per-node counts."""
        from repro.core.node import EpidemicNode
        from repro.substrate.operations import Put

        a = EpidemicNode(0, 2, ["x"])
        b = EpidemicNode(1, 2, ["x"])
        a.update("x", Put(b"a"))
        b.update("x", Put(b"b"))
        a.pull_from(b)
        b.pull_from(a)
        assert [r.detected_by for r in a.conflicts.reports] == [0]
        assert [r.detected_by for r in b.conflicts.reports] == [1]
