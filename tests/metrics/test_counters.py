"""Unit tests for overhead counters."""

from repro.obs import NULL_COUNTERS, OverheadCounters


class TestBasicAccounting:
    def test_fields_start_at_zero(self):
        counters = OverheadCounters()
        assert counters.vv_comparisons == 0
        assert counters.snapshot()["bytes_sent"] == 0

    def test_direct_attribute_increments(self):
        counters = OverheadCounters()
        counters.vv_comparisons += 3
        assert counters.vv_comparisons == 3

    def test_bump_named_field(self):
        counters = OverheadCounters()
        counters.bump("items_scanned", 5)
        assert counters.items_scanned == 5

    def test_bump_unknown_name_goes_to_extra(self):
        counters = OverheadCounters()
        counters.bump("custom_metric", 2)
        counters.bump("custom_metric")
        assert counters.extra == {"custom_metric": 3}
        assert counters.snapshot()["custom_metric"] == 3

    def test_reset_zeroes_everything(self):
        counters = OverheadCounters()
        counters.vv_comparisons = 5
        counters.bump("custom", 1)
        counters.reset()
        assert counters.vv_comparisons == 0
        assert counters.extra == {}

    def test_snapshot_excludes_raw_extra_key(self):
        counters = OverheadCounters()
        assert "extra" not in counters.snapshot()


class TestAggregation:
    def test_merged_with_sums_fields(self):
        a = OverheadCounters(vv_comparisons=2, bytes_sent=10)
        b = OverheadCounters(vv_comparisons=3)
        b.bump("custom", 7)
        merged = a.merged_with(b)
        assert merged.vv_comparisons == 5
        assert merged.bytes_sent == 10
        assert merged.extra["custom"] == 7

    def test_merge_does_not_mutate_operands(self):
        a = OverheadCounters(vv_comparisons=2)
        b = OverheadCounters(vv_comparisons=3)
        a.merged_with(b)
        assert a.vv_comparisons == 2
        assert b.vv_comparisons == 3

    def test_total_work_sums_comparison_counters(self):
        counters = OverheadCounters(
            vv_comparisons=1,
            vv_components_touched=2,
            log_records_examined=3,
            seqno_comparisons=4,
            items_scanned=5,
            bytes_sent=1000,  # traffic is not "work"
        )
        assert counters.total_work() == 15


class TestNullCounters:
    def test_null_sink_ignores_bumps(self):
        NULL_COUNTERS.bump("vv_comparisons", 100)
        assert NULL_COUNTERS.vv_comparisons == 0

    def test_null_sink_ignores_attribute_writes(self):
        NULL_COUNTERS.items_scanned += 50
        assert NULL_COUNTERS.items_scanned == 0
