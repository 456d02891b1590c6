"""The arithmetic of ``benchmarks/pairs.py`` on synthetic result lines —
no cluster, milliseconds."""

import json

import pytest

from pairs import judge, main, parse_result, render, report


def _line(correct=True, failed=0, **metrics):
    return json.dumps(
        {
            "correct": correct,
            "attempted": 1000,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": "us"} for name, value in metrics.items()},
        }
    )


class TestParseResult:
    def test_takes_the_last_line_of_a_run(self):
        stdout = "== mem_small_kv\n  get_cpu_us  18.1 us\n  oracle passed\n" + _line(get_cpu_us=18.1)
        result = parse_result(stdout)
        assert result["metrics"]["get_cpu_us"]["value"] == 18.1
        assert result["correct"] and result["failed"] == 0

    @pytest.mark.parametrize("stdout", ["", "Traceback (most recent call last):\n  boom", '{"correct": true}'])
    def test_a_run_without_a_result_line_is_an_error(self, stdout):
        with pytest.raises(ValueError):
            parse_result(stdout)


class TestJudge:
    PARENT = [18.0, 18.4, 17.9, 18.2, 18.1, 18.3, 18.0, 18.2, 18.1, 18.5]

    def test_a_clear_win_is_a_gain(self):
        change = [value * 0.68 for value in self.PARENT]
        verdict = judge("get_cpu_us", "us", 0.17, self.PARENT, change)
        assert (verdict.wins, verdict.ties, verdict.losses) == (10, 0, 0)
        assert verdict.ratio == pytest.approx(0.68)
        assert verdict.regression == "within"
        assert verdict.gain
        assert verdict.parent[0] == pytest.approx(18.15)
        assert verdict.parent[1] <= verdict.parent[0] <= verdict.parent[2]

    def test_eight_wins_of_ten_is_not_a_gain(self):
        change = [value * 0.68 for value in self.PARENT]
        change[0] = change[1] = 19.0
        verdict = judge("get_cpu_us", "us", 0.17, self.PARENT, change)
        assert (verdict.wins, verdict.losses) == (8, 2)
        assert not verdict.gain

    def test_nine_wins_and_a_tie_count_the_tie_for_neither_side(self):
        change = [value * 0.68 for value in self.PARENT]
        change[0] = self.PARENT[0]
        verdict = judge("get_cpu_us", "us", 0.17, self.PARENT, change)
        assert (verdict.wins, verdict.ties, verdict.losses) == (9, 1, 0)
        assert verdict.gain

    def test_winning_every_pair_by_less_than_the_parents_spread_is_not_a_gain(self):
        change = [value - 0.05 for value in self.PARENT]
        verdict = judge("get_cpu_us", "us", 0.17, self.PARENT, change)
        assert verdict.wins == 10
        assert verdict.regression == "within"
        assert not verdict.gain

    def test_worse_than_the_bound_is_a_regression(self):
        change = [value * 1.2 for value in self.PARENT]
        verdict = judge("get_cpu_us", "us", 0.17, self.PARENT, change)
        assert verdict.regression == "WORSE"
        assert not verdict.gain
        assert judge("get_cpu_us", "us", 0.25, self.PARENT, change).regression == "within"

    def test_a_spread_wider_than_the_bound_is_unresolved_not_unchanged(self):
        parent = [10.0, 14.0, 9.0, 15.0, 10.0, 14.0, 9.0, 15.0]
        same = judge("setup_s", "s", 0.1, parent, list(reversed(parent)))
        assert same.regression == "unresolved"
        # ... unless every run of the change beats every run of the parent.
        better = judge("setup_s", "s", 0.1, parent, [value / 2 for value in parent])
        assert better.regression == "within"

    def test_exact_counts_tie(self):
        verdict = judge("wire_bytes_per_item", "B", 0.02, [38.0] * 4, [38.0] * 4)
        assert (verdict.wins, verdict.ties, verdict.losses) == (0, 4, 0)
        assert verdict.ratio == 1.0
        assert verdict.regression == "within"
        assert not verdict.gain

    def test_higher_is_better_flips_the_comparison(self):
        parent = [100.0, 101.0, 99.0, 100.5]
        change = [value * 1.5 for value in parent]
        verdict = judge("wall.gets_per_s", "1/s", 0.1, parent, change, lower_is_better=False)
        assert verdict.wins == 4 and verdict.gain and verdict.regression == "within"
        assert judge("wall.gets_per_s", "1/s", 0.1, change, parent, lower_is_better=False).regression == "WORSE"

    def test_unpaired_readings_are_refused(self):
        with pytest.raises(ValueError):
            judge("get_cpu_us", "us", 0.17, [1.0, 2.0], [1.0])


def test_render_names_every_metric_with_ratio_base_and_verdict():
    parent = TestJudge.PARENT
    verdicts = [
        judge("get_cpu_us", "us", 0.17, parent, [value * 0.68 for value in parent]),
        judge("put_cpu_us", "us", 0.16, parent, [value * 1.3 for value in parent]),
    ]
    table = render("mem_small_kv", verdicts, pairs=10)
    get_row, put_row = table.splitlines()[2:]
    assert "get_cpu_us" in get_row and "0.680" in get_row and "10-0-0" in get_row
    assert "18.15" in get_row  # the ratio's base: the parent's median
    assert get_row.rstrip().endswith("within GAIN  (us)")
    assert "WORSE" in put_row and "GAIN" not in put_row


class TestClaim:
    CONTRACT = [
        {"name": "put_cpu_us", "unit": "us", "better": "lower", "bound": 0.16},
        {"name": "get_cpu_us", "unit": "us", "better": "lower", "bound": 0.17},
    ]

    def _report(self, put=1.0, get=1.0, claim="put_cpu_us", **change_line):
        parent = [parse_result(_line(put_cpu_us=v, get_cpu_us=v)) for v in TestJudge.PARENT]
        change = [
            parse_result(_line(put_cpu_us=v * put, get_cpu_us=v * get, **change_line))
            for v in TestJudge.PARENT
        ]
        return report("propagate_bulk_values", self.CONTRACT, parent, change, claim)

    def test_a_claimed_gain_with_nothing_worse_holds(self):
        text, status = self._report(put=0.75)
        assert status == 0
        assert text.splitlines()[-1] == "  claim put_cpu_us on propagate_bulk_values: HOLDS"

    def test_a_claimed_metric_that_is_merely_within_is_refused(self):
        text, status = self._report(put=0.999)
        assert status == 1
        assert text.splitlines()[-1].endswith("REFUSED (put_cpu_us is not a GAIN)")
        # ... though without a claim the same table is a pass.
        assert self._report(put=0.999, claim=None)[1] == 0

    def test_another_metric_worse_refuses_a_gain(self):
        text, status = self._report(put=0.75, get=1.3)
        assert status == 1
        assert text.splitlines()[-1].endswith("REFUSED (WORSE: get_cpu_us)")

    @pytest.mark.parametrize("flaw", [{"failed": 1}, {"correct": False}])
    def test_a_failed_op_or_run_refuses_a_gain(self, flaw):
        text, status = self._report(put=0.75, **flaw)
        assert status == 1
        assert text.splitlines()[-1].endswith("REFUSED (a side failed an op or a run)")

    def test_an_unknown_metric_is_a_usage_error_before_any_run(self, tmp_path, capsys):
        for side in ("parent", "change"):
            (tmp_path / side).mkdir()
            (tmp_path / side / "BENCHMARK.json").write_text(json.dumps({"end_to_end": self.CONTRACT}))
        argv = ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
                "--workload", "mem_small_kv", "--claim", "put_cpu_ms"]  # fmt: skip
        with pytest.raises(SystemExit) as usage:
            main(argv)
        assert usage.value.code == 2
        assert "put_cpu_ms" in capsys.readouterr().err
