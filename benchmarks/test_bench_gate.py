"""The bench gate itself is regression-tested: a perturbed baseline
must fail the comparison, and the checked-in baselines must stay in
lockstep with the metrics the harnesses emit."""

import json
from pathlib import Path

import bench_gate
from bench_gate import (
    BASELINE_DIR,
    collect_net_smoke_metrics,
    collect_scale_metrics,
    collect_wire_metrics,
    compare,
    metric_kind,
)

TOLERANCE = 0.30


def _load(harness):
    payload = json.loads((BASELINE_DIR / f"{harness}_smoke.json").read_text())
    return payload["metrics"]


class TestMetricKinds:
    def test_every_baselined_metric_has_a_kind(self):
        for harness in ("scale", "wire", "net"):
            for name in _load(harness):
                assert metric_kind(name) in ("exact", "min", "max"), name

    def test_unknown_metric_name_is_a_hard_error(self):
        try:
            metric_kind("some.new.metric")
        except KeyError:
            pass
        else:
            raise AssertionError("unknown metric classified silently")


class TestCompare:
    def test_identical_metrics_pass(self):
        baseline = _load("scale")
        assert compare(dict(baseline), baseline, TOLERANCE) == []

    def test_deliberate_slowdown_fails(self):
        # The acceptance scenario from the issue: slow a timed metric
        # past the band and the gate must trip.
        baseline = _load("scale")
        slowed = dict(baseline)
        name = "quiescent.modelled.per_round_ms"
        slowed[name] = baseline[name] * 2.0
        violations = compare(slowed, baseline, TOLERANCE)
        assert [v["metric"] for v in violations] == [name]
        assert violations[0]["kind"] == "max"

    def test_throughput_regression_fails(self):
        baseline = _load("wire")
        slowed = dict(baseline)
        name = "throughput.session_frames.roundtrip_mb_s"
        slowed[name] = baseline[name] * 0.5
        violations = compare(slowed, baseline, TOLERANCE)
        assert [v["metric"] for v in violations] == [name]
        assert violations[0]["kind"] == "min"

    def test_within_band_timing_noise_passes(self):
        baseline = _load("scale")
        noisy = {
            name: value * 1.25 if metric_kind(name) == "max" else value
            for name, value in baseline.items()
        }
        assert compare(noisy, baseline, TOLERANCE) == []

    def test_deterministic_counter_drift_fails_regardless_of_band(self):
        baseline = _load("scale")
        drifted = dict(baseline)
        drifted["n8_N100.incremental.messages_sent"] += 2
        violations = compare(drifted, baseline, TOLERANCE)
        assert [v["metric"] for v in violations] == [
            "n8_N100.incremental.messages_sent"
        ]
        assert violations[0]["kind"] == "exact"

    def test_missing_and_unbaselined_metrics_fail(self):
        baseline = _load("wire")
        current = dict(baseline)
        current.pop("session_bytes.quiescent.delta_vv_bytes_per_session")
        current["brand.new.messages_sent"] = 1
        kinds = {v["metric"]: v["kind"] for v in compare(current, baseline, TOLERANCE)}
        assert kinds == {
            "session_bytes.quiescent.delta_vv_bytes_per_session": "missing",
            "brand.new.messages_sent": "unbaselined",
        }


class TestBaselinesMatchHarnessShape:
    """The baselines gate what the harnesses actually emit: extraction
    over a canned report shaped like the current harness output must
    produce exactly the baselined metric names."""

    def test_scale_metric_names_match_baseline(self):
        import scale_harness

        report = {
            "configs": [
                {
                    "n_nodes": n,
                    "n_items": items,
                    "incremental": {
                        "messages_sent": 0,
                        "converge_round": 1,
                        "per_round_ms": 1.0,
                    },
                }
                for n, items in scale_harness.SMOKE_GRID
            ],
            "quiescent": {
                "arms": {
                    mode: {"phases": {"quiescent": {"per_round_ms": 1.0}}}
                    for mode in ("modelled",)
                }
            },
        }
        assert set(collect_scale_metrics(report)) == set(_load("scale"))

    def test_wire_metric_names_match_baseline(self):
        report = {
            "throughput": {
                "session_frames": {"roundtrip_mb_s": 1.0},
                "session_frames_full_vv": {"roundtrip_mb_s": 1.0},
                "small_frames_per_sec": 1,
            },
            "session_bytes": {
                arm: {
                    "delta_vv_bytes_per_session": 1.0,
                    "full_vv_bytes_per_session": 1.0,
                }
                for arm in ("quiescent", "propagating")
            },
        }
        assert set(collect_wire_metrics(report)) == set(_load("wire"))


class TestNetSmoke:
    """``--net-smoke``: the system benchmark's exact counts, read from
    the report ``python -m benchmarks.net --workload all --smoke`` printed."""

    @staticmethod
    def _stdout(tmp_path, bump=0.0):
        contract = json.loads(
            (Path(bench_gate.__file__).parents[1] / "BENCHMARK.json").read_text()
        )
        baseline = _load("net")
        results = {
            workload["name"]: {
                "correct": True,
                "metrics": {
                    entry["name"]: {
                        "value": baseline.get(
                            f"{workload['name']}.{entry['name']}", 1.0
                        )
                        + bump,
                        "unit": entry["unit"],
                    }
                    for entry in contract["end_to_end"]
                },
            }
            for workload in contract["workloads"]
        }
        path = tmp_path / "net-smoke.out"
        path.write_text(f"== a report\n  put_cpu_us 18 us\n{json.dumps(results)}\n")
        return path

    def test_baseline_holds_both_counts_of_every_workload(self, tmp_path):
        current = bench_gate._collect("net", self._stdout(tmp_path))
        assert current == _load("net")
        assert len(current) == 2 * 4
        assert all(metric_kind(name) == "exact" for name in current)

    def test_gate_passes_on_the_baselined_counts(self, tmp_path):
        report = tmp_path / "report.json"
        argv = ["--net-smoke", str(self._stdout(tmp_path)), "--report", str(report)]
        assert bench_gate.main(argv) == 0
        assert list(json.loads(report.read_text())["harnesses"]) == ["net"]

    def test_one_byte_more_per_item_fails_it(self, tmp_path):
        report = tmp_path / "report.json"
        argv = [
            "--net-smoke", str(self._stdout(tmp_path, bump=1 / 256)),
            "--report", str(report),
        ]
        assert bench_gate.main(argv) == 1
        violations = json.loads(report.read_text())["harnesses"]["net"]["violations"]
        assert len(violations) == 8
        assert {v["kind"] for v in violations} == {"exact"}

    def test_timed_metrics_of_the_run_are_not_gated(self):
        results = {"w": {"metrics": {
            "put_cpu_us": {"value": 1e9},
            "wire_bytes_per_item": {"value": 1.0},
            "wire_bytes_per_idle_sync": {"value": 2.0},
        }}}
        assert collect_net_smoke_metrics(results) == {
            "w.wire_bytes_per_item": 1.0,
            "w.wire_bytes_per_idle_sync": 2.0,
        }


class TestUpdateRoundTrip:
    def test_write_then_load_is_identity(self, tmp_path, monkeypatch):
        monkeypatch.setattr(bench_gate, "BASELINE_DIR", tmp_path)
        metrics = {"x.messages_sent": 3, "y.per_round_ms": 1.5}
        path = bench_gate.write_baseline("scale", metrics)
        assert path.parent == tmp_path
        assert bench_gate.load_baseline("scale") == metrics
        payload = json.loads(Path(path).read_text())
        assert payload["regenerate_with"].endswith("--update")
