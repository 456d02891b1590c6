"""Tests of the benchmark itself (``pytest benchmarks/net``; not tier-1).

The slow ones run the real command line with ``--smoke`` on the durable
two-writer workload — twice with one seed for the end-to-end metrics, once
for the per-layer ones — each in its own process group, so that a child
that outlived its run is caught.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path
from typing import Any

import pytest

from benchmarks.net.bench import OUT_DIR, REPO_ROOT
from benchmarks.net.cli import load_contract
from benchmarks.net.measure import Snapshot, nominal_us, speed_factors
from benchmarks.net.oracle import Oracle
from benchmarks.net.speedometer import NOMINAL_COMPUTE, NOMINAL_SESSION, SpeedSample
from benchmarks.net.trace import check_spans, self_times

SMOKE_WORKLOAD = "durable_two_writers"
EXACT_END_TO_END = ("wire_bytes_per_item", "wire_bytes_per_idle_sync")
EXACT_PER_LAYER = (
    "net.frames_per_idle_sync",
    "net.frames_per_burst_sync",
    "durable.fsyncs_per_put",
    "durable.wal_bytes_per_put",
    "durable.checkpoints_per_1k_puts",
)


def _processes_in_group(group: int) -> list[str]:
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
            fields = stat[stat.rindex(")") + 2 :].split()
            if int(fields[2]) == group and fields[0] != "Z":
                found.append((entry / "cmdline").read_text().replace("\0", " "))
        except (OSError, ValueError):
            continue
    return found


def _smoke(trace: int, seed: int = 7) -> dict[str, Any]:
    process = subprocess.Popen(
        [
            sys.executable, "-m", "benchmarks.net", "--workload", SMOKE_WORKLOAD,
            "--seed", str(seed), "--trace", str(trace), "--smoke",
        ],  # fmt: skip
        cwd=REPO_ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    out, err = process.communicate(timeout=170)
    assert process.returncode == 0, f"exit {process.returncode}\n{out[-3000:]}\n{err[-3000:]}"
    survivors = _processes_in_group(process.pid)
    assert not survivors, f"children outlived the run: {survivors}"
    result: dict[str, Any] = json.loads(out.strip().splitlines()[-1])
    result["stdout"] = out
    return result


@pytest.fixture(scope="module")
def end_to_end_runs() -> list[dict[str, Any]]:
    return [_smoke(trace=0), _smoke(trace=0)]


@pytest.fixture(scope="module")
def layer_run() -> dict[str, Any]:
    return _smoke(trace=1)


# -- the contract -----------------------------------------------------------------


def test_contract_names_are_well_formed_and_unique() -> None:
    contract = load_contract()
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in contract[key]
    ]
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    assert len(names) == len(set(names))
    assert any(
        entry == {"name": "setup_s", "unit": "s", "better": "lower", "bound": entry["bound"]}
        for entry in contract["end_to_end"]
    )
    assert all(0 < entry["bound"] <= 0.25 for entry in contract["end_to_end"])
    assert len(contract["per_layer"]) <= 128


@pytest.mark.parametrize("kind", ["end_to_end", "per_layer"])
def test_emitted_metrics_equal_the_contract_both_ways(
    kind: str, end_to_end_runs: list[dict[str, Any]], layer_run: dict[str, Any]
) -> None:
    result = end_to_end_runs[0] if kind == "end_to_end" else layer_run
    wanted = {entry["name"]: entry["unit"] for entry in load_contract()[kind]}
    emitted = {name: reading["unit"] for name, reading in result["metrics"].items()}
    assert emitted == wanted
    assert set(result) - {"stdout"} == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    for name in wanted:  # printed by name with its unit, too
        assert re.search(rf"^\s+{re.escape(name)}\s+\S+ {re.escape(wanted[name])}", result["stdout"], re.M)


def test_end_to_end_metrics_are_never_zero(end_to_end_runs: list[dict[str, Any]]) -> None:
    for name, reading in end_to_end_runs[0]["metrics"].items():
        assert reading["value"] > 0, name


def test_exact_metrics_repeat_with_the_seed(end_to_end_runs: list[dict[str, Any]]) -> None:
    first, second = end_to_end_runs
    for name in EXACT_END_TO_END:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    assert first["attempted"] == second["attempted"]


def test_layer_run_counts_and_span_file(layer_run: dict[str, Any]) -> None:
    metrics = {name: reading["value"] for name, reading in layer_run["metrics"].items()}
    assert metrics["net.frames_per_idle_sync"] == 2
    assert metrics["net.frames_per_burst_sync"] == 2
    assert metrics["durable.fsyncs_per_put"] >= 1  # no cross-client group commit yet
    assert metrics["durable.records_replayed"] > 0
    assert metrics["trace.overhead_ratio"] > 1
    assert metrics["trace.spans"] > 0
    for name in EXACT_PER_LAYER:
        assert metrics[name] > 0, name
    recorded = json.loads((OUT_DIR / f"trace_{SMOKE_WORKLOAD}.json").read_text())
    assert set(recorded) == {"node0", "node1-first-life", "node1-second-life"}
    for tag, record in recorded.items():
        spans = record["spans"]
        assert spans, tag
        assert check_spans(spans) == [], tag
        assert min(self_times(spans).values()) >= 0, tag
    replayed = {span[3] for span in recorded["node1-second-life"]["spans"]}
    assert {"recover.import", "durable.recover", "durable.wal_scan"} <= replayed


# -- arithmetic, oracle, span checks (no cluster) -----------------------------------


def _snapshot(cpu_ns: tuple[int, int], speed: dict[int, SpeedSample]) -> Snapshot:
    return Snapshot(wall_ns=0, cpu_ns=cpu_ns, speed=speed)


def test_normalisation_on_synthetic_snapshots() -> None:
    ms = 1_000_000
    before = _snapshot((0, 0), {0: SpeedSample(0, 0, 0, 0), 1: SpeedSample(0, 0, 0, 0)})
    after = _snapshot(
        (4 * ms, 6 * ms),
        {
            # Over 20 ms of its own CPU: CPU 0 ran the compute kernel at
            # exactly the nominal rate and the session kernel at half of
            # it; CPU 1 ran both twice as fast as CPU 0.
            0: SpeedSample(round(NOMINAL_COMPUTE * 20 * ms), 20 * ms, round(NOMINAL_SESSION * 10 * ms), 20 * ms),
            1: SpeedSample(round(NOMINAL_COMPUTE * 40 * ms), 20 * ms, round(NOMINAL_SESSION * 20 * ms), 20 * ms),
        },
    )
    compute = speed_factors(before, after, "compute")
    session = speed_factors(before, after, "session")
    assert compute == pytest.approx({0: 1.0, 1: 2.0})
    assert session == pytest.approx({0: 0.5, 1: 1.0})
    deltas = dict(enumerate(after.cpu_since(before)))
    # Node 0 on CPU 0, node 1 on CPU 1: 4 ms at x1 + 6 ms at x2 = 16 000 us.
    assert nominal_us(deltas, compute, [0, 1]) == pytest.approx(16_000)
    assert nominal_us(deltas, session, [0, 1]) == pytest.approx(8_000)
    # Both nodes on one CPU (a 1-CPU box): both charged at that CPU's rate.
    assert nominal_us(deltas, compute, [0, 0]) == pytest.approx(10_000)
    assert nominal_us({0: 4 * ms}, compute, [0, 1]) == pytest.approx(4_000)
    with pytest.raises(RuntimeError):
        speed_factors(after, after, "compute")  # a stalled speedometer is an error, not a 0


def _reply(**fields: Any) -> bytes:
    return json.dumps(fields).encode()


def test_oracle_trips_on_tampered_replies() -> None:
    oracle = Oracle()
    oracle.check_gets([_reply(ok=True, value="aa")], ["aa"])
    oracle.check_syncs([_reply(ok=True, identical=True, adopted=[])], 1, identical=True)
    assert oracle.correct and oracle.attempted == 2 and oracle.failed == 0

    tampered = Oracle()
    tampered.check_gets([_reply(ok=True, value="ab")], ["aa"])
    assert not tampered.correct and tampered.failed == 1

    refused = Oracle()
    refused.check_puts([_reply(ok=False, error="bad request")], 1)
    assert not refused.correct and refused.failed == 1

    short = Oracle()
    short.check_syncs([_reply(ok=True, identical=False, adopted=["k1"])], 1, adopted=2)
    assert not short.correct

    not_idle = Oracle()
    not_idle.check_syncs([_reply(ok=True, identical=False, adopted=["k1"])], 1, identical=True)
    assert not not_idle.correct

    lost = Oracle()
    lost.check_puts([], 1)
    assert not lost.correct and lost.failed == 1


def test_oracle_compares_final_and_recovered_states() -> None:
    status = {"node": 0, "store": {"k": "aa"}, "ivvs": {"k": [1, 0]}, "dbvv": [1, 0]}
    oracle = Oracle()
    oracle.model = {"k": "aa"}
    oracle.check_converged([status, {**status, "node": 1}])
    oracle.check_recovered(status, dict(status))
    assert oracle.correct
    for key, other in (("store", {"k": "bb"}), ("ivvs", {"k": [0, 0]}), ("dbvv", [0, 0])):
        diverged = Oracle()
        diverged.model = {"k": "aa"}
        diverged.check_converged([status, {**status, "node": 1, key: other}])
        assert not diverged.correct, key
        forgot = Oracle()
        forgot.check_recovered(status, {**status, key: other})
        assert not forgot.correct, key


def test_span_checks_catch_broken_files() -> None:
    #        id parent op name phase start end busy
    sound = [[2, 1, 1, "net.json", "put", 10, 14, 4], [1, 0, 1, "net.client_op", "put", 0, 20, 12]]
    assert check_spans(sound) == []
    assert self_times(sound) == {2: 4, 1: 8}
    orphan = [[2, 9, 1, "net.json", "put", 10, 14, 4]]
    assert any("no parent" in problem for problem in check_spans(orphan))
    greedy = [[2, 1, 1, "net.json", "put", 0, 30, 30], [1, 0, 1, "net.client_op", "put", 0, 20, 12]]
    assert any("exceed" in problem for problem in check_spans(greedy))
    negative = [[1, 0, 1, "net.client_op", "put", 0, 20, -1]]
    assert any("negative" in problem for problem in check_spans(negative))


def test_bare_directory_exits_nonzero_without_a_result(tmp_path: Path) -> None:
    """With only BENCHMARK.json and the benchmark's own files there is no
    program to measure: fail fast, print no result."""
    target = tmp_path / "benchmarks" / "net"
    target.mkdir(parents=True)
    for source in (REPO_ROOT / "benchmarks" / "net").glob("*.py"):
        (target / source.name).write_bytes(source.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((REPO_ROOT / "BENCHMARK.json").read_bytes())
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "-m", "benchmarks.net", "--workload", "mem_small_kv",
         "--seed", "1", "--seconds", "1", "--trace", "0"],  # fmt: skip
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
