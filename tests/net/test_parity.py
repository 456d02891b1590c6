"""Differential parity: the networked cluster vs the simulator.

Each case records a seeded workload through ``ClusterSimulation(
sanitize=True)``, replays it through a real 4-process
localhost cluster, and requires identical converged stores, per-item
version vectors, DBVVs, conflict counts, and (with zero reconnects)
an identical frame-type traffic census.

The quick cases keep tier-1 runtime sane; the 25-seed soak is the
acceptance sweep, gated behind ``REPRO_NET_SOAK=1`` (the CI
``net-parity`` job runs the 5-seed harness CLI instead).
"""

import os

import pytest

from repro.net.harness import run_parity

QUICK_SEEDS = [101, 202]


@pytest.mark.parametrize("seed", QUICK_SEEDS)
def test_parity_quick(seed, tmp_path):
    report = run_parity(seed, rounds=4, log_dir=tmp_path)
    assert report.ok, report.summary()
    assert report.sessions > 0
    assert report.net_census.get("PropagationRequest", 0) == report.sessions
    # A clean shutdown cancels nothing behind the node's back: no node
    # log holds a traceback (Python 3.11's asyncio logged one for every
    # inbound connection still being served when the node stopped).
    logs = sorted(tmp_path.glob("node-*.log"))
    assert logs
    assert [log.name for log in logs if "Traceback" in log.read_text()] == []


def test_parity_census_shape(tmp_path):
    """Every session is exactly one request plus one answer."""
    report = run_parity(303, rounds=3, log_dir=tmp_path)
    assert report.ok, report.summary()
    census = report.net_census
    answers = census.get("PropagationReply", 0) + census.get(
        "YouAreCurrent", 0
    )
    assert census.get("PropagationRequest", 0) == answers == report.sessions


def test_parity_soak_25_seeds(tmp_path):
    if not os.environ.get("REPRO_NET_SOAK"):
        pytest.skip("set REPRO_NET_SOAK=1 to run the 25-seed parity soak")
    failures = []
    for seed in range(1, 26):
        report = run_parity(seed, rounds=5, log_dir=tmp_path / str(seed))
        if not report.ok:
            failures.append(report.summary())
    assert not failures, "\n".join(failures)
