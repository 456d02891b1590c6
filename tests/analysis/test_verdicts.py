"""Automated paper-claim verdicts on real experiment output.

These are the strongest shape tests in the suite: the measured series
from E1/E2 must be exactly the paper's claimed laws, and E7's rounds
must fit them best, protocol by protocol.
"""

import pytest

from repro.analysis.verdicts import (
    exact_law,
    verdict_e1,
    verdict_e2_m,
    verdict_e2_n,
    verdict_e7,
)
from repro.experiments.e1_identical_detection import run as run_e1
from repro.experiments.e2_propagation_cost import run_sweep_m, run_sweep_n
from repro.experiments.e7_convergence import run_convergence


@pytest.fixture(scope="module")
def e1_rows():
    return run_e1(sizes=(100, 400, 1_600, 6_400), updates=10)


@pytest.fixture(scope="module")
def e2_n_rows():
    return run_sweep_n(sizes=(200, 800, 3_200, 12_800))


@pytest.fixture(scope="module")
def e2_m_rows():
    return run_sweep_m(m_values=(1, 8, 64, 512), n_items=2_000)


@pytest.fixture(scope="module")
def e7_rows():
    return run_convergence(node_counts=(4, 8, 16, 32, 64), seeds=(1, 2, 3))


class TestE1Verdicts:
    def test_dbvv_is_constant(self, e1_rows):
        verdict = verdict_e1(e1_rows, "dbvv")
        assert verdict.matches, verdict.describe()
        assert verdict.evidence == "4 at every N"

    @pytest.mark.parametrize("protocol", ["per-item-vv", "lotus"])
    def test_baselines_are_linear(self, e1_rows, protocol):
        verdict = verdict_e1(e1_rows, protocol)
        assert verdict.matches, verdict.describe()

    def test_wuu_bernstein_is_flat_in_n(self, e1_rows):
        verdict = verdict_e1(e1_rows, "wuu-bernstein")
        assert verdict.matches, verdict.describe()


class TestE2Verdicts:
    def test_dbvv_flat_in_n(self, e2_n_rows):
        verdict = verdict_e2_n(e2_n_rows, "dbvv")
        assert verdict.matches, verdict.describe()

    @pytest.mark.parametrize("protocol", ["per-item-vv", "lotus"])
    def test_baselines_linear_in_n(self, e2_n_rows, protocol):
        verdict = verdict_e2_n(e2_n_rows, protocol)
        assert verdict.matches, verdict.describe()

    def test_dbvv_linear_in_m(self, e2_m_rows):
        verdict = verdict_e2_m(e2_m_rows, "dbvv")
        assert verdict.matches, verdict.describe()
        assert verdict.evidence == "8·m + 3"


class TestE7Verdicts:
    def test_random_pull_is_logarithmic(self, e7_rows):
        verdict = verdict_e7(e7_rows, "random")
        assert verdict.matches, verdict.describe()

    def test_ring_is_linear(self, e7_rows):
        verdict = verdict_e7(e7_rows, "ring")
        assert verdict.matches, verdict.describe()

    def test_describe_is_informative(self, e7_rows):
        text = verdict_e7(e7_rows, "random").describe()
        assert "logarithmic" in text
        assert "MATCHES" in text


class TestExactLaw:
    def test_constant(self):
        assert exact_law([1, 2, 4], [7, 7, 7], "N") == ("constant", "7 at every N")

    def test_linear_reports_the_affine_law(self):
        assert exact_law([1, 8, 64], [11, 67, 515], "m") == ("linear", "8·m + 3")
        assert exact_law([2, 4, 8], [0, 1, 3]) == ("linear", "1/2·x - 1")

    def test_anything_else_is_not_affine(self):
        assert exact_law([1, 2, 3], [1, 4, 9]) == ("not affine", "slopes 3, 5")
        assert exact_law([1, 2, 3], [3, 2, 1]) == ("not affine", "slopes -1, -1")

    def test_fewer_than_three_points_raise(self):
        with pytest.raises(ValueError):
            exact_law([1, 2], [5, 9])


class TestVerdictNegativePath:
    def test_mismatch_is_reported_honestly(self):
        """A synthetic series that contradicts the claim must produce
        matches=False and a DIVERGES description — the verdict layer
        must be able to fail, or it proves nothing."""
        from repro.analysis.verdicts import ClaimVerdict

        xs = [100, 400, 1_600, 6_400]
        verdict = ClaimVerdict(
            "synthetic", "dbvv", "constant",
            *exact_law(xs, [5 * x for x in xs], "N"),
        )
        assert not verdict.matches
        assert "DIVERGES" in verdict.describe()

    def test_verdict_on_tampered_rows(self, e1_rows):
        """Corrupting the measured data flips the verdict — the checks
        are sensitive, not vacuous.  ``4 + N // 4000`` grows by 25 % over
        the sweep: a least-squares classifier with a growth-ratio gate
        reads it as constant, the exact law does not."""
        from dataclasses import replace

        def tamper(work_of):
            return [
                replace(row, work=work_of(row)) if row.protocol == "dbvv" else row
                for row in e1_rows
            ]

        for work_of, law in [
            (lambda row: row.work * row.n_items, "linear"),
            (lambda row: 4 + row.n_items // 2000, "not affine"),
            (lambda row: 4 + row.n_items // 4000, "not affine"),
        ]:
            verdict = verdict_e1(tamper(work_of), "dbvv")
            assert not verdict.matches
            assert verdict.measured == law, verdict.describe()
