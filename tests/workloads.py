"""A uniform update stream for tests.

Every item is equally likely and every node equally likely to write it —
the worst case for the paper's protocol (m approaches N fast), and a
generator whose stream no experiment needs.
"""

from repro.workload.generators import WorkloadGenerator


class UniformWorkload(WorkloadGenerator):
    """Uniform item popularity, uniform originating node."""

    def _pick(self) -> tuple[int, str]:
        return (
            self.rng.randrange(self.n_nodes),
            self.items[self.rng.randrange(len(self.items))],
        )
