"""R16 violation fixture: fresh allocations on per-round hot paths."""

from repro.core.version_vector import VersionVector


class Sim:
    def run_round(self):
        for node_id, peer in self.schedule:
            scratch = VersionVector(self.n_nodes)  # flagged: fresh VV per session
            scratch.merge_from(self.nodes[node_id].dbvv)
            self._run_session(node_id, peer)

    def _run_session(self, node_id, peer):
        baseline = VersionVector.zero(self.n_nodes)  # flagged: fresh VV
        frame = bytearray()  # flagged: fresh buffer where the codec pool exists
        frame += b"\x00"
        return baseline, frame

    def deliver(self, src, dst, message):
        copy = VersionVector.from_counts(message.counts)  # flagged: fresh VV
        self._in_flight[(src, dst)] = copy
