"""R16 clean fixture: per-round hot paths reuse hoisted scratch state."""

from repro.core.version_vector import VersionVector


class Sim:
    def __init__(self, n_nodes):
        # Allocated once outside the round loop; every round reuses it
        # through the in-place APIs.
        self.n_nodes = n_nodes
        self._scratch = VersionVector(n_nodes)

    def run_round(self):
        for node_id, peer in self.schedule:
            self._scratch.merge_from(self.nodes[node_id].dbvv)
            self._run_session(node_id, peer)

    def _run_session(self, node_id, peer):
        encoder = self.codec.lease(node_id, peer)  # pooled buffer
        encoder.reset()
        return encoder

    def deliver(self, src, dst, message):
        # Delivery hands on already-materialized state; nothing fresh
        # is built per message.
        self._in_flight[(src, dst)] = message.dbvv
