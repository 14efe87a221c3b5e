"""Compliant twin of ``con_violations.py``.

The engine implements the full kernel contract and charges every cost
through the Metrics helpers; the read-only store open only reads.
"""

from repro.campaign.store import open_store
from repro.simulator.engine import Engine


class FullEngine(Engine):
    def __init__(self, metrics):
        self.metrics = metrics

    def vertices(self):
        return []

    def node(self, vertex):
        return None

    def send(self, sender, receiver, kind, payload):
        self.metrics.record_message(kind, 1)

    def pending_count(self):
        return 0

    def deliver_round(self):
        self.metrics.record_round()
        self.metrics.record_bulk(0, 0)
        return {}


def summarize(path):
    store = open_store(path, read_only=True)
    return len(store)
