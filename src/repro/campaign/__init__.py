"""Campaign orchestration: declarative sweep grids, executors, run store.

The paper's headline claims are *scaling curves* -- rounds and messages
as functions of ``n``, ``D`` and the bandwidth ``b`` -- so reproducing
them means sweeping hundreds of (graph family x algorithm x bandwidth x
engine x seed) cells.  This package turns such sweeps into data:

* :mod:`repro.campaign.spec` -- :class:`RunSpec` (one cell, fully
  serializable, content-hashed) and :class:`Campaign` (a named grid of
  cells with a cross-product expander);
* :mod:`repro.campaign.presets` -- named grids reproducing the paper's
  E1-E9 experiment scenarios;
* :mod:`repro.campaign.executor` -- serial and ``multiprocessing``
  executors that produce row-for-row identical output; only the calling
  process writes the store;
* :mod:`repro.campaign.store` -- an append-only JSONL run store (one
  file) keyed by each cell's content hash, with provenance and resume
  semantics;
* :mod:`repro.campaign.columnar` -- the sqlite-backed columnar backend
  behind the same contract (:func:`open_store` picks by path; see
  DESIGN.md, Section 15).

Quickstart::

    from repro.campaign import Campaign, RunStore, execute_campaign
    from repro.graphs import GraphSpec

    campaign = Campaign.from_grid(
        "demo",
        graphs=[GraphSpec("random_connected", {"n": 64})],
        algorithms=("elkin", "ghs"),
        bandwidths=(1, 4),
        seeds=(0, 1),
    )
    report = execute_campaign(campaign, store=RunStore("runs.jsonl"), jobs=4)
    print(report.rows)
"""

from .columnar import ColumnarStore
from .executor import CampaignReport, execute_campaign, run_spec
from .presets import available_presets, preset_campaign, PRESETS
from .spec import Campaign, graph_spec_for, inline_graph_spec, RunSpec
from .store import convert_store, open_store, RunStore

__all__ = [
    "Campaign",
    "CampaignReport",
    "ColumnarStore",
    "PRESETS",
    "RunSpec",
    "RunStore",
    "available_presets",
    "convert_store",
    "execute_campaign",
    "graph_spec_for",
    "inline_graph_spec",
    "open_store",
    "preset_campaign",
    "run_spec",
]
