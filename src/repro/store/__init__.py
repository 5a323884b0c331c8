"""Persistent content-addressed result storage and resumable campaigns.

The simulation stack computes; this package remembers.  Two pieces:

- :class:`ResultStore` -- a stdlib-SQLite, content-addressed map from
  ``Scenario.cache_key()`` to the scenario's full JSON-round-trippable
  :class:`~repro.system.result.SystemResult` payload plus provenance
  (backend, library version, wall time, timestamp).  Plugged into a
  :class:`~repro.core.batch.BatchRunner` it becomes the second cache
  tier (memory LRU -> disk store -> simulate, write-through), shared by
  every process that opens the same file.
- :class:`Campaign` -- a named, journaled scenario list executed against
  a store in crash-safe chunks.  ``run()``/``resume()`` only simulate
  what the store does not already hold, so large studies survive kills,
  reboots and code iterations without re-simulating finished work.

Quickstart::

    from repro import BatchRunner, ResultStore, Campaign, named_family

    store = ResultStore("results.db")
    family = named_family("factory-floor")
    camp = Campaign.create(store, "floor-study", family.expand(n=40, seed=0))
    camp.run(jobs=4)          # kill it halfway...
    camp.resume(jobs=4)       # ...and only the missing scenarios run

    rows = store.query(family="factory-floor", min_transmissions=100)

Merge and partitions: :func:`merge_stores`/:func:`sync_stores` fold
stores into each other with byte-identity checks, and
:meth:`Campaign.run_partitioned` fans a campaign out over processes
with local scratch stores and merges them back into the one store
file at the end::

    wide = Campaign.create(store, "floor-wide", family.expand(n=400, seed=1))
    wide.run_partitioned(parts=4)    # 4 processes, 4 local stores, merged
"""

from repro.store.db import (
    RESULT_COLUMNS,
    STORE_SCHEMA,
    ResultStore,
    StoredResult,
    StoredStudy,
    StoreStats,
    canonical_json,
    scenario_family,
)
from repro.store.campaign import (
    Campaign,
    CampaignGroup,
    CampaignPartition,
    CampaignStatus,
    campaign_names,
    campaign_statuses,
    group_campaign_statuses,
    partition_name,
    partition_scenarios,
    partition_slices,
    split_partition_name,
)
from repro.store.merge import (
    MergeReport,
    import_raw_rows,
    merge_stores,
    sync_stores,
)

__all__ = [
    "RESULT_COLUMNS",
    "STORE_SCHEMA",
    "MergeReport",
    "ResultStore",
    "StoredResult",
    "StoredStudy",
    "StoreStats",
    "Campaign",
    "CampaignGroup",
    "CampaignPartition",
    "CampaignStatus",
    "campaign_names",
    "campaign_statuses",
    "canonical_json",
    "group_campaign_statuses",
    "import_raw_rows",
    "merge_stores",
    "partition_name",
    "partition_scenarios",
    "partition_slices",
    "scenario_family",
    "split_partition_name",
    "sync_stores",
]
