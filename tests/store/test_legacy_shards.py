"""Pre-1.11 sharded store directories: refused loudly, migrated by merge.

Up to version 1.10 a store could be a directory of ``shard-NN.db``
files: result rows routed by ``int(key[:8], 16) % N``, the campaign
journals in ``shard-00.db``.  Every shard file is a complete plain
store, so ``store merge NEW.db DIR/shard-*.db`` folds the directory
into one file.  These tests build that layout by hand.
"""

import pytest

from repro.backends import run
from repro.cli import main
from repro.errors import ConfigError
from repro.scenario import PartsSpec, Scenario
from repro.store import Campaign, ResultStore
from repro.system.config import SystemConfig


def _scenarios(n=6):
    return [
        Scenario(
            config=SystemConfig(tx_interval_s=0.5 + 0.5 * i),
            parts=PartsSpec(v_init=2.85),
            horizon=60.0,
            seed=i,
        )
        for i in range(n)
    ]


def _legacy_layout(root, scenarios, name):
    """Two shard files as the old sharded store wrote them."""
    root.mkdir()
    shards = [ResultStore(root / f"shard-{i:02d}.db") for i in range(2)]
    Campaign.create(shards[0], name, scenarios)
    for scenario in scenarios:
        key = scenario.cache_key()
        shards[int(key[:8], 16) % 2].put(scenario, run(scenario))
    assert all(len(shard) for shard in shards), "rows should hit both shards"
    return [str(shard.path) for shard in shards]


def test_directory_is_refused_naming_the_migration(tmp_path):
    root = tmp_path / "results.d"
    _legacy_layout(root, _scenarios(), "legacy")
    with pytest.raises(ConfigError) as excinfo:
        ResultStore(root)
    message = str(excinfo.value)
    assert "pre-1.11 sharded store" in message
    assert f"repro-wsn store merge NEW.db {root}/shard-*.db" in message


def test_merged_shards_are_byte_identical_to_a_single_store(tmp_path, capsys):
    scenarios = _scenarios()
    single = ResultStore(tmp_path / "single.db")
    Campaign.create(single, "legacy", scenarios).run(jobs=1)

    shard_paths = _legacy_layout(tmp_path / "results.d", scenarios, "legacy")
    new = str(tmp_path / "new.db")
    assert main(["store", "merge", new, *shard_paths]) == 0
    capsys.readouterr()

    merged = ResultStore(new)
    assert merged.keys() == single.keys()
    for key in single.keys():
        assert merged.get_payload_text(key) == single.get_payload_text(key)
        assert merged.get_scenario(key) == single.get_scenario(key)

    def journal(store):
        return store._conn().execute(
            "SELECT idx, key, scenario FROM campaign_scenarios "
            "WHERE campaign='legacy' ORDER BY idx"
        ).fetchall()

    assert journal(merged) == journal(single)
    assert Campaign(merged, "legacy").status().complete
