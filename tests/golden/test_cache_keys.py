"""Pinned ``Scenario.cache_key()`` digests.

The cache key is the content address of every row in the persistent
result store (:mod:`repro.store`) and of every batch-cache entry.  If a
code change alters the key of an unchanged scenario, every store on
disk silently stops matching its contents -- stored work re-simulates,
campaigns "lose" their progress.  This fixture turns that silent drift
into a loud diff: regenerate (``python tests/golden/regen.py``) only for
an intentional, reviewed serialisation change.
"""

import json

from _golden import CACHE_KEYS_PATH, build_cache_keys


def test_cache_keys_match_pinned_digests():
    expected = json.loads(CACHE_KEYS_PATH.read_text())
    actual = build_cache_keys()
    assert actual == expected, (
        "Scenario.cache_key() drifted from the pinned digests -- this "
        "invalidates every existing on-disk result store.  If the change "
        "is intentional, run tests/golden/regen.py and review the diff."
    )


def test_cache_keys_are_sha256_hex():
    for name, key in json.loads(CACHE_KEYS_PATH.read_text()).items():
        assert len(key) == 64 and int(key, 16) >= 0, name


def test_cache_key_is_stable_within_process():
    keys_a = build_cache_keys()
    keys_b = build_cache_keys()
    assert keys_a == keys_b


def test_memoised_and_pickled_keys_match_pinned_digests():
    """Keys read back from the per-instance memo, and from pickled
    copies (what process pools ship), equal the pinned digests."""
    import pickle

    from repro.scenario import named_scenario

    expected = json.loads(CACHE_KEYS_PATH.read_text())
    for name in ("paper", "bursty", "low-vibration", "cold-start"):
        scenario = named_scenario(name)
        assert scenario.cache_key() == expected[name]
        assert scenario.cache_key() == expected[name]
        assert pickle.loads(pickle.dumps(scenario)).cache_key() == expected[name]
