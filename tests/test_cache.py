import os

import pytest

from curvlab.cache import (
    CacheFormatError,
    cache_path,
    cached_bfs_metric,
    table_from_bytes,
    table_to_bytes,
)
from curvlab.core import CurvlabError, bfs_metric
from curvlab.houghton import h2_oracle
from curvlab.lamplighter import l2_oracle


def test_roundtrip_bit_identical(tmp_path):
    oracle = h2_oracle()
    table = bfs_metric(oracle, 6)
    blob = table_to_bytes(oracle, table)
    restored = table_from_bytes(oracle, blob)
    assert restored.layers == table.layers
    assert restored.dist == table.dist
    assert table_to_bytes(oracle, restored) == blob


def test_cache_hit_matches_recomputation(tmp_path):
    oracle = l2_oracle()
    d = str(tmp_path)
    t1 = cached_bfs_metric(oracle, 5, d)
    path = cache_path(d, oracle.group_id, 5)
    with open(path, "rb") as fh:
        first_bytes = fh.read()
    t2 = cached_bfs_metric(oracle, 5, d)  # hit
    assert t2.layers == t1.layers == bfs_metric(oracle, 5).layers
    assert table_to_bytes(oracle, t2) == first_bytes


def test_cache_rejects_wrong_group(tmp_path):
    l2 = l2_oracle()
    blob = table_to_bytes(l2, bfs_metric(l2, 3))
    with pytest.raises(CacheFormatError):
        table_from_bytes(h2_oracle(), blob)


def test_cache_rejects_garbage():
    assert issubclass(CacheFormatError, CurvlabError)
    with pytest.raises(CacheFormatError):
        table_from_bytes(l2_oracle(), b"not a cache file")


def test_cache_rejects_every_truncation():
    oracle = l2_oracle()
    blob = table_to_bytes(oracle, bfs_metric(oracle, 2))
    for end in range(len(blob)):
        with pytest.raises(CacheFormatError):
            table_from_bytes(oracle, blob[:end])


def test_cache_writer_uses_a_private_temporary_file(tmp_path):
    oracle = l2_oracle()
    d = str(tmp_path)
    path = cache_path(d, oracle.group_id, 3)
    os.mkdir(path + ".tmp")  # a fixed shared temporary name would collide with this
    table = cached_bfs_metric(oracle, 3, d)
    assert table.layers == bfs_metric(oracle, 3).layers
    assert sorted(os.listdir(d)) == sorted([os.path.basename(path), os.path.basename(path) + ".tmp"])
