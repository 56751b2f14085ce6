import dataclasses
import hashlib
import os
import struct
import tempfile
from functools import lru_cache

import pytest
from bfs_reference import naive_ball
from hypothesis import given, settings
from hypothesis import strategies as st

from curvlab.builtin import make_free, make_s3, make_zn
from curvlab.cache import CacheFormatError, cache_path, cached_bfs_metric, table_from_bytes
from curvlab.core import CurvlabError, ResourceLimitError, bfs_metric
from curvlab.heisenberg import heis_oracle
from curvlab.houghton import h2_oracle
from curvlab.lamplighter import l2_oracle, zn_wreath_oracle
from curvlab.literals import get_group

# (oracle, horizon): every built-in oracle at a horizon with a blob of 0.1-0.6 kB
SMALL_TABLES = [
    (l2_oracle(), 4),
    (h2_oracle(), 3),
    (heis_oracle(), 3),
    (make_zn(2), 4),
    (make_free(2), 3),
    (make_s3(), 3),
    (zn_wreath_oracle(3), 3),
]
SMALL_IDS = [o.group_id for o, _ in SMALL_TABLES]

# SHA-256 of the format-version-2 cache file of each SMALL_TABLES ball.  Files already on
# disk must keep loading and re-saving to their bytes, so the BFS and the packing must not
# change these without a new format version.
SMALL_TABLE_SHA256 = {
    "L2": "54291ab9613181e21efa21aaf4b73cbf8e71ac2032c196f13973ac40f7103219",
    "H2": "b1fc216200c8f8b7b5fef8afe5a5a6eafe177221d7b28202f12f54d5fdcda9a5",
    "Heis": "fff655616ced90d12956a123f0627bfd2172e9827af12ee183f9a421ec87fe73",
    "Z2": "2ab5ffad6d7ef55e6e964c66122802339ef776ca35b33565f86549fdbbd5381f",
    "F2": "11ad675aadee74c47432e62b1fd53f66d8e2196a794d4cd6e2e5cf780a8e6817",
    "S3": "7b70e138be24db7b84d16d8514c1601ffdffce8edc1eba5f7cac2aaa23b63cb5",
    "W3": "66344941f7906f8be3c1cb824a027cb725c0513be2528f1ebc6c5af1c8bd4707",
}


def _cache_file(tmp_path, oracle, horizon) -> bytes:
    """The cache file of the radius-``horizon`` ball, as a miss writes it into ``tmp_path``."""
    d = str(tmp_path)
    cached_bfs_metric(oracle, horizon, d)
    with open(cache_path(d, oracle.group_id, horizon), "rb") as fh:
        return fh.read()


def _version_1_blob(oracle, table):
    """The format-1 layout: the header, then a u32 length and the encode key per element."""
    gid = table.group_id.encode("utf-8")
    parts = [b"CVL1", struct.pack("<IH", 1, len(gid)), gid, struct.pack("<I", table.horizon)]
    parts.append(struct.pack(f"<{len(table.layers)}Q", *map(len, table.layers)))
    for layer in table.layers:
        for el in layer:
            key = oracle.encode(el)
            parts.append(struct.pack("<I", len(key)) + key)
    return b"".join(parts)


def test_roundtrip_bit_identical(tmp_path):
    oracle = h2_oracle()
    table = bfs_metric(oracle, 6)
    blob = _cache_file(tmp_path / "first", oracle, 6)
    restored = table_from_bytes(oracle, blob)
    assert restored.layers == table.layers
    assert restored.dist == table.dist
    assert _cache_file(tmp_path / "second", oracle, 6) == blob


def test_cache_hit_matches_recomputation(tmp_path):
    oracle = l2_oracle()
    d = str(tmp_path)
    t1 = cached_bfs_metric(oracle, 5, d)
    path = cache_path(d, oracle.group_id, 5)
    with open(path, "rb") as fh:
        first_bytes = fh.read()
    t2 = cached_bfs_metric(oracle, 5, d)  # hit
    assert t2.layers == t1.layers == bfs_metric(oracle, 5).layers
    assert t2.dist == t1.dist
    assert _cache_file(tmp_path / "fresh", oracle, 5) == first_bytes
    with open(path, "rb") as fh:
        assert fh.read() == first_bytes  # the hit left the file as it was


def test_cache_rejects_wrong_group(tmp_path):
    blob = _cache_file(tmp_path, l2_oracle(), 3)
    with pytest.raises(CacheFormatError):
        table_from_bytes(h2_oracle(), blob)


def test_cache_rejects_garbage():
    assert issubclass(CacheFormatError, CurvlabError)
    with pytest.raises(CacheFormatError):
        table_from_bytes(l2_oracle(), b"not a cache file")


def test_cache_rejects_every_truncation(tmp_path):
    oracle = l2_oracle()
    blob = _cache_file(tmp_path, oracle, 2)
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


@pytest.mark.parametrize("oracle, horizon", SMALL_TABLES, ids=SMALL_IDS)
def test_cache_hit_equals_bfs_for_every_oracle(tmp_path, oracle, horizon):
    d = str(tmp_path)
    built = cached_bfs_metric(oracle, horizon, d)  # a miss
    loaded = cached_bfs_metric(oracle, horizon, d)  # hit
    layers, dist = naive_ball(oracle, horizon)
    for table in (bfs_metric(oracle, horizon), built, loaded):
        assert table.layers == layers
        assert table.dist == dist
    assert _cache_file(tmp_path / "fresh", oracle, horizon) == _cache_file(tmp_path, oracle, horizon)


@pytest.mark.parametrize("oracle, horizon", SMALL_TABLES, ids=SMALL_IDS)
def test_cache_file_bytes_are_pinned(tmp_path, oracle, horizon):
    d = str(tmp_path)
    cached_bfs_metric(oracle, horizon, d)  # a miss writes the file
    with open(cache_path(d, oracle.group_id, horizon), "rb") as fh:
        data = fh.read()
    assert hashlib.sha256(data).hexdigest() == SMALL_TABLE_SHA256[oracle.group_id]
    assert table_from_bytes(oracle, data).layers == bfs_metric(oracle, horizon).layers


@pytest.mark.parametrize("oracle, horizon", SMALL_TABLES, ids=SMALL_IDS)
def test_cache_rejects_or_ignores_every_byte_edit(tmp_path, oracle, horizon):
    table = bfs_metric(oracle, horizon)
    blob = _cache_file(tmp_path, oracle, horizon)
    for pos, b in enumerate(blob):
        for new in {b ^ 0x01, b ^ 0x10, b ^ 0x80, 0, 255} - {b}:
            edited = blob[:pos] + bytes([new]) + blob[pos + 1 :]
            try:
                loaded = table_from_bytes(oracle, edited)
            except CacheFormatError:
                continue
            assert loaded.layers == table.layers, (pos, b, new)
            assert loaded.dist == table.dist, (pos, b, new)


def test_cache_rejects_bad_layers(tmp_path):
    oracle = make_zn(2)
    blob = _cache_file(tmp_path, oracle, 2)
    header = 4 + 4 + 2 + 2 + 4
    parents = header + 3 * 8
    for edited, reason in (
        (blob[:header] + struct.pack("<Q", 2) + blob[header + 8 :], "layer 0"),
        (blob[:parents] + struct.pack("<I", 1) + blob[parents + 4 :], "out of range"),
        (blob[:parents + 16] + struct.pack("<H", 4) + blob[parents + 18 :], "out of range"),
        (blob[:parents + 16] + struct.pack("<H", 0) + blob[parents + 18 :], "encode order"),
    ):
        with pytest.raises(CacheFormatError, match=reason):
            table_from_bytes(oracle, edited)


def test_cache_rejects_an_element_of_an_earlier_layer(tmp_path):
    oracle = make_zn(1)
    blob = bytearray(_cache_file(tmp_path, oracle, 2))
    # S_2 of Z is (-2, 2), each one step on from its sign's element of S_1 = (-1, 1).
    # Step the 2 back instead: the layer becomes (-2, 0), in encode order, and 0 is in S_0.
    tree_2 = len(blob) - 2 * 6
    blob[tree_2 + 4 * 2 + 2] = 1  # the generator a1^-1
    with pytest.raises(CacheFormatError, match="earlier layer"):
        table_from_bytes(oracle, bytes(blob))


def test_cache_replaces_a_version_1_file(tmp_path):
    oracle = h2_oracle()
    d = str(tmp_path)
    table = bfs_metric(oracle, 4)
    path = cache_path(d, oracle.group_id, 4)
    with open(path, "wb") as fh:
        fh.write(_version_1_blob(oracle, table))
    with pytest.raises(CacheFormatError, match="version 1"):
        table_from_bytes(oracle, _version_1_blob(oracle, table))
    rebuilt = cached_bfs_metric(oracle, 4, d)  # a miss
    assert rebuilt.layers == table.layers
    assert os.listdir(d) == [os.path.basename(path)]
    with open(path, "rb") as fh:
        assert fh.read() == _cache_file(tmp_path / "fresh", oracle, 4)


def test_cache_hit_checks_the_budget_first(tmp_path):
    oracle = l2_oracle()
    d = str(tmp_path)
    n = len(cached_bfs_metric(oracle, 4, d).dist)
    assert len(cached_bfs_metric(oracle, 4, d, budget=n).dist) == n

    armed = False  # the oracle checks its steps when it is built

    def refuse(product):
        def guarded(*args):
            if armed:
                raise AssertionError("no element may be built over budget")
            return product(*args)

        return guarded

    # a load builds its elements with the steps, so both the steps and compose refuse once armed
    guarded = dataclasses.replace(oracle, compose=refuse(oracle.compose), right_steps=tuple(map(refuse, oracle.steps)))
    armed = True
    with pytest.raises(ResourceLimitError):
        cached_bfs_metric(guarded, 4, d, budget=n - 1)


# group id -> the largest horizon drawn: balls of at most 300 elements
PROPERTY_HORIZONS = {
    "Z1": 8, "Z2": 5, "Z3": 3, "F2": 4, "F3": 3, "S3": 4, "L2": 6, "W2": 5, "W3": 4, "H2": 5, "Heis": 5,
}
PROPERTY_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)
tables = st.sampled_from(sorted(PROPERTY_HORIZONS)).flatmap(
    lambda gid: st.tuples(st.just(gid), st.integers(0, PROPERTY_HORIZONS[gid]))
)


@lru_cache(maxsize=None)
def _written(group_id: str, horizon: int) -> tuple:
    """The BFS table, the table a miss returns, the one a hit loads and the file between them."""
    oracle = get_group(group_id)
    with tempfile.TemporaryDirectory() as d:
        built = cached_bfs_metric(oracle, horizon, d)
        loaded = cached_bfs_metric(oracle, horizon, d)
        with open(cache_path(d, group_id, horizon), "rb") as fh:
            blob = fh.read()
    return bfs_metric(oracle, horizon), built, loaded, blob


@PROPERTY_SETTINGS
@given(tables)
def test_cache_file_loads_back_as_the_bfs_table(table_key):
    table, built, loaded, blob = _written(*table_key)
    assert built == table == loaded
    assert table_from_bytes(get_group(table_key[0]), blob) == table


# An edit is (position, kind, payload).  Kind "o" overwrites the bytes at the position with the payload, "i"
# inserts it there and "d" deletes len(payload) + 1 bytes.  Kind "t" rewrites the spanning-tree entry of one element
# with a small (parent, generator) pair, which is mostly in range, so the layer order and repeat checks see it.
byte_edits = st.tuples(st.integers(0, 2**16), st.sampled_from("oid"), st.binary(max_size=8))
tree_edits = st.tuples(st.integers(0, 2**16), st.just("t"), st.tuples(st.integers(0, 40), st.integers(0, 9)))
edits = st.lists(st.one_of(byte_edits, tree_edits), min_size=1, max_size=4)


def _tree_fields(table, blob: bytes) -> list[tuple[int, int]]:
    """The file offsets of the u32 parent and the u16 generator index of each element past the identity."""
    off = len(blob) - 6 * (len(table.dist) - 1)
    fields = []
    for count in table.layer_sizes()[1:]:
        fields += [(off + 4 * j, off + 4 * count + 2 * j) for j in range(count)]
        off += 6 * count
    return fields


@PROPERTY_SETTINGS
@given(tables, edits)
def test_cache_rejects_or_ignores_multi_byte_edits(table_key, edit_list):
    table, _, _, blob = _written(*table_key)
    fields = _tree_fields(table, blob)
    for pos, kind, payload in edit_list:
        if kind != "t":
            pos %= len(blob) + 1
            cut = {"o": len(payload), "i": 0, "d": len(payload) + 1}[kind]
            blob = blob[:pos] + (b"" if kind == "d" else payload) + blob[pos + cut :]
        elif fields:
            (p_off, g_off), (parent, gen) = fields[pos % len(fields)], payload
            blob = blob[:p_off] + struct.pack("<I", parent) + blob[p_off + 4 :]
            blob = blob[:g_off] + struct.pack("<H", gen) + blob[g_off + 2 :]
    try:
        loaded = table_from_bytes(get_group(table_key[0]), blob)
    except CurvlabError:
        return
    assert loaded == table
