import dataclasses
import hashlib
import os
import re
import struct
import tempfile
from functools import lru_cache

import pytest
from bfs_reference import naive_ball
from hypothesis import given, settings
from hypothesis import strategies as st

from curvlab.builtin import make_free, make_s3, make_zn
from curvlab.cache import CacheFormatError, cache_path, cached_bfs_metric, table_from_bytes
from curvlab.core import CurvlabError, ResourceLimitError, bfs_metric, bfs_tree
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

# SHA-256 of the format-version-3 cache file of each SMALL_TABLES ball (layers in element
# order; each file was checked to load to naive_ball's table before it was pinned).  Files
# already on disk must keep loading and re-saving to their bytes, so the BFS, the layer
# order and the packing must not change these without a new format version.
SMALL_TABLE_SHA256 = {
    "L2": "3a717c438d7589938eb69aaaba0594f991b3d79e7d20dfe48ec64cb57acb71f3",
    "H2": "e50d41a813e2b1fa20a42a643c9a505d1cd2d077f47088b8abcb8399fd42079e",
    "Heis": "8dfbd831591e8f637aba048c78b5479e3610d26c8668eec24b3e560b003865c0",
    "Z2": "11dd7808ffe86919bc2dce5440ec15e5c96ca039c796d2edf07baba19f216566",
    "F2": "f8b322b8bf6eafb19a929960aab5e47a65c0ced949a3a2c37af451d8ff26660a",
    "S3": "20c6e2e150304231c42dc75ce9844765b457d4d87d85cab1df461d76cb20fb5a",
    "W3": "8e582ad14a3b7dc285208d0802ad33361f4b53826b09c8565eb4bd2d2c7ca752",
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
        (blob[:parents + 16] + struct.pack("<H", 0) + blob[parents + 18 :], "increasing element order"),
    ):
        with pytest.raises(CacheFormatError, match=reason):
            table_from_bytes(oracle, edited)


def test_cache_rejects_an_element_of_an_earlier_layer(tmp_path):
    oracle = make_zn(1)
    blob = bytearray(_cache_file(tmp_path, oracle, 2))
    # S_2 of Z is (-2, 2), each one step on from its sign's element of S_1 = (-1, 1).
    # Step the 2 back instead: the layer becomes (-2, 0), in increasing order, and 0 is in S_0.
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


def test_cache_replaces_a_version_2_file(tmp_path):
    oracle = h2_oracle()
    d = str(tmp_path / "cache")
    fresh = _cache_file(tmp_path / "fresh", oracle, 4)
    version_2 = fresh[:4] + struct.pack("<I", 2) + fresh[8:]
    with pytest.raises(CacheFormatError, match="version 2"):
        table_from_bytes(oracle, version_2)
    os.mkdir(d)
    path = cache_path(d, oracle.group_id, 4)
    with open(path, "wb") as fh:
        fh.write(version_2)
    rebuilt = cached_bfs_metric(oracle, 4, d)  # a miss
    assert rebuilt.layers == bfs_metric(oracle, 4).layers
    assert os.listdir(d) == [os.path.basename(path)]
    with open(path, "rb") as fh:
        assert fh.read() == fresh


def test_cache_rejects_other_versions(tmp_path):
    oracle = h2_oracle()
    d = str(tmp_path)
    fresh = _cache_file(tmp_path, oracle, 2)
    path = cache_path(d, oracle.group_id, 2)
    for version in (0, 4, 2**32 - 1):
        with open(path, "wb") as fh:
            fh.write(fresh[:4] + struct.pack("<I", version) + fresh[8:])
        with pytest.raises(CacheFormatError, match=f"unsupported cache version {version}$"):
            cached_bfs_metric(oracle, 2, d)


def test_cache_read_or_write_failure_names_the_path(tmp_path, monkeypatch):
    oracle = l2_oracle()
    not_a_dir = tmp_path / "file"
    not_a_dir.write_text("")
    with pytest.raises(CurvlabError, match="^" + re.escape(f"{not_a_dir}/L2_h2.cvl: Not a directory") + "$"):
        cached_bfs_metric(oracle, 2, str(not_a_dir))

    def refuse(src, dst):
        raise PermissionError(13, "Permission denied", dst)

    monkeypatch.setattr(os, "replace", refuse)
    d = str(tmp_path / "cache")
    with pytest.raises(CurvlabError, match="L2_h2.cvl: Permission denied$"):
        cached_bfs_metric(oracle, 2, d)
    assert os.listdir(d) == []  # the temporary file is gone


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


def test_more_than_255_generators(tmp_path):
    # F130 has 260 generators, so generator indices (and the generators back to each parent) pass a byte;
    # its B_2 holds 67 601 short words, where Z200's holds 80 000 tuples of 200 ints
    oracle = make_free(130)
    table, tree = bfs_tree(oracle, 2)
    assert (table.layers, table.dist) == naive_ball(oracle, 2)
    assert max(code % len(oracle.generators) for code in tree[1]) == 259
    d = str(tmp_path)
    assert cached_bfs_metric(oracle, 2, d) == table  # a miss writes the file
    assert cached_bfs_metric(oracle, 2, d) == table  # a hit loads it


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
