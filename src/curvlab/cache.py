"""Versioned on-disk cache for BFS metric tables.

Byte layout (all integers little-endian, unsigned):

    magic      4 bytes   b"CVL1"
    version    u32       format version, currently 1
    id_len     u16       length of the group id
    group_id   id_len bytes, UTF-8
    horizon    u32
    counts     (horizon+1) * u64   layer sizes for radii 0..horizon
    keys       for each layer in radius order, for each element in encode
               order: u32 key length, then the raw encode key

Lengths are implicit in the layer structure, so a cache hit reconstructs the
table exactly; saves are canonical, making hit bytes identical to a fresh
recomputation's bytes.
"""

from __future__ import annotations

import os
import struct
import tempfile
from typing import Optional

from .core import DEFAULT_BUDGET, CurvlabError, GroupOracle, MetricTable, bfs_metric

MAGIC = b"CVL1"
VERSION = 1


class CacheFormatError(CurvlabError):
    """A cache file is not a well-formed table of the requested group."""


def table_to_bytes(oracle: GroupOracle, table: MetricTable) -> bytes:
    parts = [MAGIC, struct.pack("<I", VERSION)]
    gid = table.group_id.encode("utf-8")
    parts.append(struct.pack("<H", len(gid)))
    parts.append(gid)
    parts.append(struct.pack("<I", table.horizon))
    parts.append(struct.pack(f"<{len(table.layers)}Q", *(len(l) for l in table.layers)))
    for layer in table.layers:
        for el in layer:
            key = oracle.encode(el)
            parts.append(struct.pack("<I", len(key)))
            parts.append(key)
    return b"".join(parts)


def _unpack(fmt: str, data: bytes, off: int) -> tuple:
    try:
        return struct.unpack_from(fmt, data, off)
    except struct.error:
        raise CacheFormatError("truncated cache file") from None


def table_from_bytes(oracle: GroupOracle, data: bytes) -> MetricTable:
    """Decode a cache file; any malformed or truncated input raises CacheFormatError."""
    if data[:4] != MAGIC:
        raise CacheFormatError("bad magic; not a curvlab cache file")
    (version,) = _unpack("<I", data, 4)
    if version != VERSION:
        raise CacheFormatError(f"unsupported cache version {version}")
    off = 8
    (id_len,) = _unpack("<H", data, off)
    off += 2
    group_id = data[off : off + id_len].decode("utf-8", errors="replace")
    off += id_len
    if group_id != oracle.group_id:
        raise CacheFormatError(f"cache holds {group_id!r}, oracle is {oracle.group_id!r}")
    (horizon,) = _unpack("<I", data, off)
    off += 4
    counts = _unpack(f"<{horizon + 1}Q", data, off)
    off += 8 * (horizon + 1)
    layers: list[tuple] = []
    dist: dict = {}
    for r, count in enumerate(counts):
        layer = []
        for _ in range(count):
            (key_len,) = _unpack("<I", data, off)
            off += 4
            if off + key_len > len(data):
                raise CacheFormatError("truncated cache file")
            try:
                el = oracle.decode(data[off : off + key_len])
            except (ValueError, SyntaxError, TypeError):
                raise CacheFormatError(f"undecodable element key at byte {off}") from None
            off += key_len
            layer.append(el)
            dist[el] = r
        layers.append(tuple(layer))
    if off != len(data):
        raise CacheFormatError("trailing bytes in cache file")
    return MetricTable(group_id, horizon, tuple(layers), dist)


def cache_path(cache_dir: str, group_id: str, horizon: int) -> str:
    safe = "".join(ch if ch.isalnum() else "_" for ch in group_id)
    return os.path.join(cache_dir, f"{safe}_h{horizon}.cvl")


def cached_bfs_metric(
    oracle: GroupOracle,
    horizon: int,
    cache_dir: Optional[str] = None,
    *,
    budget: int = DEFAULT_BUDGET,
) -> MetricTable:
    """bfs_metric with a disk cache keyed by (group id, horizon)."""
    if cache_dir is None:
        return bfs_metric(oracle, horizon, budget=budget)
    path = cache_path(cache_dir, oracle.group_id, horizon)
    if os.path.exists(path):
        with open(path, "rb") as fh:
            data = fh.read()
        try:
            return table_from_bytes(oracle, data)
        except CacheFormatError as exc:
            raise CacheFormatError(f"{path}: {exc}") from None
    table = bfs_metric(oracle, horizon, budget=budget)
    os.makedirs(cache_dir, exist_ok=True)
    # A private temporary file per writer: concurrent writers never share one,
    # and the rename makes each complete file appear atomically.
    fd, tmp = tempfile.mkstemp(dir=cache_dir, prefix=os.path.basename(path) + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(table_to_bytes(oracle, table))
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    return table
