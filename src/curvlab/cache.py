"""Versioned on-disk cache for BFS metric tables.

A file stores the BFS spanning tree of the ball, not its elements.  Byte
layout (all integers little-endian, unsigned):

    magic      4 bytes   b"CVL1"
    version    u32       format version, currently 3
    id_len     u16       length of the group id
    group_id   id_len bytes, UTF-8
    horizon    u32
    counts     (horizon+1) * u64   layer sizes for radii 0..horizon
    tree       for each radius r = 1..horizon: counts[r] u32 parent indices
               into layer r-1, then counts[r] u16 generator indices

The element at position j of layer r is ``steps[gen[j]](layers[r-1][parent[j]])``,
which the oracle's steps contract makes ``compose(parent, generators[gen[j]])``.
Each layer is in increasing element order (``<``, see
:class:`curvlab.core.GroupOracle`), and each element el takes the least
generator index i with ``el = compose(p, generators[i])`` for some p in the
previous layer, and that p (unique for i) as its parent, so saves are
canonical: every save of a ball writes the same bytes.  The tree is the one
:func:`curvlab.core.bfs_tree` records while it builds the ball, so a miss
runs the same BFS as :func:`bfs_metric` and this module only packs its tree.

Loading parses no text and makes one step per element.  It checks that every
index is in range, that each layer is in strictly increasing element order and
that no element repeats one of an earlier layer.  Given the counts, these
checks admit only the BFS table itself: an element one generator step from
S_(r-1) and outside B_(r-1) lies in S_r, so counts[r] distinct such elements
are all of S_r, and the order check fixes their order.  Every other input
raises :class:`CacheFormatError`.

Files of format version 1 (one ``repr`` key per element) and version 2 (this
layout with each layer in ``repr`` order) are treated as a cache miss by
:func:`cached_bfs_metric` and replaced.
"""

from __future__ import annotations

import os
import struct
import tempfile
from itertools import accumulate, repeat
from operator import floordiv, lt, mod
from typing import Optional

from .core import (
    DEFAULT_BUDGET,
    CurvlabError,
    GroupOracle,
    MetricTable,
    ResourceLimitError,
    bfs_metric,
    bfs_tree,
)

MAGIC = b"CVL1"
VERSION = 3
_STALE_HEADERS = tuple(MAGIC + struct.pack("<I", v) for v in (1, 2))


class CacheFormatError(CurvlabError):
    """A cache file is not a well-formed table of the requested group."""


def _to_bytes(oracle: GroupOracle, table: MetricTable, tree: list[tuple[int, ...]]) -> bytes:
    """The cache file of a :func:`bfs_tree` result: its header, then each layer's tree."""
    n = len(oracle.generators)
    gid = oracle.group_id.encode("utf-8")
    header = MAGIC + struct.pack(
        f"<IH{len(gid)}sI{table.horizon + 1}Q", VERSION, len(gid), gid, table.horizon, *table.layer_sizes()
    )
    trees = (
        struct.pack(f"<{len(codes)}I{len(codes)}H", *map(floordiv, codes, repeat(n)), *map(mod, codes, repeat(n)))
        for codes in tree
    )
    return header + b"".join(trees)


def _unpack(fmt: str, data: bytes, off: int) -> tuple:
    try:
        return struct.unpack_from(fmt, data, off)
    except struct.error:
        raise CacheFormatError("truncated cache file") from None


def table_from_bytes(oracle: GroupOracle, data: bytes, *, budget: int = DEFAULT_BUDGET) -> MetricTable:
    """Decode a cache file; any malformed or truncated input raises CacheFormatError.

    Raises :class:`ResourceLimitError`, before building any element, when the
    file holds more than ``budget`` elements; like :func:`curvlab.core.bfs_tree`,
    it names the least radius whose ball holds more.
    """
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
    if counts[0] != 1:
        raise CacheFormatError(f"layer 0 holds {counts[0]} elements, not the identity alone")
    elements = sum(counts)
    size = off + 6 * (elements - 1)
    if size > len(data):
        raise CacheFormatError("truncated cache file")
    if size < len(data):
        raise CacheFormatError("trailing bytes in cache file")
    if elements > budget:
        radius = next(r for r, total in enumerate(accumulate(counts)) if total > budget)
        raise ResourceLimitError.over_budget(oracle.group_id, radius, budget)
    steps = oracle.steps
    layers = [(oracle.identity,)]
    dist = {oracle.identity: 0}
    total = 1
    for r, count in enumerate(counts[1:], 1):
        parents = struct.unpack_from(f"<{count}I", data, off)
        off += 4 * count
        gens = struct.unpack_from(f"<{count}H", data, off)
        off += 2 * count
        prev = layers[-1]
        if count and (max(parents) >= len(prev) or max(gens) >= len(steps)):
            raise CacheFormatError(f"spanning-tree index out of range in layer {r}")
        layer = tuple([steps[i](prev[p]) for p, i in zip(parents, gens)])
        if not all(map(lt, layer, layer[1:])):
            raise CacheFormatError(f"layer {r} is not in strictly increasing element order")
        dist.update(zip(layer, repeat(r)))
        total += count
        if len(dist) != total:
            raise CacheFormatError(f"layer {r} repeats an element of an earlier layer")
        layers.append(layer)
    return MetricTable(group_id, horizon, tuple(layers), dist)


def _io_error(exc: OSError, path: str) -> CurvlabError:
    """A failed cache read or write as one line: the path it concerns and the system's reason."""
    return CurvlabError(f"{exc.filename or path}: {exc.strerror or exc}")


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
    """bfs_metric with a disk cache keyed by (group id, horizon).

    A missing file or one of format version 1 or 2 is a miss: the table is
    built and the file (re)written.  Any other malformed file raises
    :class:`CacheFormatError`, and a file or directory that cannot be read or
    written raises :class:`CurvlabError` naming the path.
    """
    if cache_dir is None:
        return bfs_metric(oracle, horizon, budget=budget)
    path = cache_path(cache_dir, oracle.group_id, horizon)
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        data = None
    except OSError as exc:
        raise _io_error(exc, path) from exc
    if data is not None and not data.startswith(_STALE_HEADERS):
        try:
            return table_from_bytes(oracle, data, budget=budget)
        except CacheFormatError as exc:
            raise CacheFormatError(f"{path}: {exc}") from None
    table, tree = bfs_tree(oracle, horizon, budget=budget)
    data = _to_bytes(oracle, table, tree)
    try:
        os.makedirs(cache_dir, exist_ok=True)
        # A private temporary file per writer: concurrent writers never share one,
        # and the rename makes each complete file appear atomically.
        fd, tmp = tempfile.mkstemp(dir=cache_dir, prefix=os.path.basename(path) + ".", suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise _io_error(exc, path) from exc
    return table

