"""tables: build balls with bfs_metric, save them with cached_bfs_metric, load them back.

Per group and round there are three operations: ``bfs_metric``, a
``cached_bfs_metric`` call on an empty directory (builds and saves) and a
second call on the same directory (loads).  The BFS kernel and the cache do
nearly all the work here and almost none in the other workloads.
"""

from __future__ import annotations

import gc
import os
import shutil

import checks
from common import Workload, counting_oracle, current_rss_bytes
from curvlab import bfs_metric, cached_bfs_metric, heis_length, heis_oracle, h2_oracle, l2_oracle, make_free, make_zn
from curvlab.cache import cache_path

# (group, oracle factory, horizon): balls of 10^4 to 10^5 elements
GROUPS = (
    ("Heis", heis_oracle, 18),  # 41 k elements
    ("L2", l2_oracle, 15),  # 19 k
    ("H2", h2_oracle, 12),  # 8 k
    ("F3", lambda: make_free(3), 6),  # 23 k
    ("Z3", lambda: make_zn(3), 24),  # 19 k
)


def _heis_sector(el) -> bool:
    return el.a > el.b > 0 and el.c >= 0


class Tables(Workload):
    name = "tables"

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__(seed, workdir)
        self.round_no = 0

    def setup(self) -> None:
        self.oracles = {gid: make() for gid, make, _ in GROUPS}
        self.horizons = {gid: h for gid, _, h in GROUPS}
        bfs_metric(self.oracles["Heis"], 6)  # warm-up call
        os.makedirs(self.workdir, exist_ok=True)

    def _order(self) -> list[str]:
        # The seed only permutes the order in which the groups are processed.
        order = [gid for gid, _, _ in GROUPS]
        self.rng.shuffle(order)
        return order

    def _check_built(self, gid: str, table) -> list[str]:
        """Independent checks of a freshly built ball."""
        oracle = self.oracles[gid]
        f = checks.check_word_metric(oracle, table)
        if gid == "Z3":
            f += checks.check_lengths(table, checks.l1_length)
            f += checks.check_layer_sizes(table, lambda r: checks.zn_sphere_size(3, r))
        elif gid == "F3":
            f += checks.check_free_elements(table)
            f += checks.check_layer_sizes(table, lambda r: checks.free_sphere_size(3, r))
        elif gid == "L2":
            f += checks.check_lengths(table, oracle.closed_length)
        elif gid == "Heis":
            f += checks.check_lengths(table, heis_length, _heis_sector)
        return f

    def round(self, rec, chk, counts=None) -> None:
        self.round_no += 1
        span = rec.tracer.span
        for gid in self._order():
            oracle = self.oracles[gid]
            if counts is not None:
                oracle = counting_oracle(oracle, counts)
            h = self.horizons[gid]
            with_dir = os.path.join(self.workdir, f"r{self.round_no}-{gid}")

            def build():
                with span(f"core.bfs_metric:{gid}"):
                    return bfs_metric(oracle, h)

            def save():
                with span(f"cache.save:{gid}"):
                    return cached_bfs_metric(oracle, h, with_dir)

            def load():
                with span(f"cache.load:{gid}"):
                    return cached_bfs_metric(oracle, h, with_dir)

            table = rec.op(f"bfs {gid}", build)
            if table is None:
                continue
            digest = hash((table.layers, tuple(table.dist.items())))
            chk.extend(self.checked_once(f"bfs {gid}", digest, lambda: self._check_built(gid, table)))
            saved = rec.op(f"save {gid}", save)
            loaded = rec.op(f"load {gid}", load)
            for what, other in (("saved", saved), ("loaded", loaded)):
                if other is not None:
                    chk.extend(f"{gid} {what}: {m}" for m in checks.check_tables_equal(table, other))
            n = len(table.dist)
            self.add(f"elements:{gid}", n)
            self.add("file_bytes", os.path.getsize(cache_path(with_dir, oracle.group_id, h)))
            del table, saved, loaded
            shutil.rmtree(with_dir)

    def memory_pass(self) -> dict[str, float]:
        """RSS growth per element while each ball is built, all balls kept alive."""
        out = {}
        keep = []
        for gid, _, h in GROUPS:
            gc.collect()
            before = current_rss_bytes()
            table = bfs_metric(self.oracles[gid], h)
            out[f"core.bfs_metric.{gid}.bytes_per_element"] = (current_rss_bytes() - before) / len(table.dist)
            keep.append(table)
        return out

    def per_layer(self, totals: dict, rounds: int, counts) -> dict[str, float]:
        m: dict[str, float] = {}
        bfs_s = elements = load_s = save_s = 0.0
        for gid, _, _ in GROUPS:
            b = totals.get(f"core.bfs_metric:{gid}", 0.0)
            n = self.work.get(f"elements:{gid}", 0.0)
            m[f"core.bfs_metric.{gid}.elements_per_s"] = n / b if b else 0.0
            bfs_s += b
            elements += n
            load_s += totals.get(f"cache.load:{gid}", 0.0)
            # a save call builds the ball again, then writes it
            save_s += totals.get(f"cache.save:{gid}", 0.0) - b
        m["core.bfs_metric.s"] = bfs_s / rounds
        m["core.bfs_metric.elements"] = elements / rounds
        m["cache.save.s"] = save_s / rounds
        m["cache.load.s"] = load_s / rounds
        m["cache.load.elements_per_s"] = elements / load_s if load_s else 0.0
        m["cache.bytes_per_element"] = self.work.get("file_bytes", 0.0) / elements if elements else 0.0
        return m
