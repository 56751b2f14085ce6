"""curvlab: comparison curvature, dead ends, and transport curvature on groups.

The names below are exported lazily: ``import curvlab`` loads no submodule,
and the first use of a name loads the one module that defines it (PEP 562).
"""

from importlib import import_module

# each exported name under the submodule that defines it
_EXPORTS = {
    "builtin": ("make_free", "make_s3", "make_zn"),
    "cache": ("cached_bfs_metric",),
    "core": ("CurvlabError", "DomainError", "GroupOracle", "MetricTable", "OutOfHorizonError", "ResourceLimitError",
             "ball", "bfs_metric", "sphere", "word_length"),
    "curvature": ("CurvatureReport", "kappa"),
    "deadend": ("DeadEndReport", "backtrack_elements"),
    "heisenberg": ("MalcevTriple", "SectorSpec", "heis_ceil_jump", "heis_density_experiment", "heis_length",
                   "heis_oracle", "heis_sign_predict"),
    "houghton": ("HoughtonElement", "h2_g", "h2_h", "h2_min_length_bound", "h2_moved_points", "h2_oracle", "h2_u"),
    "lamplighter": ("LampConfig", "WreathConfig", "l2_oracle", "ll_embed_in_dead_end", "ll_geodesic", "ll_length",
                    "ll_make_dm", "wr_make_dm", "zn_wreath_oracle"),
    "literals": ("format_element", "get_group", "parse_element"),
    "transport": ("MeasureSpec", "TransportResult", "question_probe", "transport_distance"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
