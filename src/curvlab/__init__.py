"""curvlab: comparison curvature, dead ends, and transport curvature on groups."""

from .builtin import free_gencon, make_free, make_s3, make_zn
from .cache import cached_bfs_metric
from .core import (
    CurvlabError,
    DomainError,
    GroupOracle,
    MetricTable,
    OutOfHorizonError,
    ResourceLimitError,
    ball,
    bfs_metric,
    sphere,
    word_length,
)
from .curvature import CurvatureReport, kappa
from .deadend import DeadEndReport, backtrack_elements
from .heisenberg import (
    MalcevTriple,
    SectorSpec,
    heis_ceil_jump,
    heis_density_experiment,
    heis_length,
    heis_oracle,
    heis_sign_predict,
)
from .houghton import (
    HoughtonElement,
    h2_g,
    h2_h,
    h2_min_length_bound,
    h2_moved_points,
    h2_oracle,
    h2_u,
)
from .lamplighter import (
    LampConfig,
    WreathConfig,
    l2_oracle,
    ll_embed_in_dead_end,
    ll_geodesic,
    ll_length,
    ll_make_dm,
    wr_make_dm,
    zn_wreath_oracle,
)
from .literals import format_element, get_group, parse_element
from .transport import (
    MeasureSpec,
    TransportResult,
    question_probe,
    transport_distance,
)

__version__ = "0.1.0"
