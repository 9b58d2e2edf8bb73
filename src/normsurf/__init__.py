"""Normal surface theory on triangulated 3-manifolds.

Matching equations, fundamental (Hilbert basis) surface enumeration,
surface topology reports, complement regions, integer homology, normal
curves on triangulated surfaces, and split-link / unknottedness
decision procedures.
"""

import types

from .curves2d import (
    SurfaceTriangulation,
    build_matching_system_2d,
    connect_boundary_points,
    parse_surface,
    serialize_surface,
    validate_surface,
)
from .detect import (
    Verdict,
    filter_unknotting_disks,
    split_link_check,
    unknot_via_pushoff,
)
from .errors import (
    HomologyError,
    IntegerOverflow,
    NormSurfError,
    ResourceLimitExceeded,
    TriangulationError,
    VectorError,
)
from .hilbert import (
    FundamentalSet,
    enumerate_fundamental,
)
from .homology import (
    ChainComplex,
    H1Class,
    H1Summary,
    chain_complex,
    cycle_chain,
    h1,
)
from .matching import (
    MatchingSystem,
    NormalVector,
    boundary_meeting_variables,
    build_matching_system,
    is_admissible,
    is_solution,
    restrict_to_link,
    variable_name,
)
from .surface import (
    RegionGraph,
    SurfaceReport,
    analyze,
    complement_regions,
    separates,
)
from .triangulation import (
    EdgeCycle,
    IdealVertex,
    LinkSpec,
    Skeleton,
    Triangulation,
    compute_skeleton,
    parse_link,
    parse_link_component,
    parse_triangulation,
    resolve_link,
    serialize_link,
    serialize_link_component,
    serialize_triangulation,
    validate,
)

# The public names are what the imports above bind, less the submodules.
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_")
                 and not isinstance(value, types.ModuleType))
