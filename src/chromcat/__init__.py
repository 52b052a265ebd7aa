"""Chromatic categories of elementary abelian subgroups of finite groups.

Build the level-n categories interpolating between all injective
homomorphisms (n = 0) and the inclusion-and-conjugation category (n at the
p-rank and beyond), compare them, count F_q-points of their colimits, carve
out the same categories from invariant-polynomial subrings, and run the
formal-group-law / Hopf-ring calculus behind the A_4 worked example.
"""

from .categories import (
    ChromCategory,
    Fusion,
    HomChainReport,
    LevelCertificate,
    SkeletonReport,
    build_category,
    hom_chain_report,
    is_level_n_morphism,
    quillen_category,
    skeleton,
    witness_scan,
)
from .colimits import (
    ColimResult,
    FiltrationTower,
    colim_points,
    component_count,
    filtration_tower,
)
from .demo import DemoFailure, a4_demo
from .elemab import (
    ElemAbelian,
    LinearMorphism,
    enumerate_elem_abelians,
    injective_hom_count,
    injective_homs,
    p_rank,
)
from .fgl import FGL, honda_fgl, series_inverse
from .groups import (
    DEFAULT_ORDER_CAP,
    FiniteGroup,
    GroupError,
    cycle_string,
    group_from_permutations,
)
from .hopf import (
    CycRing,
    HopfError,
    HopfExpr,
    OrbitRestriction,
    RingElt,
    b_series,
    beta_pushforward,
    coefficient_of,
    hurewicz_eval,
    mod_indecomposables,
    verify_kn_injectivity,
    weyl_orbit_restriction,
)
from .library import (
    builtin_names,
    bundled_library,
    load_builtin,
    load_group_data,
    load_group_file,
)
from .polyfp import (
    LinearAction,
    PolyFp,
    invariant_bases,
    invariant_basis,
    parse_poly,
    subring_membership,
)
from .subrings import (
    SubringPresentation,
    UnsupportedGroupError,
    build_CR,
    weyl_action,
)

__version__ = "0.1.0"
