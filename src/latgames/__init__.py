"""Finite lattices, order-property checkers, and quasisupermodular games.

Exact arithmetic, deterministic exhaustive scans, and witnesses that
re-check.  See README.md for the file formats and the command line.
"""

from .argmax import (
    ArgmaxReport,
    Correspondence,
    argmax_set,
    is_increasing_strong_set_order,
    is_increasing_weak_veinott,
    level_correspondence,
    max_selection,
    verify_kuku,
)
from .functions import ChainCodomain, LatticeFunction
from .games import (
    Game,
    NashReport,
    TarskiReport,
    best_response,
    best_response_correspondence,
    enumerate_nash,
    is_nash,
    tarski_extremes,
    validate_game,
    verify_equilibrium_structure,
)
from .lattice import (
    Extremes,
    FiniteLattice,
    FinitePoset,
    SubsetFlags,
    check_lattice,
    classify_subset,
    extremes,
    inf_subset,
    lattice_from_covers,
    poset_from_covers,
    product_lattice,
    sup_subset,
    tuple_label,
)
from .properties import (
    TransferContinuityReport,
    has_increasing_differences,
    is_order_upper_semicontinuous,
    is_quasisupermodular,
    is_single_crossing,
    is_supermodular,
    is_topologically_usc,
    is_upper_chain_subcomplete,
    sections_quasisupermodular,
    transfer_continuity,
)
from .topology import (
    ClosedFamily,
    TopologySpec,
    discrete_closed_family,
    explicit_closed_family,
    interval_closed_family,
)
from .verdict import Verdict

__version__ = "0.1.0"
