"""chaincell: exact structure theory for perfect chain complexes over
local rings whose maximal ideal is principal with square zero.

Complexes split into contractible disks plus interval summands; the
interval multiset decides the cellularity and acyclicity relations, and
brute-force oracles recheck every shortcut at the level of elements.
"""

from .complexes import (
    ChainComplex,
    ModuleDescriptor,
    brute_homology,
    disk,
    empty,
    interval,
    make_complex,
    sphere,
    validate,
)
from .errors import (
    ChaincellError,
    DomainError,
    GuardExceeded,
    InvalidComplexError,
    UsageError,
)
from .lattice import Verdict, generator_relation, is_acyclic_over, is_cellular, min_pair
from .linalg import (
    MatrixR,
    apply_basis_change,
    is_invertible,
    matmul,
)
from .ops import (
    ChainMap,
    HomComplex,
    compose,
    cone,
    cone_inclusion,
    desuspend,
    direct_sum,
    direct_sum_all,
    hom_complex,
    identity_map,
    is_chain_map,
    make_chain_map,
    shift,
    tensor,
    zero_map,
)
from .oracle import (
    CrossCheck,
    Extension,
    SizeGuard,
    chain_map_module,
    cross_check,
    enumerate_chain_maps,
    exists_h0_epi,
    extension,
    random_extension,
)
from .reduce import (
    Decomposition,
    MinimizeResult,
    barcode,
    bottom_degree,
    composite_rank,
    decompose,
    homology,
    minimize,
    reconstruct,
    rho_table,
    verify_certificates,
)
from .ring import RingElement, RingSpec, lift, parse_ring, times_r

__version__ = "0.1.0"
