"""Exact Gassmann certification for Heisenberg groups over finite rings.

The package constructs twisted horizontal subgroup families, certifies
almost-conjugacy by exhaustive computation, verifies cospectrality of the
associated Schreier coset graphs with exact integer spectra, scans
residue degrees in prime-degree cyclic fields, and certifies the
counting, growth, and tower inequalities with arbitrary precision.
"""

from .certify import (
    ClassCatalog,
    GassmannCertificate,
    ProductCertificate,
    ProductFamily,
    almost_conjugate,
    are_conjugate,
    enumerate_class_reps,
    intersection_profile,
    product_certificate,
    tower_class_count,
)
from .errors import GassmannError
from .heisenberg import (
    Heisenberg,
    TwistedSubgroup,
    center_subgroup,
    conjugate_subgroup,
    heisenberg_group,
    horizontal_subgroup,
    twisted_subgroup,
)
from .places import PlaceRecord, choose_modulus, residue_degree, scan_places
from .planner import (
    IneqCheck,
    distinct_comm_classes,
    level_count,
    ln_interval,
    min_ell_growth,
    min_ell_sequence,
    nonarith_count,
    tower_growth_constant,
    tower_min_k,
    twisted_count_bound,
)
from .rings import (
    FieldSpec,
    LinearMap,
    TruncRingSpec,
    is_mult_map,
    make_field,
    make_trunc_ring,
    mult_matrix,
)
from .schreier import (
    CosetGraph,
    SpectrumPolynomial,
    are_isomorphic,
    build_coset_graph,
    char_poly,
    default_generators,
)

__version__ = "0.1.0"
