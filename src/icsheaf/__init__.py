"""Intersection complexes of stratified simplicial spaces.

Exact-arithmetic cellular sheaf machinery on finite face posets: open
pushforwards via order-chain section complexes, middle-perversity
truncations, the direct-sum intersection complex construction over the
induced open filtration, and mechanical checkers for its axiomatic
characterizations.
"""

from .fields import QQ, PrimeField, field_by_name
from .simplicial import SimplicialComplex, load_complex
from .stratify import (Stratification, OpenFiltration, validate_stratification,
                       compute_open_strata, compute_open_filtration,
                       naive_filtration)
from .sheaves import SheafComplex, make_local_system, constant_complex
from .sections import (pushforward_open, truncate_le, cohomology_sheaf,
                       cell_costalk, hypercohomology, is_clc)
from .deligne import (ICBundle, build_ic, build_tower, clc_coarsen,
                      compare_stratifications)
from .axioms import check_ax1, check_ax2, check_classic_ax2, support_locus

__version__ = "0.1.0"

__all__ = [
    "QQ", "PrimeField", "field_by_name",
    "SimplicialComplex", "load_complex",
    "Stratification", "OpenFiltration", "validate_stratification",
    "compute_open_strata", "compute_open_filtration", "naive_filtration",
    "SheafComplex", "make_local_system", "constant_complex",
    "pushforward_open", "truncate_le", "cohomology_sheaf", "cell_costalk",
    "hypercohomology", "is_clc",
    "ICBundle", "build_ic", "build_tower", "clc_coarsen", "compare_stratifications",
    "check_ax1", "check_ax2", "check_classic_ax2", "support_locus",
]
