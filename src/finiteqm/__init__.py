"""Exact finite-group quantum constructions over cyclotomic fields.

Weyl-Heisenberg and Clifford groups as explicit matrices with exact
cyclotomic entries, breadth-first group closure, coprime tensor
decomposition, mutually unbiased bases, and iterative generation of
Clifford-invariant state sets with rational transition probabilities.
"""

from .cyclotomic import (
    Cyclotomic,
    FieldMismatchError,
    Rational,
    SqrtConstructionError,
    conductor_for,
    cyclotomic_polynomial,
    euler_phi,
    sqrt_embed,
    sqrt_rational,
    zeta,
)
from .decomposition import (
    CrtSplit,
    clifford_product_check,
    crt_permutation,
    crt_split,
    energy_decompose,
)
from .galois import GaloisField, GFElement, gf_build, gf_trace
from .mub import BasisSet, extract_mubs_from_orbit, mub_complete_set, verify_mub
from .qgroups import (
    ClosureCapError,
    CoefficientOverflowError,
    GroupTable,
    UMatrix,
    UncertifiedGeneratorsError,
    center_of,
    check_weyl_relation,
    clifford_generators,
    clifford_group,
    displacement,
    evolve_ontic,
    fourier_matrix,
    galois_generators,
    group_closure,
    kron,
    position_operator,
    s_matrix,
    symplectic_form,
    wh_generators,
    wh_group,
)
from .rays import Ray, apply, inner, ontic_ray, prob_rational, transition_probability
from .states import (
    IntegrityError,
    StateSet,
    StepReport,
    clifford_orbit,
    generate_states,
    interference_candidates,
    orbit_decompose,
    rationality_filter,
    seed_orbit,
    verify_requirements,
)

__version__ = "0.1.0"
