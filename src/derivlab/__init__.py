"""derivlab: a numerical laboratory for twisted derivations.

Builds exact twisted derivations out of approximate ones by the doubling
direct method, verifies the resulting stability bounds, and decides
contractibility and amenability of finite-dimensional normed algebras by
linear-algebraic subspace computations.
"""

from .algebra import (
    AlgebraElement,
    Bimodule,
    FiniteAlgebra,
    LinearMap,
    ModuleElement,
    act_left,
    act_right,
    algebra_from_dict,
    algebra_to_dict,
    bimodule_from_dict,
    bimodule_to_dict,
    conjugation_map,
    dual_bimodule,
    identity_map,
    left_annihilator,
    make_algebra,
    make_matrix_algebra,
    module_annihilator,
    mul,
    regular_bimodule,
    right_annihilator,
    zero_bimodule,
)
from .control import (
    ControlFunction,
    ControlSum,
    PNormControl,
    TabulatedControl,
    constant_control,
    control_from_dict,
    summed_control,
)
from .derivation import (
    ContractibilityReport,
    DerivationTriple,
    InnerSolveResult,
    RoundtripResult,
    SubspaceBasis,
    approx_contractibility_roundtrip,
    derivation_space,
    endomorphism_residual,
    inner_derivation,
    inner_solve,
    inner_space,
    is_amenable,
    is_contractible,
    leibniz_residual,
    sigma_endo_certificate,
)
from .errors import (
    ConstructionError,
    ControlError,
    ConvergenceError,
    DerivlabError,
    PreconditionError,
    SpaceMismatchError,
)
from .fixtures import get_algebra, make_dual_numbers, make_upper_triangular, make_zero_product
from .hyers import (
    ExtractionReport,
    PointMap,
    StabilityReport,
    TripleExtraction,
    extract_additive,
    extract_triple,
    sampled_envelope,
    verify_stability_bound,
)
from .perturb import (
    HypothesisReport,
    PerturbationSpec,
    PerturbedMaps,
    extend_with_annihilator,
    make_annihilator_perturbation,
    make_clamped_perturbation,
    verify_hypotheses,
)
from .scalar import (
    UnimodularTriple,
    scalar_homogeneity_certificate,
    three_unimodular,
    unit_circle_grid,
)

__version__ = "0.1.0"
