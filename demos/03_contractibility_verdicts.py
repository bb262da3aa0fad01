"""Deciding whether every twisted derivation is inner.

Every inner map is a derivation, so H^1 into a module vanishes exactly when
the derivation space (a nullspace) and the inner maps (the image of x ->
d_x, whose kernel is the twisted center) have the same dimension: two
ranks. Into the regular module of a full matrix algebra H^1 vanishes; for
the dual-number plane it is nonzero, with an explicit witness; the same
count on the dual module answers the `amenability` pipeline. The round trip
shows the verdicts surviving bounded noise. Run with

    python3 demos/03_contractibility_verdicts.py
"""
import numpy as np

from derivlab import (
    DerivationTriple,
    LinearMap,
    PerturbationSpec,
    approx_contractibility_roundtrip,
    extend_with_annihilator,
    get_algebra,
    identity_map,
    inner_derivation,
    is_amenable,
    is_contractible,
    make_annihilator_perturbation,
)
from derivlab.algebra import regular_bimodule
from derivlab.sampling import ball_point, generator

for name in ("matrix:2", "matrix:3", "dual-numbers", "upper-triangular:2"):
    algebra = get_algebra(name)
    module = regular_bimodule(algebra)
    ident = identity_map(algebra)
    plain = is_contractible(algebra, module, ident, ident)
    dual = is_amenable(algebra, module, ident, ident)
    print(f"{name:20s} derivations={plain.derivation_dim} inner={plain.inner_dim} "
          f"-> {plain.verdict:17s} dual module -> {dual.verdict}")

# The dual-number witness is the map sending the nilpotent direction to
# itself; commutativity kills every inner derivation, so it cannot be one.
duals = get_algebra("dual-numbers")
witness = is_contractible(duals, regular_bimodule(duals), identity_map(duals),
                          identity_map(duals)).witness
print("\nwitness matrix (columns: images of the unit and the nilpotent):")
print(np.round(witness.matrix, 10))

# Round trip on the matrix side: noise on an inner derivation still leads
# back to an inner representative with a uniform bound.
m2 = get_algebra("matrix:2")
module, killed = extend_with_annihilator(regular_bimodule(m2))
ident = identity_map(m2)
x = module.element(ball_point(module, generator(7, "x"), 1.0))
triple = DerivationTriple(inner_derivation(module, ident, ident, x), ident, ident)
maps = make_annihilator_perturbation(
    triple, PerturbationSpec(mode="annihilator", epsilon=1e-3, seed=11), killed
)
result = approx_contractibility_roundtrip(
    maps.f, maps.control, m2, module, ident, ident, samples=500, seed=3
)
print(f"\nmatrix:2 round trip: feasible={result.feasible}, "
      f"uniform bound beta={result.beta:.2e} (budget {result.beta_bound:.2e})")

# And on the dual-number side the round trip certifies failure: the noisy
# non-inner derivation admits no inner approximation at any tolerance,
# because a uniform bound would collapse to zero under doubling.
module_d, killed_d = extend_with_annihilator(regular_bimodule(duals))
ident_d = identity_map(duals)
noninner = np.zeros((3, 2), dtype=complex)
noninner[1, 1] = 1.0
triple_d = DerivationTriple(LinearMap(noninner, duals, module_d), ident_d, ident_d)
maps_d = make_annihilator_perturbation(
    triple_d, PerturbationSpec(mode="annihilator", epsilon=1e-3, seed=13), killed_d
)
result_d = approx_contractibility_roundtrip(
    maps_d.f, maps_d.control, duals, module_d, ident_d, ident_d, samples=300, seed=5
)
print(f"dual-numbers round trip: feasible={result_d.feasible}, "
      f"best inner residual={result_d.inner_residual:.3f}")
