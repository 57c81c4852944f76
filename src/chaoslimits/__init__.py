"""chaoslimits: which probability laws can arise as limits of Wiener chaos.

A small numpy/scipy toolkit in three layers:

- ``chaos``: sparse symmetric kernels over R^d, multiple integrals, the
  product formula, Malliavin inner products and an exact Wick moment oracle;
- ``targets``: diffusion invariant measures on an interval, their second-order
  Stein coefficients, Stein equation solutions and the moment ladder;
- ``diagnostics`` / ``simulate``: fourth-moment style diagnostics deciding
  which target laws a chaos sequence can approach, and an Euler--Maruyama
  sampler with distribution distances to check targets empirically.

``cli`` exposes the same capabilities as the ``chaoslimits`` command.
"""

from .chaos import (
    BlockKernel,
    ChaosVector,
    SymmetricKernel,
    chaos_product,
    contract,
    derivative_slices,
    eval_multiple_integral,
    expect_product,
    hermite,
    iter_gaussian_chunks,
    malliavin_inner,
    multiplicity,
    ou_inverse,
    random_kernel,
    sample_gaussian,
    symmetrize,
    wick_moment,
)
from .targets import (
    NAMED_TARGETS,
    DiffusionCoefficient,
    TargetMeasure,
    beta_target,
    fdist_target,
    gamma_target,
    inverse_gamma_target,
    normal_target,
    pareto_target,
    moment_table,
    poly_moments,
    stein_identity_residual,
    stein_solution,
    stein_solution_residual,
    student_target,
    target_from_density_grid,
    uniform_centered_target,
    named_target,
)
from .diagnostics import (
    BUILTIN_FAMILIES,
    ClassifierVerdict,
    DiagnosticsReport,
    KernelFamily,
    c_n,
    classifier,
    classifier_c0,
    classifier_delta,
    ec_roots,
    gamma_fixed_family,
    gamma_kernel_gap,
    gaussian_clt_family,
    lemma_l11_gap,
    lemma_l2_combination,
    mc_twins,
    moment3,
    moment4,
    prop24_gap,
    run_family_diagnostics,
    stein_residual_l2,
    stein_residual_l2_direct,
)
from .simulate import (
    EmpiricalDistribution,
    SimConfig,
    ks_distance,
    simulate,
    stein_dictionary_test,
    wasserstein1_distance,
)
from .io import (
    dumps_struct,
    load_target,
    save_samples,
)

__version__ = "0.1.0"
