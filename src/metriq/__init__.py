"""Metric-aware spectral toolkit for non-hermitian lattice and boson models.

The package builds Hamiltonians that are hermitian with respect to a
positive-definite metric rather than the Dirac inner product, together
with the machinery to certify that: metric square roots, eta-adjoints,
hermitian-equivalent forms, norm-conserving evolution, and a check engine
with a batch CLI on top.

Layout
------
``linops``
    Metric algebra on dense matrices, for metrics a user supplies:
    adjoints, square roots, the modified inner product; spectra, evolution.
``bosonic``
    Truncated Fock spaces, deformed quadratic boson forms, Bogoliubov
    frequencies, the two-boson su(2) realization and the collective-spin
    model built from it.
``oscillator2d``
    The two-dimensional anisotropic oscillator with an imaginary cross
    stiffness, worked in the angular-momentum (chiral) basis.
``spinchain``
    Asymmetric XXZ chains, inverse-chord exchange rings, lattice fermions
    via the string mapping, and the quantum-group boundary limit.
``verify``
    The standardized check suite, run on a diagonal metric's weights, and
    graded-matrix identities.
``cli``
    JSON-config batch front end (``metriq run | spectrum | verify``).
"""

__version__ = "0.1.0"

from .linops import (
    DefectiveMatrixError,
    InnerProductSpace,
    MetricSpec,
    NotHermitianError,
    NotPositiveDefiniteError,
    SingularMetricError,
    SpectrumResult,
    eigenvalues,
    eta_adjoint,
    evolve,
    is_pseudo_hermitian,
    map_observable,
    matrix_sqrt_pd,
    modified_inner,
    spectrum,
    to_hermitian,
)
from .bosonic import (
    BogoliubovResult,
    BosonQuadraticForm,
    FockSpace,
    StabilityError,
    bogoliubov_frequencies,
    build_lmg,
    build_metric,
    build_quadratic_hamiltonian,
    ladder_ops,
    quadratic_spectrum,
    schwinger_su2,
    tilde_ops,
)
from .oscillator2d import (
    OscillatorParams,
    build_xy_hamiltonian,
    complex_frequencies,
    lambda_pm,
    normal_mode_frequencies,
    oscillator_metric,
    recover_stiffness,
    rotation_angle,
    spacing_ratio,
    transformed_canonical_ops,
)
from .spinchain import (
    FermionQuadraticSpec,
    PseudoSpinSite,
    SpinChainSpec,
    build_fermion_quadratic,
    build_haldane_shastry,
    build_xxz_asymmetric,
    build_xxz_symmetric,
    build_zeta_metric,
    chain_unitary,
    fermion_metric,
    fermion_ops,
    gradient_ws,
    hermitian_counterpart,
    pseudo_spin_ops,
    suq2_limit,
)
from .verify import (
    CheckResult,
    GradedMatrix,
    VerificationReport,
    graded_conjugation_check,
    pseudo_symmetric_symmetrize,
    run_suite,
)

__all__ = [
    "__version__",
    # linops
    "DefectiveMatrixError",
    "InnerProductSpace",
    "MetricSpec",
    "NotHermitianError",
    "NotPositiveDefiniteError",
    "SingularMetricError",
    "SpectrumResult",
    "eigenvalues",
    "eta_adjoint",
    "evolve",
    "is_pseudo_hermitian",
    "map_observable",
    "matrix_sqrt_pd",
    "modified_inner",
    "spectrum",
    "to_hermitian",
    # bosonic
    "BogoliubovResult",
    "BosonQuadraticForm",
    "FockSpace",
    "StabilityError",
    "bogoliubov_frequencies",
    "build_lmg",
    "build_metric",
    "build_quadratic_hamiltonian",
    "ladder_ops",
    "quadratic_spectrum",
    "schwinger_su2",
    "tilde_ops",
    # oscillator2d
    "OscillatorParams",
    "build_xy_hamiltonian",
    "complex_frequencies",
    "lambda_pm",
    "normal_mode_frequencies",
    "oscillator_metric",
    "recover_stiffness",
    "rotation_angle",
    "spacing_ratio",
    "transformed_canonical_ops",
    # spinchain
    "FermionQuadraticSpec",
    "PseudoSpinSite",
    "SpinChainSpec",
    "build_fermion_quadratic",
    "build_haldane_shastry",
    "build_xxz_asymmetric",
    "build_xxz_symmetric",
    "build_zeta_metric",
    "chain_unitary",
    "fermion_metric",
    "fermion_ops",
    "gradient_ws",
    "hermitian_counterpart",
    "pseudo_spin_ops",
    "suq2_limit",
    # verify
    "CheckResult",
    "GradedMatrix",
    "VerificationReport",
    "graded_conjugation_check",
    "pseudo_symmetric_symmetrize",
    "run_suite",
]
