"""Complex Wiener chaos calculus on weighted finite-dimensional spaces.

Modules by concern:

* :mod:`cwchaos.space` -- weighted spaces, two-block kernels, contractions;
* :mod:`cwchaos.chaos` -- chaos variables, product formula, moment identities;
* :mod:`cwchaos.bounds` -- normal-approximation diagnostics and Berry-Esseen
  bound evaluators, univariate and multivariate;
* :mod:`cwchaos.sampling` -- exact-in-law Monte Carlo and distance estimators;
* :mod:`cwchaos.ou` -- the complex Ornstein-Uhlenbeck application;
* :mod:`cwchaos.cli` -- the command-line surface.
"""

__version__ = "0.1.0"

from .space import (
    InputError,
    Kernel,
    SpaceError,
    SpaceSpec,
    contract,
    inner_product,
    kernel_from_json,
    kernel_to_json,
    load_kernel,
    norm,
    norm_sq,
    reverse_conjugate,
    save_kernel,
    sym_contract,
    symmetrize,
)
from .chaos import (
    ChaosVariable,
    ChaosVector,
    MomentReport,
    conjugate,
    cov_abs_sq,
    expectation,
    fourth_gap,
    moment,
    moment_report,
    multiply,
    pairing_expectation,
    product_expectation,
    third_moments_closed,
)
from .bounds import (
    BoundInputs,
    BoundReport,
    NonCircularError,
    SingularCovarianceError,
    be_lower_terms,
    be_upper,
    be_upper_circular,
    be_upper_multivariate,
    circularity_check,
    clt_conditions,
    fmt_norms,
    partial_order,
)
from .sampling import (
    GaussianTarget,
    SampleBatch,
    hermite_hl,
    sample_chaos,
    sample_gaussian,
    sliced_wasserstein_2d,
    wasserstein_1d,
)
from .ou import (
    GridSpec,
    OUParams,
    abs_sq_mean_closed,
    fbm_gram,
    fbm_inner,
    normalization_factor,
    numerator_kernel,
    occupation_kernel,
    rate_sweep,
    sample_numerator,
    simulate_path,
    triangular_quantities,
    verify_denominator_identity,
)
