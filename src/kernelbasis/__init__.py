"""Orthonormal RKHS basis expansions of Matern, Cauchy and Gaussian kernels
on the real line, with truncated low-rank evaluation, feature maps and a
numerical verification harness."""

from .cauchy import (
    cauchy_kernel,
    cauchy_partial_sum_closed_form,
    cauchy_psi_complex,
    cauchy_real_basis,
    cauchy_truncated,
)
from .featuremap import ConditioningError, FeatureMapSpec, features, krr_fit_predict
from .gaussian import (
    GaussianScale,
    MercerParams,
    gaussian_kernel,
    gaussian_psi,
    gaussian_psi_scaled,
    gaussian_truncated,
    gaussian_truncation_error,
    hermite_fn,
    mercer_eigenfunction,
    mercer_eigenvalue,
)
from .laguerre import laguerre_fn, laguerre_fn_ft
from .matern import (
    MaternBasisId,
    MaternOrder,
    MaternTruncation,
    matern_exact_hs_error,
    matern_feature_map,
    matern_kernel,
    matern_psi,
    matern_psi_bound,
    matern_psi_norm_sq,
    matern_psi_unified,
    matern_truncated,
    matern_truncation_error_bound,
)
from .orthopoly import assoc_laguerre, hermite, hermite_normalized, laguerre
from .quadrature import QuadratureRule, gauss_hermite_rule, gauss_laguerre_rule
from .report import VerificationReport
from .verify import (check_identity, convolution_oracle, gram_matrix, mehler_check, run_suite,
                     truncation_sweep)

__version__ = "0.1.0"
