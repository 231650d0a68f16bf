"""Adaptive entrywise thresholding estimators, cross-validated tuning, and a
max-type equality test for high-dimensional differential correlation
matrices, plus the sibling single-correlation, differential-covariance, and
cross-correlation estimators and a Monte-Carlo benchmark harness.
"""

from .crossval import CvConfig, CvResult, cv_select_tau, cv_select_tau_single
from .dataset import (
    SampleMatrix,
    TwoGroupDataset,
    read_labeled_csv,
    read_matrix_csv,
    read_sample_csv,
    write_matrix_csv,
)
from .equality_test import (
    TestResult,
    critical_tau,
    decide_test,
    extreme_value_pvalue,
    test_equality,
    test_statistic,
)
from .errors import (
    DataError,
    DegenerateVariableError,
    DegenerateVarianceError,
    DiffCorrError,
    InsufficientSamplesError,
    UnsupportedDimensionError,
    ValidationError,
)
from .estimators import (
    DifferentialEstimate,
    baseline_cov_then_normalize,
    baseline_sample_difference,
    baseline_separate_corr,
    estimate_cross_corr,
    estimate_diff_corr,
    estimate_diff_cov,
    estimate_single_corr,
    support_ranking,
)
from .moments import (
    MomentSet,
    correlation_variance,
    moment_set,
    sample_correlation,
)
from .norms import frobenius_norm, matrix_l1_norm, spectral_norm
from .simulation import (
    BenchmarkReport,
    generate_pair,
    mvn_sample,
    run_benchmark,
    scale_to_covariance,
)
from .thresholding import (
    ThresholdRule,
    apply_rule,
    apply_threshold,
    diff_corr_thresholds,
    diff_cov_thresholds,
    single_corr_thresholds,
)

__version__ = "0.1.0"

__all__ = [
    "BenchmarkReport",
    "CvConfig",
    "CvResult",
    "DataError",
    "DegenerateVariableError",
    "DegenerateVarianceError",
    "DiffCorrError",
    "DifferentialEstimate",
    "InsufficientSamplesError",
    "MomentSet",
    "SampleMatrix",
    "TestResult",
    "ThresholdRule",
    "TwoGroupDataset",
    "UnsupportedDimensionError",
    "ValidationError",
    "apply_rule",
    "apply_threshold",
    "baseline_cov_then_normalize",
    "baseline_sample_difference",
    "baseline_separate_corr",
    "correlation_variance",
    "critical_tau",
    "cv_select_tau",
    "cv_select_tau_single",
    "decide_test",
    "diff_corr_thresholds",
    "diff_cov_thresholds",
    "estimate_cross_corr",
    "estimate_diff_corr",
    "estimate_diff_cov",
    "estimate_single_corr",
    "extreme_value_pvalue",
    "frobenius_norm",
    "generate_pair",
    "matrix_l1_norm",
    "moment_set",
    "mvn_sample",
    "read_labeled_csv",
    "read_matrix_csv",
    "read_sample_csv",
    "run_benchmark",
    "sample_correlation",
    "scale_to_covariance",
    "single_corr_thresholds",
    "spectral_norm",
    "support_ranking",
    "test_equality",
    "test_statistic",
    "write_matrix_csv",
]
