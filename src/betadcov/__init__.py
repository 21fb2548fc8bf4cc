"""Beta-distance covariance: estimators, exact oracles and diagnostics.

The library computes the beta-powered distance covariance of paired
data through several independent routes (pairwise products, double
centering, characteristic-function quadrature, Gaussian projections,
truncated kernels, and the beta=2 closed form) that cross-validate
each other, plus a permutation independence test and moment-regime
diagnostics for heavy-tailed inputs.
"""

__version__ = "0.1.0"

from .beta2 import cross_cov, dcov2_closed
from .charfn import (QuadConfig, QuadratureError, c_const, dcov_charfn_1d,
                     scale_const)
from .charrv import (char_rv, dcov_charrv_mc, dcov_hm, h_trunc,
                     mean_sq_char_gap, mean_sq_char_gap_mc)
from .estimators import PairedSample, dcor, dcov_centered, dcov_plugin_d1
from .exact import (DcovEstimate, DiscreteJoint, DomainError, dcov_exact,
                    hhat_eval, projection_demo, ttilde_eval)
from .inference import (ConsistencyTrace, MomentFlags, PermTestResult,
                        RegimeReport, consistency_sweep, perm_test,
                        regime_classify, tail_diagnostic)
from .metric import (MetricSpec, MetricViolation, euclidean, norms_to_base,
                     pairwise_distances, table, validate_table_metric)

__all__ = [
    "__version__",
    "MetricSpec", "MetricViolation", "euclidean", "table",
    "pairwise_distances", "norms_to_base", "validate_table_metric",
    "DiscreteJoint", "DcovEstimate", "dcov_exact", "hhat_eval",
    "ttilde_eval", "projection_demo",
    "PairedSample", "dcov_plugin_d1", "dcov_centered", "dcor",
    "DomainError", "QuadConfig", "c_const", "scale_const", "dcov_charfn_1d",
    "QuadratureError", "char_rv", "dcov_charrv_mc", "dcov_hm", "h_trunc",
    "mean_sq_char_gap", "mean_sq_char_gap_mc",
    "cross_cov", "dcov2_closed",
    "perm_test", "PermTestResult", "consistency_sweep", "ConsistencyTrace",
    "tail_diagnostic", "MomentFlags", "RegimeReport", "regime_classify",
]
