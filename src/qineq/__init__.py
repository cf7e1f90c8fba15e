"""Certified evaluation and envelope inequalities for q-series special functions.

The package computes q-shifted factorials, Gaussian-weighted entire series
(including confluent basic hypergeometric sums and Ramanujan's entire
function), two-sided theta and Laurent sums, and the closed-form envelopes
that dominate them; a sweep harness certifies every envelope by direct
computation and an identity suite cross-checks the evaluators.  Each
module's ``__all__`` names its public API, and the package re-exports them all.
"""

from .errors import *
from .qcore import *
from .series import *
from .bounds import *
from .verify import *

__version__ = "0.1.0"

__all__ = [
    *errors.__all__, *qcore.__all__, *series.__all__, *bounds.__all__, *verify.__all__,
    "__version__",
]
