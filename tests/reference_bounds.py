"""An independent envelope route for the confluent hypergeometric sums.

``bounds.envelope_phi`` is the entire-class envelope of the ``phi_to_f``
reduction at the rescaled modulus.  ``envelope_phi_routes`` sets the direct
closed form beside that composed route, so tests can check that the two
agree.  It reads the cached constants of ``bounds`` and assembles them as
``bounds`` does.
"""

from __future__ import annotations

import math

from qineq import EnvelopeResult, PhiParams, envelope_entire, phi_to_f
from qineq.bounds import _assemble, _phi_constants, _require_positive


def envelope_phi_routes(params: PhiParams, abs_z: float) -> tuple[EnvelopeResult, EnvelopeResult]:
    """Two independent envelope routes for the confluent hypergeometric sum.

    Returns (direct, composed).  The direct route is the closed form

        (|z|^2 q^{3(r-s-1)/2})^{1/4} exp(log^2[|z| q^{(r-s-1)/2}] / (2(r-s-1) log q))

    times the constant ratio; the composed route is envelope_entire of the
    phi_to_f reduction at |scale| abs_z, which envelope_phi reports bit for
    bit.
    """
    abs_z = _require_positive(abs_z, "abs_z")
    c, log_c, log_ql, _, _ = _phi_constants(params)
    m = params.confluence_order
    lz = math.log(abs_z)
    lq = params.q.log_q
    prefactor_log = -log_ql + 0.5 * lz + (3.0 * (-m) / 8.0) * lq
    shifted = lz + (-m / 2.0) * lq
    exponent_term = shifted * shifted / (2.0 * (-m) * lq)
    direct = _assemble(c, prefactor_log, exponent_term, log_c)
    reduction = phi_to_f(params)
    return direct, envelope_entire(reduction.params, abs_z * abs(reduction.scale))
