"""Closed-form CNOT-count bounds and parameter counts.

Everything is evaluated in exact integer or rational arithmetic; the
ceilings are the whole content, so floating point is never trusted
here.  Values that come out negative clamp to zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

# 4^7000, the largest value table1 prints, has 4,215 digits: under the
# 4,300-digit default limit on int-to-str conversion.
MAX_TABLE_QUBITS = 7000


@dataclass(frozen=True)
class BoundsReport:
    m: int
    n: int
    lb_qcm: int
    lb_random: int
    lb_measured: int
    param_count_extreme: int
    ub_asymptotic_qcm: int
    ub_asymptotic_random: int
    ub_asymptotic_measured: int
    qubits_qcm: int
    qubits_random: int
    qubits_measured: int


def _ceil_clamped(x: Fraction) -> int:
    return max(math.ceil(x), 0)


def lb_random_qcm(m: int, n: int) -> int:
    """ceil(2^{2m-1} (2^n - 1) - 3n/4), at least 0."""
    val = Fraction(2 ** (2 * m + 1), 4) * (2**n - 1) - Fraction(3 * n, 4)
    return _ceil_clamped(val)


def lb_measured_qcm(m: int, n: int) -> int:
    """Measured-model lower bound; one formula for n >= m, another below."""
    if n >= m:
        num = 2 ** (n + m + 1) - 2 ** (2 * m) - max(2, 3 * m) - 1
    else:
        num = 4**n - 3 * n - 1
    return _ceil_clamped(Fraction(num, 6))


def lb_qcm_isometry(m: int, n: int) -> int:
    """Plain-circuit-model lower bound for m-to-n isometries."""
    num = 2 ** (n + m + 1) - 2 ** (2 * m) - 2 * n - m - 1
    return _ceil_clamped(Fraction(num, 4))


def param_count_extreme(m: int, n: int) -> int:
    """Real parameters describing all extreme m-to-n channels."""
    return 2 ** (2 * m + n + 1) - 2 ** (2 * m + 1)


def table1(m: int, n: int) -> BoundsReport:
    """Exact lower bounds plus the leading-order costs and qubit counts."""
    if m < 0 or n < 0:
        raise ValueError(f"m and n must be non-negative, got m={m} n={n}")
    if m + n > MAX_TABLE_QUBITS:
        raise ValueError(f"m + n must be at most {MAX_TABLE_QUBITS}, got m={m} n={n}")
    if m < n:
        ub_measured = m * 2 ** (2 * m + 1) + 2 ** (m + n)
        qubits_measured = n
    else:
        ub_measured = n * 2 ** (2 * m + 1)
        qubits_measured = m + 1
    return BoundsReport(
        m=m,
        n=n,
        lb_qcm=lb_qcm_isometry(m, n),
        lb_random=lb_random_qcm(m, n),
        lb_measured=lb_measured_qcm(m, n),
        param_count_extreme=param_count_extreme(m, n),
        ub_asymptotic_qcm=4 ** (m + n),
        ub_asymptotic_random=2 ** (2 * m + n),
        ub_asymptotic_measured=ub_measured,
        qubits_qcm=m + 2 * n,
        qubits_random=m + n,
        qubits_measured=qubits_measured,
    )
