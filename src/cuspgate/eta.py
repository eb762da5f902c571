"""Eta-quotient divisors at cusps and the five-condition modularity test.

On a square-free level the classical vanishing orders of eta(M*tau) on
X0(N) at the cusp of denominator d assemble to `cusps.lambda_forward` (same
convention, no relabeling); the test suite pins that down against the
order formula in `tests/cusps_oracle.py`, so `divisor_of_eta_quotient` is
that tensor map.  `ligozat_check` reads the vector's integer numerators c
over its reduced denominator L: (1) is L = 1, and sum r_d x_d is in 24Z,
in (2) and (3), iff sum c_d x_d is in 24 L Z.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cusps import CuspDivisor, EtaVector, _contractions, lambda_forward


def divisor_of_eta_quotient(r: EtaVector) -> CuspDivisor:
    """Divisor of prod_M eta(M*tau)^(r_M), supported on the cusps.

    On a square-free level the vanishing orders of the eta(M*tau) form the
    matrix of `lambda_forward`, so the divisor is that tensor map applied
    to r.
    """
    return lambda_forward(r)


@dataclass(frozen=True)
class LigozatVerdict:
    ok: bool
    failed: tuple[int, ...]  # indices in 1..5 of the violated conditions


def ligozat_check(r: EtaVector) -> LigozatVerdict:
    """Whether the exponent family defines a modular function on X0(N).

    Conditions: (1) integer exponents; (2) sum r_d * d = 0 mod 24;
    (3) sum r_d * (N/d) = 0 mod 24; (4) sum r_d = 0; (5) prod d^(r_d) is
    a rational square.  Condition 5 is only evaluated when 1 holds.
    """
    level, c, L = r.level, r.c, r.L
    failed = []
    if L != 1:
        failed.append(1)
    if sum(x * d for x, d in zip(c, level.divisors)) % (24 * L):
        failed.append(2)
    if sum(x * (level.n // d) for x, d in zip(c, level.divisors)) % (24 * L):
        failed.append(3)
    if sum(c) != 0:
        failed.append(4)
    if L == 1:
        # prod d^(r_d) is a square iff each prime occurs to an even power
        if any(s % 2 for s in _contractions(level, c)):
            failed.append(5)
    return LigozatVerdict(not failed, tuple(failed))
