"""Necessary-condition gates for odd congruence / modular degree levels.

Each gate returns a GateVerdict rather than a bare bool so callers (and the
CLI) can see which congruence condition decided the answer.  A gate passing
means "not excluded by these parity obstructions" -- it is never a proof of
oddness.  The level gates take N as an int or, factored, as its `Factorization`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arith import Factorization, factor_level, is_prime, num


@dataclass(frozen=True)
class GateVerdict:
    level: int
    passed: bool
    reasons: tuple[str, ...]
    data: tuple[tuple[str, int], ...] = ()

    def data_dict(self) -> dict[str, int]:
        return dict(self.data)


def gate_squarefree(level: int | Factorization) -> GateVerdict:
    """Parity gate for square-free levels.

    Prime levels pass outright; N = 2p passes iff p mod 16 lies in {5,7,13};
    odd N = pq passes iff for some ordering p = +-3 (mod 8) and q = 3 (mod 4);
    three or more prime factors force an even congruence number.
    """
    fac = factor_level(level)
    n = fac.n
    if n == 1:
        return GateVerdict(n, False, ("level 1 carries no elliptic quotient",))
    if not fac.is_squarefree():
        raise ValueError(f"{n} is not square-free; use gate_nonsemistable")
    primes = fac.primes()
    t = len(primes)
    if t == 1:
        return GateVerdict(n, True, (f"prime level {n}: no parity obstruction",))
    if t == 2 and n % 2 == 0:
        p = n // 2
        r = p % 16
        ok = r in (5, 7, 13)
        word = "lies in" if ok else "misses"
        return GateVerdict(
            n,
            ok,
            (f"N = 2p with p = {p}: p mod 16 = {r} {word} {{5, 7, 13}}",),
            (("p", p), ("p_mod_16", r)),
        )
    if t == 2:
        p, q = primes
        ok = False
        for a, b in ((p, q), (q, p)):
            if a % 8 in (3, 5) and b % 4 == 3:
                ok = True
                reason = f"ordering ({a}, {b}): {a} = +-3 (mod 8) and {b} = 3 (mod 4)"
                break
        else:
            reason = (
                f"no ordering of ({p}, {q}) has first = +-3 (mod 8) "
                f"and second = 3 (mod 4)"
            )
        return GateVerdict(
            n, ok, (reason,), (("p", p), ("p_mod_8", p % 8), ("q", q), ("q_mod_8", q % 8))
        )
    return GateVerdict(
        n, False, (f"{t} prime factors: the congruence number is forced even",)
    )


def gate_pq_refined(p: int, q: int) -> GateVerdict:
    """Refined gate for odd square-free pq > 21.

    Passes iff p = q = 3 (mod 8), which is also exactly when all three cusp
    orders num((p-1)(q-1)/24), num((p+1)(q-1)/24), num((p-1)(q+1)/24) are
    odd -- the verdict carries the three orders.
    """
    if p == q or any(x < 3 or x % 2 == 0 or not is_prime(x) for x in (p, q)):
        raise ValueError("p and q must be distinct odd primes")
    if p * q <= 21:
        raise ValueError("the refined gate applies to pq > 21")
    o_mm = num(Fraction((p - 1) * (q - 1), 24))
    o_pm = num(Fraction((p + 1) * (q - 1), 24))
    o_mp = num(Fraction((p - 1) * (q + 1), 24))
    all_odd = o_mm % 2 == 1 and o_pm % 2 == 1 and o_mp % 2 == 1
    ok = p % 8 == 3 and q % 8 == 3
    if ok != all_odd:
        raise AssertionError(
            f"p = {p}, q = {q}: the classes mod 8 and the parity of the cusp orders disagree"
        )
    reason = (
        f"p mod 8 = {p % 8}, q mod 8 = {q % 8}: "
        + ("both are 3; all three cusp orders are odd" if ok else "need both = 3 (mod 8)")
    )
    return GateVerdict(
        p * q,
        ok,
        (reason,),
        (
            ("order_minus_minus", o_mm),
            ("order_minus_plus", o_mp),
            ("order_plus_minus", o_pm),
            ("p", p),
            ("q", q),
        ),
    )


KNOWN_ODD_NONSEMISTABLE = (27, 32, 36, 49, 243)


def gate_nonsemistable(level: int | Factorization) -> GateVerdict:
    """Shape gate for levels that are not square-free.

    Passes iff N = 2^a, or N = 2^c * p^s with p odd and 2-part 2^c in
    {1, 4, 8}.  The verdict also reports membership in the short list of
    levels known to have odd congruence number.
    """
    fac = factor_level(level, 2)
    n = fac.n
    if fac.is_squarefree():
        raise ValueError(f"{n} is square-free; use gate_squarefree")
    c = fac.pairs[0][1] if fac.pairs[0][0] == 2 else 0
    odd = fac.pairs[1:] if c else fac.pairs
    m = n >> c
    known = n in KNOWN_ODD_NONSEMISTABLE
    data = (("known_odd_congruence", int(known)), ("odd_part", m), ("two_part", 2**c))
    if len(odd) > 1:
        return GateVerdict(
            n, False, (f"odd part {m} has {len(odd)} prime factors; at most one allowed",), data
        )
    if m == 1:
        return GateVerdict(n, True, (f"N = 2^{c} is a pure power of two",), data)
    if 2**c not in (1, 4, 8):
        return GateVerdict(
            n,
            False,
            (f"2-part 2^{c} = {2 ** c} does not lie in {{1, 4, 8}}",),
            data,
        )
    return GateVerdict(
        n,
        True,
        (f"N = {2 ** c} * {odd[0][0]}^{odd[0][1]} with admissible 2-part",),
        data,
    )
