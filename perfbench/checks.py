"""Independent checks on cuspgate outputs.

Nothing here imports cuspgate.  Every expected value is computed by the
benchmark itself: its own primality test (trial division by sieved
primes), closed forms and gate rules written out from their statements,
an eta-quotient principality test built on an exact inverse of the
Ligozat order matrix, and published conductors from Cremona's tables.

Each ``check_*`` function returns a list of error strings; an empty list
means the output passed.  Outputs reach these functions as plain data:
search hits as ``{"params", "tags", "curve", "conductor"}`` dicts, the
shape the CLI prints.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction

# Cremona's tables: label -> (a1, a2, a3, a4, a6), conductor.
CREMONA = {
    "11a1": ((0, -1, 1, -10, -20), 11),
    "14a1": ((1, 0, 1, 4, -6), 14),
    "15a1": ((1, 1, 1, -10, -10), 15),
    "37a1": ((0, 0, 1, -1, 0), 37),
    "389a1": ((0, 1, 1, -2, 0), 389),
    "5077a1": ((0, 0, 1, -7, 6), 5077),
}

# Z/2 x Z/4 sweep: the conductors and primitive c values the paper reports.
Z2Z4_CONDUCTORS = frozenset({15, 21})
Z2Z4_PRIMITIVE_C = frozenset({1, 3, 5})


# -- arithmetic oracles ------------------------------------------------------


def primes_up_to(n: int) -> list[int]:
    """Sieve of Eratosthenes."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(range(p * p, n + 1, p)))
    return [i for i, flag in enumerate(sieve) if flag]


class _TrialPrimes:
    """Primes for trial division, extended on demand."""

    def __init__(self) -> None:
        self.limit = 1
        self.primes: list[int] = []

    def upto(self, n: int) -> list[int]:
        if n > self.limit:
            self.limit = max(n, 2 * self.limit)
            self.primes = primes_up_to(self.limit)
        return self.primes


_TRIAL = _TrialPrimes()


def is_prime(n: int) -> bool:
    """Trial division by every prime up to isqrt(n)."""
    if n < 2:
        return False
    root = math.isqrt(n)
    for p in _TRIAL.upto(root):
        if p > root:
            return True
        if n % p == 0:
            return n == p
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 by trial division."""
    out: dict[int, int] = {}
    m = abs(n)
    for p in _TRIAL.upto(math.isqrt(m)):
        if p * p > m:
            break
        while m % p == 0:
            out[p] = out.get(p, 0) + 1
            m //= p
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def num(x) -> int:
    return abs(Fraction(x).numerator)


def odd_part(n: int) -> int:
    n = abs(n)
    while n and n % 2 == 0:
        n //= 2
    return n


def is_square_mod(a: int, m: int) -> bool:
    """Whether x^2 = a (mod m) has a solution, by trying every residue."""
    a %= m
    return any(x * x % m == a for x in range(m))


def discriminant(a) -> Fraction:
    """Discriminant of y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6."""
    a1, a2, a3, a4, a6 = (Fraction(x) for x in a)
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    return -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6


def transform_model(a, u, r, s, t) -> tuple[Fraction, ...]:
    """Silverman's Table 3.1: the model after x = u^2 x' + r, y = u^3 y' + s u^2 x' + t."""
    a1, a2, a3, a4, a6 = (Fraction(x) for x in a)
    u, r, s, t = (Fraction(x) for x in (u, r, s, t))
    return (
        (a1 + 2 * s) / u,
        (a2 - s * a1 + 3 * r - s * s) / u**2,
        (a3 + r * a1 + 2 * t) / u**3,
        (a4 - s * a3 + 2 * r * a2 - (t + r * s) * a1 + 3 * r * r - 2 * s * t) / u**4,
        (a6 + r * a4 + r * r * a2 + r**3 - t * a3 - t * t - r * t * a1) / u**6,
    )


# -- gate rules, written out from their statements ---------------------------


def gate_verdict(n: int) -> tuple[str, bool]:
    """(gate name, passed) for level n >= 2.

    Square-free: a prime passes; 2p passes iff p mod 16 is 5, 7 or 13; odd
    pq passes iff in some order p = +-3 (mod 8) and q = 3 (mod 4); three or
    more primes fail.  Otherwise: 2^a passes, 2^c p^s passes iff
    2^c is 1, 4 or 8, and two or more odd primes fail.
    """
    fac = factorize(n)
    primes = sorted(fac)
    if all(e == 1 for e in fac.values()):
        if len(primes) == 1:
            return "squarefree", True
        if len(primes) == 2 and primes[0] == 2:
            return "squarefree", primes[1] % 16 in (5, 7, 13)
        if len(primes) == 2:
            p, q = primes
            ok = any(a % 8 in (3, 5) and b % 4 == 3 for a, b in ((p, q), (q, p)))
            return "squarefree", ok
        return "squarefree", False
    odd = [p for p in primes if p != 2]
    two_part = 2 ** fac.get(2, 0)
    if not odd:
        return "nonsemistable", True
    if len(odd) > 1:
        return "nonsemistable", False
    return "nonsemistable", two_part in (1, 4, 8)


def pq_orders(p: int, q: int) -> dict[str, int]:
    return {
        "order_minus_minus": num(Fraction((p - 1) * (q - 1), 24)),
        "order_minus_plus": num(Fraction((p - 1) * (q + 1), 24)),
        "order_plus_minus": num(Fraction((p + 1) * (q - 1), 24)),
    }


def pq_passes(p: int, q: int) -> bool:
    return p % 8 == 3 and q % 8 == 3


def closed_form_order(primes, signs) -> int:
    """Order of sum_d (prod_{p_i | d} b_i) P_d: num((p-1)/12) at a prime
    level, num(prod(p_i + b_i)/24) otherwise."""
    if len(primes) == 1:
        return num(Fraction(primes[0] - 1, 12))
    prod = 1
    for p, b in zip(primes, signs):
        prod *= p + b
    return num(Fraction(prod, 24))


def cyclic_prime_group(p: int) -> tuple[int, ...]:
    """Cuspidal group at prime level p: cyclic of order num((p-1)/12)."""
    order = num(Fraction(p - 1, 12))
    return (order,) if order > 1 else ()


def has_fixed_point(n: int, r: int) -> bool:
    """w_r on X0(n) has a fixed point iff r = 1, r = n, or -p is a square
    modulo n/r for every prime p dividing r."""
    if r == 1 or r == n:
        return True
    return all(is_square_mod(-p, n // r) for p in factorize(r))


def admissible_signs(n: int, composite_rule: bool) -> list[tuple[int, ...]]:
    """Sign vectors (aligned with the ascending primes of square-free n) with
    product -1, sign -1 at every prime whose w_p has a fixed point, sign +1
    at 2 for even n, and, under the composite rule, product -1 over the
    primes of every composite r whose w_r has a fixed point."""
    primes = sorted(factorize(n))
    forced = {i: -1 for i, p in enumerate(primes) if has_fixed_point(n, p)}
    if n % 2 == 0:
        if forced.get(0) == -1:
            return []
        forced[0] = 1
    composites = []
    if composite_rule:
        for k in range(1, len(primes) + 1):
            for subset in itertools.combinations(range(len(primes)), k):
                r = math.prod(primes[i] for i in subset)
                if k > 1 and has_fixed_point(n, r):
                    composites.append(subset)
    out = []
    for signs in itertools.product((1, -1), repeat=len(primes)):
        if math.prod(signs) != -1 or any(signs[i] != s for i, s in forced.items()):
            continue
        if any(math.prod(signs[i] for i in subset) != -1 for subset in composites):
            continue
        out.append(signs)
    return out


# -- cuspidal divisors through Ligozat's criterion ----------------------------


def _bit_order_divisors(primes) -> list[int]:
    return [
        math.prod(p for i, p in enumerate(primes) if k >> i & 1) for k in range(1 << len(primes))
    ]


def _integer_inverse(matrix: list[list[int]]) -> tuple[list[list[int]], int]:
    """(adj, d) with matrix^-1 = adj / d, by fraction-free (Bareiss)
    Gauss-Jordan elimination; the result is verified before it is returned."""
    n = len(matrix)
    m = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(matrix)]
    prev = 1
    for k in range(n):
        pivot = next(i for i in range(k, n) if m[i][k] != 0)
        m[k], m[pivot] = m[pivot], m[k]
        for i in range(n):
            if i != k:
                m[i] = [(m[k][k] * x - m[i][k] * y) // prev for x, y in zip(m[i], m[k])]
        prev = m[k][k]
    adj, d = [row[n:] for row in m], prev
    for i, row in enumerate(matrix):
        for j in range(n):
            if sum(row[k] * adj[k][j] for k in range(n)) != (d if i == j else 0):
                raise ArithmeticError("integer inverse failed to verify")
    return adj, d


class LevelOracle:
    """Principality and orders of cuspidal divisors at a square-free level.

    A divisor D on the cusps (indexed like cuspgate: bit k <-> prime p_k,
    ascending) is principal iff the eta exponents r = A^-1 D satisfy
    Ligozat's conditions, where A[c][delta] is the order at the cusp of
    denominator c of eta(delta tau):  N gcd(c, delta)^2 / (24 c delta).
    24 A is an integer matrix; its inverse is kept as adj / d.
    """

    def __init__(self, n: int) -> None:
        self.n = n
        self.primes = sorted(factorize(n))
        self.divisors = _bit_order_divisors(self.primes)
        b = [[n * math.gcd(c, d) // math.lcm(c, d) for d in self.divisors] for c in self.divisors]
        self.adj, self.det = _integer_inverse(b)

    def eta_exponents(self, divisor) -> tuple[list[int], int]:
        """(a, q) in lowest terms with r = a / q."""
        coeffs = [Fraction(x) for x in divisor]
        e = math.lcm(*(c.denominator for c in coeffs))
        ints = [int(c * e) for c in coeffs]
        a = [24 * sum(m * x for m, x in zip(row, ints)) for row in self.adj]
        q = self.det * e
        if q < 0:
            a, q = [-x for x in a], -q
        g = math.gcd(q, *a)
        return [x // g for x in a], q // g

    def _sums(self, s: list[int]) -> list[int]:
        """The quantities Ligozat's conditions 2, 3 and 5 reduce mod 24, 24, 2."""
        return [
            sum(x * d for x, d in zip(s, self.divisors)),
            sum(x * (self.n // d) for x, d in zip(s, self.divisors)),
        ] + [sum(x for x, d in zip(s, self.divisors) if d % p == 0) for p in self.primes]

    def is_principal(self, divisor) -> bool:
        a, q = self.eta_exponents(divisor)
        if q != 1 or sum(a) != 0:
            return False
        s2, s3, *parities = self._sums(a)
        return s2 % 24 == 0 and s3 % 24 == 0 and all(x % 2 == 0 for x in parities)

    def order(self, divisor) -> int:
        """Least n >= 1 with n * divisor principal (divisor of degree 0)."""
        a, q = self.eta_exponents(divisor)
        if sum(a) != 0:
            raise ValueError("order needs a degree-zero divisor")
        # n * a / q is integral iff q | n; at n = q the exponents are a, and
        # each remaining condition asks for a multiple of a factor of 24 or 2
        s2, s3, *parities = self._sums(a)
        j = math.lcm(24 // math.gcd(24, s2), 24 // math.gcd(24, s3), *(2 // math.gcd(2, x) for x in parities))
        return q * j

    def generator_exponent(self) -> int:
        """lcm over d > 1 of the orders of P_d - P_1, the group's exponent."""
        size = len(self.divisors)
        out = 1
        for k in range(1, size):
            w = [0] * size
            w[0], w[k] = -1, 1
            out = math.lcm(out, self.order(w))
        return out


# -- level outputs -----------------------------------------------------------


def check_level(rec: dict) -> list[str]:
    """Check one level's outputs, as recorded by the levels workload.

    ``rec`` holds n, gate (name, passed), optional pq (p, q, passed, data),
    and for square-free n: assignments and composite_assignments (sign
    tuples), signed (list of (signs, order, ligozat ok, eta divisor,
    o*w coefficients)) and group (invariant factors).
    """
    n = rec["n"]
    errs = []
    if tuple(rec["gate"]) != gate_verdict(n):
        errs.append(f"N={n}: gate {rec['gate']} != rule {gate_verdict(n)}")
    if rec.get("pq") is not None:
        p, q, passed, data = rec["pq"]
        if passed != pq_passes(p, q):
            errs.append(f"N={n}: gate_pq_refined({p},{q}) passed={passed}")
        for key, value in pq_orders(p, q).items():
            if data.get(key) != value:
                errs.append(f"N={n}: gate_pq_refined {key}={data.get(key)} != {value}")
    if "group" not in rec:
        return errs
    primes = sorted(factorize(n))
    oracle = LevelOracle(n)
    for key, composite in (("assignments", False), ("composite_assignments", True)):
        if [tuple(s) for s in rec[key]] != admissible_signs(n, composite):
            errs.append(f"N={n}: {key} {rec[key]} != rule {admissible_signs(n, composite)}")
    for signs, order, ligozat_ok, eta_div, ow in rec["signed"]:
        expected = closed_form_order(primes, signs)
        if order != expected:
            errs.append(f"N={n} signs={signs}: order {order} != closed form {expected}")
            continue
        w = [Fraction(c, order) for c in ow]
        if not ligozat_ok:
            errs.append(f"N={n} signs={signs}: ligozat_check rejects lambda^-1(o*w)")
        if tuple(eta_div) != tuple(ow):
            errs.append(f"N={n} signs={signs}: eta divisor does not map back to o*w")
        if not oracle.is_principal(ow):
            errs.append(f"N={n} signs={signs}: o*w is not principal")
        for ell in factorize(order):
            if oracle.is_principal([(order // ell) * c for c in w]):
                errs.append(f"N={n} signs={signs}: (o/{ell})*w is principal")
    group = tuple(rec["group"])
    if any(b % a for a, b in zip(group, group[1:])):
        errs.append(f"N={n}: invariants {group} are not a divisor chain")
    if len(primes) == 1 and group != cyclic_prime_group(n):
        errs.append(f"N={n}: group {group} != cyclic of order num((N-1)/12)")
    exponent = oracle.generator_exponent()
    if (group[-1] if group else 1) != exponent:
        errs.append(f"N={n}: largest invariant {group[-1:]} != lcm of generator orders {exponent}")
    return errs


# -- search outputs ----------------------------------------------------------


def _as_int(x) -> int | None:
    return None if x is None else int(x)


def check_neumann_setzer(bound: int, hits: list[dict]) -> list[str]:
    expected = [m for m in range(1, math.isqrt(bound - 4) + 1, 2) if is_prime(m * m + 4)]
    got = [h["params"]["m"] for h in hits]
    errs = [] if got == expected else [f"neumann-setzer({bound}): m values differ from m^2+4 prime"]
    for h in hits:
        m, p = h["params"]["m"], h["params"]["p"]
        if p != m * m + 4 or _as_int(h["conductor"]) != 4 * p:
            errs.append(f"neumann-setzer m={m}: p={p}, conductor {h['conductor']} != 4p")
    return errs


def check_2p(k_max: int, hits: list[dict]) -> list[str]:
    expected = [
        (k, m)
        for k in range(1, k_max + 1)
        for m in range(1, math.isqrt(2**k) + 1, 2)
        if (2**k - m * m) % 16 == 7 and is_prime(2**k - m * m)
    ]
    got = [(h["params"]["k"], h["params"]["m"]) for h in hits]
    errs = [] if got == expected else [f"2p({k_max}): (k, m) pairs differ from 2^k - m^2 prime"]
    for h in hits:
        k, m, p = h["params"]["k"], h["params"]["m"], h["params"]["p"]
        if p != 2**k - m * m or p % 16 != 7 or not is_prime(p):
            errs.append(f"2p k={k} m={m}: p={p} is not a prime 2^k - m^2 = 7 (mod 16)")
        if k >= 6 and _as_int(h["conductor"]) != 2 * p:
            errs.append(f"2p k={k} m={m}: conductor {h['conductor']} != 2p = {2 * p}")
        if k < 6 and h["curve"] is not None:
            errs.append(f"2p k={k} m={m}: k < 6 should be parameter-only")
    return errs


_8P_SHIFTS = {1: -16, 2: -32, 3: 32}


def check_8p(p_max: int, hits: list[dict]) -> list[str]:
    expected = []
    for p in primes_up_to(p_max):
        if p <= 31:
            continue
        for case, shift in _8P_SHIFTS.items():
            target = p + shift
            root = math.isqrt(target) if target > 0 else 0
            if target > 0 and root * root == target and root % 2 == 1:
                expected.append((p, case))
    got = [(h["params"]["p"], h["params"]["case"]) for h in hits]
    errs = [] if got == expected else [f"8p({p_max}): (p, case) pairs differ from p + shift = odd square"]
    for h in hits:
        p = h["params"]["p"]
        if _as_int(h["conductor"]) != 8 * p:
            errs.append(f"8p p={p}: conductor {h['conductor']} != 8p = {8 * p}")
    return errs


def _odd_prime_powers(bound: int) -> dict[int, tuple[int, int]]:
    out = {}
    for p in primes_up_to(bound):
        if p == 2:
            continue
        e, q = 1, p
        while q <= bound:
            out[q] = (p, e)
            q *= p
            e += 1
    return out


def check_4pq(bound: int, difference: int, hits: list[dict]) -> list[str]:
    powers = _odd_prime_powers(bound)
    expected = [
        (u, s)
        for u in sorted(powers)
        if u + difference in powers
        for s in (1, -1)
    ]
    got = [(h["params"]["u"], h["params"]["s"]) for h in hits]
    errs = [] if got == expected else [f"4pq({bound}): (u, s) pairs differ from prime powers {difference} apart"]
    for h in hits:
        par = h["params"]
        p, q, u, v = par["p"], par["q"], par["u"], par["v"]
        if v - u != difference or p == q or not (is_prime(p) and is_prime(q)):
            errs.append(f"4pq u={u} v={v}: p={p}, q={q} are not distinct primes {difference} apart")
        if u != p ** par["alpha"] or v != q ** par["beta"]:
            errs.append(f"4pq u={u} v={v}: not p^alpha, q^beta")
        if odd_part(_as_int(h["conductor"])) != p * q:
            errs.append(f"4pq u={u} v={v}: odd part of conductor {h['conductor']} != pq = {p * q}")
    return errs


def check_z2z4(bound: int, conductors, hits: list[dict], two_prime_case_empty: bool) -> list[str]:
    errs = []
    found = {_as_int(h["conductor"]) for h in hits}
    if not found <= Z2Z4_CONDUCTORS or set(conductors) != found:
        errs.append(f"z2z4({bound}): conductors {sorted(found)} not within {{15, 21}}")
    primitive = [h for h in hits if "primitive" in h["tags"]]
    c_values = {h["params"]["c"] for h in primitive}
    expected_c = {c for c in Z2Z4_PRIMITIVE_C if c <= bound}
    if c_values != expected_c:
        errs.append(f"z2z4({bound}): primitive c {sorted(c_values)} != {sorted(expected_c)}")
    for h in primitive:
        c = h["params"]["c"]
        if len([p for p in factorize(c * c) if p != 2]) > 1:
            errs.append(f"z2z4 c={c}: primitive hit with two odd primes")
    if not two_prime_case_empty:
        errs.append(f"z2z4({bound}): two-prime case reported non-empty")
    return errs


def check_search(family: str, bound: int, result, difference: int = 8) -> list[str]:
    """Dispatch on family; ``result`` is a hit list, or for z2z4 a dict with
    conductors, hits and two_prime_case_empty."""
    if family == "neumann-setzer":
        return check_neumann_setzer(bound, result)
    if family == "2p":
        return check_2p(bound, result)
    if family == "8p":
        return check_8p(bound, result)
    if family == "4pq":
        return check_4pq(bound, difference, result)
    if family == "z2z4":
        return check_z2z4(
            bound, result["conductors"], result["hits"], result["two_prime_case_empty"]
        )
    raise ValueError(f"unknown family {family}")


# -- CLI records -------------------------------------------------------------


def _fr(x) -> Fraction:
    """CLI values: ints stay ints, rationals and big ints arrive as strings."""
    return Fraction(str(x))


def _p_adic_valuation(x: Fraction, p: int) -> int:
    v, m = 0, abs(x.numerator)
    while m % p == 0:
        m //= p
        v += 1
    return v


def check_cli_record(query: dict, text: str) -> list[str]:
    """Check one CLI query's stdout against its seeded spec (see
    workloads.cli_queries for the spec fields)."""
    sub = query["sub"]
    try:
        record = json.loads(text)
    except ValueError:
        return [f"{sub}: stdout is not one JSON record"]
    if text != json.dumps(record, indent=2, sort_keys=True) + "\n":
        return [f"{sub}: output is not a single sorted-key JSON record"]
    if set(record) != {"input", "result", "subcommand", "version"} or record["subcommand"] != sub:
        return [f"{sub}: record keys {sorted(record)} / subcommand {record.get('subcommand')}"]
    res = record["result"]
    q = query
    if sub == "cusp-order":
        expected = closed_form_order(q["primes"], q["signs"])
        ok = res["order"] == expected
        if q["mode"] == "divisor":
            ok = ok and res["principal"] == (expected == 1)
    elif sub == "cusp-group":
        group = cyclic_prime_group(q["level"])
        ok = tuple(res["invariants"]) == group and res["order"] == math.prod(group)
    elif sub == "eta-check":
        p, a, b = q["level"], q["a"], q["b"]
        failed = [
            i
            for i, bad in (
                (2, (a + p * b) % 24 != 0),
                (3, (p * a + b) % 24 != 0),
                (4, a + b != 0),
                (5, b % 2 != 0),
            )
            if bad
        ]
        ok = res["failed_conditions"] == failed and res["ok"] == (not failed)
    elif sub == "eta-divisor":
        p, a, b = q["level"], q["a"], q["b"]
        want = [["1", Fraction(p * a + b, 24)], [str(p), Fraction(a + p * b, 24)]]
        ok = [[d, _fr(c)] for d, c in res["coefficients"]] == want
    elif sub == "al-fixed":
        ok = res["fixed_points"] == has_fixed_point(q["level"], q["r"])
    elif sub == "al-signs":
        got = [tuple(e["sign"] for e in a) for a in res["assignments"]]
        want = admissible_signs(q["level"], q["composite"])
        ok = got == want and res["count"] == len(want)
    elif sub == "gate":
        ok = (res["gate"], res["passed"]) == gate_verdict(q["level"])
    elif sub == "gate-pq":
        p, q_ = q["p"], q["q"]
        ok = res["passed"] == pq_passes(p, q_) and all(
            res["data"][k] == v for k, v in pq_orders(p, q_).items()
        )
    elif sub == "search":
        if q["family"] == "z2z4":
            return check_search("z2z4", q["bound"], res)
        return check_search(q["family"], q["bound"], res, q.get("difference", 8))
    elif sub == "tate":
        v = _p_adic_valuation(discriminant(q["model"]), q["p"])
        ok = res["f"] == 1 and res["kodaira"] == f"I{v}" and res["v_disc"] == v
    elif sub == "conductor":
        n = CREMONA[q["label"]][1]
        local = [(e["p"], e["f"]) for e in res["local"]]
        ok = res["conductor"] == n and local == [(p, 1) for p in sorted(factorize(n))]
    elif sub == "torsion2":
        roots = sorted(Fraction(r) for r in q["roots"])
        label = {0: "trivial", 1: "Z/2", 3: "Z/2 x Z/2"}[len(roots)]
        ok = res["label"] == label and [_fr(r) for r in res["roots"]] == roots
    elif sub == "curve-transform":
        model = transform_model(q["model"], *q["transform"])
        disc = discriminant(q["model"]) / Fraction(q["transform"][0]) ** 12
        ok = [_fr(c) for c in res["model"]] == list(model) and _fr(res["discriminant"]) == disc
    else:
        return [f"unknown subcommand {sub}"]
    return [] if ok else [f"{sub} {' '.join(q['argv'])}: result {res} disagrees with the oracle"]
