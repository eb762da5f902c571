"""The benchmark's workloads: seeded inputs, warm-up, one round of operations.

A round is the workload's fixed work; every run repeats whole rounds of
the same operations, so the share of failed operations is the same in
every run.  Operations call cuspgate through the package namespace at call
time (``cuspgate.factor``, never a name bound at import), so the traced
run sees every call.  The checks in `checks` run after the timed rounds.
"""

from __future__ import annotations

import json
import math
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import checks
from tracing import TRACE_MARK

HERE = Path(__file__).resolve().parent

FAMILIES = ("neumann-setzer", "2p", "8p", "4pq", "z2z4")
SEARCH_FUNCTIONS = {
    "neumann-setzer": "search_neumann_setzer",
    "2p": "search_2p_family",
    "8p": "search_8p_family",
    "4pq": "search_4pq_family",
    "z2z4": "verify_z2z4_classification",
}
# Bounds chosen so that, on the reference machine, four searches take
# 0.4-0.5 s with jobs=1 and all five 0.2-0.3 s with jobs=2 (the 2p scan
# does not speed up with jobs: one chunk gets nearly all its work), so op
# latencies form one cluster on scan-par and 2p sits below the rest on scan.
SCAN_BOUNDS = {
    "full": {"neumann-setzer": 100_000_000, "2p": 24, "8p": 180_000, "4pq": 6_000, "z2z4": 2_500},
    "small": {"neumann-setzer": 100_000, "2p": 14, "8p": 3_000, "4pq": 500, "z2z4": 200},
}
SCAN_WARMUP_BOUNDS = {"neumann-setzer": 1_000, "2p": 8, "8p": 200, "4pq": 50, "z2z4": 30}

# Every N with 2 <= N < 2310: 2310 = 2*3*5*7*11 is the first 5-prime level.
LEVEL_RANGE = {"full": (2, 2310), "small": (2, 250)}
LEVEL_WARMUP = (2, 60)
# These 13 levels never finish cuspidal_group_structure and fail at the
# time limit in every round; every other level finishes in under 0.05 s on
# the reference machine.  A run is incorrect if any other op fails.
SLOW_LEVELS = frozenset({858, 910, 1122, 1302, 1326, 1410, 1430, 1634, 1794, 1806, 2002, 2145, 2170})
LEVEL_TIME_LIMIT_S = 0.25

CLI_SUBCOMMANDS = (
    "cusp-order",
    "cusp-group",
    "eta-check",
    "eta-divisor",
    "al-fixed",
    "al-signs",
    "gate",
    "gate-pq",
    "search",
    "tate",
    "conductor",
    "torsion2",
    "curve-transform",
)
CLI_QUERIES_PER_SUBCOMMAND = {"full": 3, "small": 1}
CLI_QUERY_TIMEOUT_S = 60


class OpFailed(Exception):
    """An operation that returned no result: an error, or its time limit."""


class Op:
    __slots__ = ("label", "kind", "run")

    def __init__(self, label: str, kind: str, run) -> None:
        self.label, self.kind, self.run = label, kind, run


def _cuspgate():
    import cuspgate

    return cuspgate


# -- scan / scan-par ---------------------------------------------------------


class Scan:
    """The five diophantine searches at fixed bounds; one op = one search."""

    time_limit = None
    may_fail = frozenset()
    latency_by_op = False

    def __init__(self, name: str, seed: int, size: str, jobs: int) -> None:
        self.name, self.jobs = name, jobs
        self.bounds = SCAN_BOUNDS[size]
        self.order = list(FAMILIES)
        random.Random(seed).shuffle(self.order)

    def setup(self) -> None:
        cg = _cuspgate()
        for family in FAMILIES:
            getattr(cg, SEARCH_FUNCTIONS[family])(SCAN_WARMUP_BOUNDS[family], jobs=self.jobs)

    def ops(self, jobs: int | None = None) -> list[Op]:
        jobs = self.jobs if jobs is None else jobs
        return [Op(f, f, self._search(f, jobs)) for f in self.order]

    def _search(self, family: str, jobs: int):
        bound = self.bounds[family]
        name = SEARCH_FUNCTIONS[family]
        return lambda: getattr(_cuspgate(), name)(bound, jobs=jobs)

    def check(self, outputs: dict) -> list[str]:
        errs = []
        for family, out in outputs.items():
            if family == "z2z4":
                result = {
                    "conductors": out.conductors,
                    "hits": [hit_record(h) for h in out.hits],
                    "two_prime_case_empty": out.two_prime_case_empty,
                }
            else:
                result = [hit_record(h) for h in out]
            errs += checks.check_search(family, self.bounds[family], result)
        return errs


def hit_record(hit) -> dict:
    return {
        "params": dict(hit.params),
        "tags": list(hit.tags),
        "curve": None if hit.curve is None else list(hit.curve.coefficients()),
        "conductor": hit.conductor,
    }


# -- levels ------------------------------------------------------------------


class Levels:
    """Gates, sign divisors, eta quotients and cuspidal groups per level;
    one op = one level."""

    time_limit = LEVEL_TIME_LIMIT_S
    # A latency sample is one level's median time over the rounds.  The
    # tail then reads the 11th slowest level; from single timings it read
    # the 11th of the 16 timings of the four slowest levels, which jumped to
    # the next level down, 20% faster, whenever a few of them ran fast.
    latency_by_op = True

    def __init__(self, name: str, seed: int, size: str) -> None:
        self.name = name
        lo, hi = LEVEL_RANGE[size]
        self.levels = list(range(lo, hi))
        self.may_fail = frozenset(str(n) for n in SLOW_LEVELS if lo <= n < hi)
        random.Random(seed).shuffle(self.levels)
        self.factors: dict[int, tuple[int, ...] | None] = {}

    def setup(self) -> None:
        _cuspgate()
        for n in range(*LEVEL_RANGE["full"]):
            fac = checks.factorize(n)
            self.factors[n] = tuple(sorted(fac)) if all(e == 1 for e in fac.values()) else None
        for n in range(*LEVEL_WARMUP):
            level_op(n, self.factors[n])

    def ops(self, jobs: int | None = None) -> list[Op]:
        return [Op(str(n), "level", _bind(level_op, n, self.factors[n])) for n in self.levels]

    def check(self, outputs: dict) -> list[str]:
        errs = []
        for label, out in outputs.items():
            errs += checks.check_level(level_record(int(label), out))
        return errs


def _bind(fn, *args):
    return lambda: fn(*args)


def level_op(n: int, primes: tuple[int, ...] | None):
    """All the per-level work; the cuspidal group comes last so a level cut
    off by the time limit has done everything else first."""
    cg = _cuspgate()
    if primes is None:
        return (cg.gate_nonsemistable(n),)
    gate = cg.gate_squarefree(n)
    pq = cg.gate_pq_refined(*primes) if len(primes) == 2 and n % 2 and n > 21 else None
    level = cg.SquarefreeLevel.of(n)
    assignments = cg.admissible_sign_assignments(level)
    composite = cg.admissible_sign_assignments(level, composite_rule=True)
    signed = []
    for a in assignments:
        w = cg.sign_divisor(level, {p: -b for p, b in zip(level.primes, a.signs)})
        order = cg.divisor_order(w)
        ow = order * w
        u = cg.lambda_inverse(ow)
        signed.append((a.signs, order, cg.ligozat_check(u), cg.divisor_of_eta_quotient(u), ow))
    group = cg.cuspidal_group_structure(level)
    return (gate, pq, assignments, composite, signed, group)


def level_record(n: int, out) -> dict:
    gate = out[0]
    if len(out) == 1:
        return {"n": n, "gate": ("nonsemistable", gate.passed)}
    rec = {"n": n, "gate": ("squarefree", gate.passed)}
    _, pq, assignments, composite, signed, group = out
    if pq is not None:
        data = dict(pq.data)
        rec["pq"] = (data["p"], data["q"], pq.passed, data)
    rec["assignments"] = [a.signs for a in assignments]
    rec["composite_assignments"] = [a.signs for a in composite]
    rec["signed"] = [
        (signs, order, verdict.ok, eta_div.coeffs, ow.coeffs)
        for signs, order, verdict, eta_div, ow in signed
    ]
    rec["group"] = group
    return rec


# -- cli ---------------------------------------------------------------------


class Cli:
    """A closed loop with one client: each op is one fresh `cuspgate`
    process on a seeded query."""

    time_limit = None
    may_fail = frozenset()
    latency_by_op = False

    def __init__(self, name: str, seed: int, size: str) -> None:
        self.name = name
        self.queries = cli_queries(random.Random(seed), CLI_QUERIES_PER_SUBCOMMAND[size])
        self.tracer = None

    def setup(self) -> None:
        run_cli(["gate", "--level", "11"])

    def ops(self, jobs: int | None = None) -> list[Op]:
        return [
            Op(f"{i}:{q['sub']}", q["sub"], _bind(self._query, q["argv"]))
            for i, q in enumerate(self.queries)
        ]

    def _query(self, argv: list[str]) -> str:
        return run_cli(argv, self.tracer)

    def check(self, outputs: dict) -> list[str]:
        errs = []
        for label, text in outputs.items():
            errs += checks.check_cli_record(self.queries[int(label.split(":")[0])], text)
        return errs


def run_cli(argv: list[str], tracer=None) -> str:
    """Run one query in a fresh process and return its stdout.

    Untraced it is what the `cuspgate` entry point runs; traced it goes
    through tracing.py, whose layer tables are merged into ``tracer``.
    """
    if tracer is None:
        cmd = [sys.executable, "-m", "cuspgate.cli", *argv]
    else:
        cmd = [sys.executable, str(HERE / "tracing.py"), *argv]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CLI_QUERY_TIMEOUT_S)
    stderr = proc.stderr
    if tracer is not None:
        lines = stderr.splitlines()
        for line in lines:
            if line.startswith(TRACE_MARK):
                tracer.merge(json.loads(line[len(TRACE_MARK) :]))
        stderr = "\n".join(x for x in lines if not x.startswith(TRACE_MARK))
    if proc.returncode != 0:
        raise OpFailed(f"cuspgate {' '.join(argv)} exited {proc.returncode}: {stderr.strip()}")
    return proc.stdout


def _primes_between(lo: int, hi: int) -> list[int]:
    return [p for p in checks.primes_up_to(hi) if p >= lo]


def _squarefree(rng: random.Random, hi: int, t_choices) -> tuple[int, tuple[int, ...]]:
    """A square-free N < hi with a number of primes drawn from t_choices."""
    while True:
        t = rng.choice(t_choices)
        primes = tuple(sorted(rng.sample(_primes_between(2, 60 if t > 1 else hi), t)))
        if math.prod(primes) < hi:
            return math.prod(primes), primes


def _model_arg(model) -> str:
    return ",".join(str(Fraction(c)) for c in model)


def cli_queries(rng: random.Random, per_subcommand: int) -> list[dict]:
    """Seeded queries covering every subcommand, with the fields the checks need."""
    out = []
    for sub in CLI_SUBCOMMANDS:
        for _ in range(per_subcommand):
            q = _CLI_GENERATORS[sub](rng)
            q["sub"] = sub
            q["argv"] = [sub] + [str(a) for a in q["argv"]]
            out.append(q)
    rng.shuffle(out)
    return out


def _q_cusp_order(rng):
    if rng.random() < 0.5:
        p = rng.choice(_primes_between(5, 600))
        return {"argv": ["--level", p, "--divisor", "1,-1"], "mode": "divisor", "primes": [p], "signs": [-1]}
    n, primes = _squarefree(rng, 3000, (2, 3))
    # all -1 is left out: argparse reads "--signs=--" as an empty string
    signs = [1] * len(primes)
    while len(set(signs)) == 1:
        signs = [rng.choice((1, -1)) for _ in primes]
    text = "".join("+" if s == 1 else "-" for s in signs)
    return {"argv": ["--level", n, f"--signs={text}"], "mode": "signs", "primes": list(primes), "signs": signs}


def _q_cusp_group(rng):
    p = rng.choice(_primes_between(11, 1500))
    return {"argv": ["--level", p], "level": p}


def _q_eta(rng):
    p = rng.choice(_primes_between(5, 500))
    a = rng.choice([24 // math.gcd(p - 1, 24) * rng.randint(1, 3), rng.randint(-30, 30)])
    b = rng.choice([-a, rng.randint(-30, 30)])
    return {"argv": ["--level", p, f"--exponents={a},{b}"], "level": p, "a": a, "b": b}


def _q_al_fixed(rng):
    n, primes = _squarefree(rng, 2000, (1, 2, 3))
    divisors = [d for d in range(2, n + 1) if n % d == 0]
    r = rng.choice(divisors)
    return {"argv": ["--level", n, "--r", r], "level": n, "r": r}


def _q_al_signs(rng):
    n, _ = _squarefree(rng, 2000, (1, 2, 3))
    composite = rng.random() < 0.5
    argv = ["--level", n] + (["--composite-rule"] if composite else [])
    return {"argv": argv, "level": n, "composite": composite}


def _q_gate(rng):
    n = rng.randint(2, 5000)
    return {"argv": ["--level", n], "level": n}


def _q_gate_pq(rng):
    odd = _primes_between(3, 300)
    while True:
        p, q = rng.sample(odd, 2)
        if p * q > 21:
            return {"argv": ["--p", p, "--q", q], "p": p, "q": q}


def _q_search(rng):
    family = rng.choice(FAMILIES)
    bound = {
        "neumann-setzer": lambda: rng.randint(5, 10**5),
        "2p": lambda: rng.randint(3, 12),
        "8p": lambda: rng.randint(37, 2000),
        "4pq": lambda: rng.randint(11, 1000),
        "z2z4": lambda: rng.randint(21, 200),
    }[family]()
    q = {"argv": ["--family", family, "--bound", bound], "family": family, "bound": bound}
    if family == "4pq":
        q["difference"] = rng.choice((4, 8))
        q["argv"] += ["--difference", q["difference"]]
    return q


def _cremona_model(rng):
    """A Cremona curve moved by a random integral change (u = 1), which keeps
    the discriminant and the conductor."""
    label = rng.choice(sorted(checks.CREMONA))
    a, _ = checks.CREMONA[label]
    r, s, t = (rng.randint(-3, 3) for _ in range(3))
    model = tuple(int(c) for c in checks.transform_model(a, 1, r, s, t))
    return label, model


def _q_tate(rng):
    label, model = _cremona_model(rng)
    p = rng.choice(sorted(checks.factorize(checks.CREMONA[label][1])))
    return {"argv": [f"--curve={_model_arg(model)}", "--p", p], "label": label, "model": model, "p": p}


def _q_conductor(rng):
    label, model = _cremona_model(rng)
    return {"argv": [f"--curve={_model_arg(model)}"], "label": label, "model": model}


def _q_torsion2(rng):
    kind = rng.choice(("split", "one", "none"))
    if kind == "split":
        roots = sorted(rng.sample(range(-9, 10), 3))
        r1, r2, r3 = roots
        model = (0, -(r1 + r2 + r3), 0, r1 * r2 + r1 * r3 + r2 * r3, -r1 * r2 * r3)
    elif kind == "one":
        r, c = rng.randint(-9, 9), rng.randint(1, 20)
        roots = [r]
        model = (0, -r, 0, c, -r * c)  # (x - r)(x^2 + c), c > 0
    else:
        roots = []
        model = checks.CREMONA[rng.choice(("11a1", "37a1", "389a1"))][0]
    return {"argv": [f"--curve={_model_arg(model)}"], "roots": roots}


def _q_curve_transform(rng):
    while True:
        model = tuple(rng.randint(-5, 5) for _ in range(5))
        if checks.discriminant(model) != 0:
            break
    u = rng.choice((1, -1, 2, Fraction(1, 2), 3))
    r, s, t = (Fraction(rng.randint(-4, 4), rng.choice((1, 2))) for _ in range(3))
    argv = [f"--curve={_model_arg(model)}"] + [f"--{k}={v}" for k, v in zip("urst", (u, r, s, t))]
    return {"argv": argv, "model": model, "transform": (u, r, s, t)}


_CLI_GENERATORS = {
    "cusp-order": _q_cusp_order,
    "cusp-group": _q_cusp_group,
    "eta-check": _q_eta,
    "eta-divisor": _q_eta,
    "al-fixed": _q_al_fixed,
    "al-signs": _q_al_signs,
    "gate": _q_gate,
    "gate-pq": _q_gate_pq,
    "search": _q_search,
    "tate": _q_tate,
    "conductor": _q_conductor,
    "torsion2": _q_torsion2,
    "curve-transform": _q_curve_transform,
}


WORKLOADS = ("scan", "scan-par", "levels", "cli")
# Seconds one full-size round takes on the reference machine (2 CPUs); a run
# of S seconds does max(2, round(S / this)) rounds, a count fixed by S alone.
NOMINAL_ROUND_S = {"scan": 2.1, "scan-par": 1.45, "levels": 6.6, "cli": 6.5}


def make(name: str, seed: int, size: str):
    if name == "scan":
        return Scan(name, seed, size, jobs=1)
    if name == "scan-par":
        return Scan(name, seed, size, jobs=2)
    if name == "levels":
        return Levels(name, seed, size)
    if name == "cli":
        return Cli(name, seed, size)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


def rounds_for(name: str, seconds: float, size: str) -> int:
    if size == "small":
        return 2
    return max(2, round(seconds / NOMINAL_ROUND_S[name]))

