"""Fuzz the CLI parsers in-process: every subcommand, on malformed fractions,
zero denominators, huge integers, decimal exponents and wrong entry counts,
either returns a result (exit 0) or fails with exit 1 (domain error) or 2
(usage error), and no exception escapes.  Every ``--flag=value`` drawn is
also run as the two tokens ``--flag value``, with the same exit code and
output, values that start with '-' included: negative curve coefficients,
transforms such as -1/2, sign strings such as -+.

Each subcommand's handler imports its own layers, so each one also runs on a
valid input given as an explicit example.  Searches draw small bounds and
never a `--jobs` above 1, so no process is started.
"""

import contextlib
import io

import pytest
from hypothesis import example, given, settings, strategies as st

from cuspgate import cli

# huge values whose factorizations are quick or refused at once (above the
# deterministic primality bound), so no draw stalls in Pollard rho
HUGE = [
    "2" * 40,
    str(2**64),
    str(10**30),
    str(-(10**30)),
    str(2**89 - 1),
    str(2**61 - 1),
    "9" * 5000,  # past the 4300-digit int parsing limit
]

LEVELS = st.one_of(
    st.integers(-3, 400),
    st.sampled_from([858, 1634, 2310, 30030, 510510, 2**61 - 1, 2**64]),
).map(str)
INTS = st.one_of(st.integers(-50, 200).map(str), st.sampled_from(HUGE))
BAD_INTS = st.sampled_from(["", "x", "1/2", "1.5", " 7", "0x11", "-"])
INT_TEXT = st.one_of(INTS, INTS, BAD_INTS, st.sampled_from([3, 5, 11, 19, 43, 59]).map(str))

# decimal exponents: small ones parse, and ones past the 4300-digit limit are
# refused before the number is built (1e20000000 would take seconds)
EXPONENTS = st.one_of(
    st.integers(-40, 40), st.sampled_from([4301, -4301, 20000000, -20000000, 10**9])
)

FRACTION_TOKENS = st.one_of(
    st.integers(-30, 30).map(str),
    st.tuples(st.integers(-30, 30), st.integers(-4, 4)).map(lambda nd: f"{nd[0]}/{nd[1]}"),
    st.tuples(st.integers(-30, 30), st.sampled_from("eE"), EXPONENTS).map(
        lambda m: f"{m[0]}{m[1]}{m[2]}"
    ),
    st.sampled_from(HUGE),
    st.sampled_from(["", "x", "1/", "/2", "1//2", "0.5", "-3/0", "nan", "inf", " 2 "]),
)


def fraction_list(sizes):
    # a level with t primes takes 2^t entries: favour those counts
    counts = st.one_of(st.sampled_from([2, 4, 8]), st.integers(*sizes))
    return counts.flatmap(
        lambda n: st.lists(FRACTION_TOKENS, min_size=n, max_size=n).map(",".join)
    )


CURVES = st.one_of(
    st.lists(st.integers(-12, 12), min_size=5, max_size=5).map(lambda a: ",".join(map(str, a))),
    fraction_list((0, 6)),
)


def opt(flag, values):
    """``flag=value`` as one token; each draw also runs `spaced`, as two."""
    return values.map(lambda v: [f"{flag}={v}"])


def argv(*parts):
    return st.tuples(*parts).map(lambda ps: [tok for p in ps for tok in p])


SEARCH_BOUNDS = {
    "neumann-setzer": (-5, 400),
    "2p": (-5, 16),
    "8p": (-5, 400),
    "4pq": (-5, 400),
    "z2z4": (-5, 200),
}
SEARCH = st.sampled_from(sorted(SEARCH_BOUNDS)).flatmap(
    lambda family: argv(
        st.just(["--family", family]),
        opt(
            "--bound",
            st.one_of(st.integers(*SEARCH_BOUNDS[family]).map(str), BAD_INTS),
        ),
        st.one_of(st.just([]), opt("--difference", st.sampled_from(["4", "8", "5", "0", "x"]))),
        opt("--jobs", st.sampled_from(["1", "1", "1", "0", "x"])),
        st.sampled_from([[], ["--csv"]]),
    )
)

# ranges below 10^4 of at most 40 levels, some reversed or starting below 1;
# a huge endpoint only where the range is reversed or longer than the cap, so
# it is refused before any level is factored
BIG_LEVELS = [2**61 - 1, 2**64, 10**30, 2**89 - 1]
SURVEY_RANGES = st.one_of(
    st.tuples(st.integers(-3, 10**4 - 40), st.integers(-5, 39)).map(lambda r: (r[0], r[0] + r[1])),
    st.tuples(st.sampled_from(BIG_LEVELS), st.sampled_from([-1, 10**4, -(10**30)])).map(
        lambda r: (r[0], r[0] + r[1])
    ),
    st.tuples(st.integers(-3, 400), st.sampled_from(BIG_LEVELS)),
)
SURVEY = st.one_of(
    SURVEY_RANGES.flatmap(
        lambda r: argv(opt("--min-level", st.just(str(r[0]))), opt("--max-level", st.just(str(r[1]))))
    ),
    argv(opt("--min-level", BAD_INTS), opt("--max-level", INT_TEXT)),
    argv(opt("--min-level", INT_TEXT), opt("--max-level", BAD_INTS)),
)

ARGV = {
    "cusp-order": argv(
        opt("--level", LEVELS),
        st.one_of(
            opt("--signs", st.lists(st.sampled_from("+-+-x"), max_size=4).map("".join)),
            opt("--divisor", fraction_list((0, 9))),
        ),
        st.sampled_from([[], ["--project-2-old"]]),
    ),
    "cusp-group": argv(opt("--level", st.one_of(LEVELS, BAD_INTS))),
    "eta-check": argv(opt("--level", LEVELS), opt("--exponents", fraction_list((0, 9)))),
    "eta-divisor": argv(opt("--level", LEVELS), opt("--exponents", fraction_list((0, 9)))),
    "al-fixed": argv(opt("--level", LEVELS), opt("--r", INT_TEXT)),
    "al-signs": argv(opt("--level", LEVELS), st.sampled_from([[], ["--composite-rule"]])),
    "gate": argv(opt("--level", st.one_of(LEVELS, INT_TEXT))),
    "gate-pq": argv(opt("--p", INT_TEXT), opt("--q", INT_TEXT)),
    "survey": SURVEY,
    "search": SEARCH,
    "tate": argv(opt("--curve", CURVES), opt("--p", INT_TEXT)),
    "conductor": argv(opt("--curve", CURVES)),
    "torsion2": argv(opt("--curve", CURVES)),
    "curve-transform": argv(
        opt("--curve", CURVES),
        *(st.one_of(st.just([]), opt(flag, FRACTION_TOKENS)) for flag in ("--u", "--r", "--s", "--t")),
    ),
}

VALID = {
    "cusp-order": ["--level", "14", "--divisor", "1,0,-1,0", "--project-2-old"],
    "cusp-group": ["--level", "30"],
    "eta-check": ["--level", "15", "--exponents", "1,-1,-1,1"],
    "eta-divisor": ["--level", "11", "--exponents", "2,-2"],
    "al-fixed": ["--level", "15", "--r", "5"],
    "al-signs": ["--level", "105"],
    "gate": ["--level", "36"],
    "gate-pq": ["--p", "3", "--q", "11"],
    "survey": ["--min-level", "11", "--max-level", "15"],
    "search": ["--family", "z2z4", "--bound", "50", "--jobs", "1", "--csv"],
    "tate": ["--curve", "0,-1,1,-10,-20", "--p", "11"],
    "conductor": ["--curve", "-5,-14,-8,-10,-13"],
    "torsion2": ["--curve", "0,23,0,120,0"],
    "curve-transform": ["--curve", "0,-1,1,-10,-20", "--u", "-1/2", "--r", "3"],
}


def run_cli(args: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(args)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    assert "Traceback" not in err.getvalue()
    return code, out.getvalue()


def spaced(args: list[str]) -> list[str] | None:
    """``args`` with each ``--flag=value`` token split into ``--flag value``, or
    None when a value is ``--``, which argparse takes as the end of the
    options in the spaced form."""
    out = []
    for tok in args:
        flag, sep, value = tok.partition("=")
        if not (sep and flag.startswith("--")):
            out.append(tok)
        elif value == "--":
            return None
        else:
            out += [flag, value]
    return out


def test_fuzz_covers_every_handler():
    handlers = {obj for name, obj in vars(cli).items() if name.startswith("_cmd_")}
    parser = cli._build_parser()
    assert {parser.parse_args([sub, *args]).handler for sub, args in VALID.items()} == handlers
    assert set(ARGV) == set(VALID)


@pytest.mark.parametrize("sub", sorted(ARGV))
def test_cli_exits_0_1_or_2(sub):
    codes = []

    @settings(max_examples=60, deadline=None, database=None)
    @example(VALID[sub])
    @given(ARGV[sub])
    def run(args):
        code, out = run_cli([sub, *args])
        assert code in (0, 1, 2), (args, code)
        codes.append(code)
        two_tokens = spaced(args)
        if two_tokens is not None:
            assert run_cli([sub, *two_tokens]) == (code, out), (args, two_tokens)

    run()
    assert 0 in codes  # the handler ran to a result on the valid input
