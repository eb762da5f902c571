import pytest
from hypothesis import given, settings, strategies as st

from atkin_lehner_oracle import is_qr
from cuspgate.arith import factor, is_prime
from cuspgate.cusps import SquarefreeLevel
from cuspgate.gates import (
    KNOWN_ODD_NONSEMISTABLE,
    gate_nonsemistable,
    gate_pq_refined,
    gate_squarefree,
)


def test_gate_squarefree_frozen():
    assert gate_squarefree(11).passed
    assert gate_squarefree(2).passed
    assert gate_squarefree(14).passed  # p = 7 = 7 (mod 16)
    assert gate_squarefree(26).passed  # p = 13
    assert gate_squarefree(10).passed  # p = 5
    assert not gate_squarefree(34).passed  # p = 17 = 1 (mod 16)
    assert not gate_squarefree(6).passed  # p = 3 = 3 (mod 16)
    assert gate_squarefree(33).passed  # 3 = 3 (8), 11 = 3 (4)
    assert not gate_squarefree(65).passed  # 5*13: no valid ordering
    assert not gate_squarefree(30).passed  # three primes
    assert not gate_squarefree(210).passed
    assert not gate_squarefree(1).passed


def test_gate_squarefree_data():
    g = gate_squarefree(14)
    assert g.data_dict() == {"p": 7, "p_mod_16": 7}
    g33 = gate_squarefree(33)
    assert g33.data_dict()["p"] == 3 and g33.data_dict()["q"] == 11


def test_gate_squarefree_validation():
    with pytest.raises(ValueError):
        gate_squarefree(12)  # not square-free: wrong entry point
    with pytest.raises(ValueError):
        gate_squarefree(0)


def test_2p_gate_matches_residue_class():
    for p in range(3, 1000, 2):
        if not is_prime(p):
            continue
        assert gate_squarefree(2 * p).passed == (p % 16 in (5, 7, 13))


def test_2p_gate_residues_match_qr_characterization():
    # p = 5, 7, 13 (mod 16) <=> p != +-1 (mod 16) and -2 is not a QR mod p
    for p in range(3, 2000, 2):
        if not is_prime(p):
            continue
        lhs = p % 16 in (5, 7, 13)
        rhs = p % 16 not in (1, 15) and not is_qr(-2, p)
        assert lhs == rhs, p


def test_odd_pq_gate_orderings():
    # 3*11 passes via the (3, 11) ordering; 11*17 has no passing ordering
    assert gate_squarefree(33).passed
    assert gate_squarefree(21).passed  # (3, 7): 3 = 3 (8), 7 = 3 (4)
    assert not gate_squarefree(187).passed  # 11 * 17
    assert gate_squarefree(15).passed  # (5, 3): 5 = -3 (8), 3 = 3 (4)
    assert gate_squarefree(35).passed  # (5, 7): 5 = -3 (8), 7 = 3 (4)


def test_gate_pq_refined_frozen():
    g = gate_pq_refined(3, 11)
    assert g.passed
    assert g.data_dict() == {
        "order_minus_minus": 5,
        "order_minus_plus": 1,
        "order_plus_minus": 5,
        "p": 3,
        "q": 11,
    }
    g2 = gate_pq_refined(3, 13)
    assert not g2.passed
    assert g2.data_dict()["order_minus_plus"] == 7


def test_gate_pq_refined_is_symmetric_rule():
    # pass iff p = q = 3 (mod 8)
    pairs = [(3, 11), (11, 19), (19, 43), (3, 19), (11, 43)]
    for p, q in pairs:
        assert gate_pq_refined(p, q).passed
    for p, q in [(3, 13), (5, 7), (7, 11), (5, 13), (13, 29), (3, 7)]:
        if p * q > 21:
            assert not gate_pq_refined(p, q).passed


def test_gate_pq_refined_parity_equivalence():
    # the three divisor orders are all odd exactly on a pass
    for p in (3, 5, 7, 11, 13, 19, 23, 29, 31, 43):
        for q in (3, 5, 7, 11, 13, 19, 23, 29, 31, 43):
            if p == q or p * q <= 21:
                continue
            g = gate_pq_refined(p, q)
            orders = [v for k, v in g.data_dict().items() if k.startswith("order")]
            assert g.passed == all(o % 2 == 1 for o in orders)


def test_gate_pq_refined_validation():
    with pytest.raises(ValueError):
        gate_pq_refined(3, 5)  # pq <= 21
    with pytest.raises(ValueError):
        gate_pq_refined(3, 7)  # pq = 21 still out of scope
    with pytest.raises(ValueError):
        gate_pq_refined(3, 3)
    with pytest.raises(ValueError):
        gate_pq_refined(2, 11)
    with pytest.raises(ValueError):
        gate_pq_refined(9, 11)


def test_gate_nonsemistable_whitelist():
    assert KNOWN_ODD_NONSEMISTABLE == (27, 32, 36, 49, 243)
    for n in KNOWN_ODD_NONSEMISTABLE:
        g = gate_nonsemistable(n)
        assert g.passed
        assert g.data_dict()["known_odd_congruence"] == 1


def test_gate_nonsemistable_frozen():
    g12 = gate_nonsemistable(12)
    assert g12.passed and g12.data_dict() == {
        "known_odd_congruence": 0,
        "odd_part": 3,
        "two_part": 4,
    }
    assert gate_nonsemistable(8).passed  # pure power of two
    assert gate_nonsemistable(1024).passed
    assert gate_nonsemistable(200).passed  # 8 * 25
    assert not gate_nonsemistable(18).passed  # 2-part 2
    assert not gate_nonsemistable(48).passed  # 2-part 16
    assert not gate_nonsemistable(75).passed  # odd part 3 * 25
    assert not gate_nonsemistable(180).passed


def test_gate_nonsemistable_validation():
    with pytest.raises(ValueError):
        gate_nonsemistable(15)  # square-free: wrong entry point
    with pytest.raises(ValueError):
        gate_nonsemistable(1)


@settings(max_examples=200)
@given(st.integers(2, 10**5))
def test_gate_dispatch_covers_every_level(n):
    if factor(n).is_squarefree():
        verdict = gate_squarefree(n)
        with pytest.raises(ValueError):
            gate_nonsemistable(n)
    else:
        verdict = gate_nonsemistable(n)
        with pytest.raises(ValueError):
            gate_squarefree(n)
    assert verdict.level == n
    assert isinstance(verdict.passed, bool)
    assert verdict.reasons


def _trial_factor(m: int) -> list[tuple[int, int]]:
    pairs, d = [], 2
    while d * d <= m:
        e = 0
        while m % d == 0:
            m //= d
            e += 1
        if e:
            pairs.append((d, e))
        d += 1
    return pairs + ([(m, 1)] if m > 1 else [])


def test_gate_nonsemistable_matches_trial_division_below_5000():
    """Every non-square-free N < 5000 against a division loop for the
    2-part and trial division for the odd part."""
    for n in range(2, 5000):
        pairs = _trial_factor(n)
        if all(e == 1 for _, e in pairs):
            continue
        c, m = 0, n
        while m % 2 == 0:
            m //= 2
            c += 1
        odd = _trial_factor(m)
        g = gate_nonsemistable(n)
        assert g.data_dict() == {
            "known_odd_congruence": int(n in KNOWN_ODD_NONSEMISTABLE),
            "odd_part": m,
            "two_part": 2**c,
        }
        assert g.passed == (len(odd) == 0 or (len(odd) == 1 and c in (0, 2, 3)))
        assert len(g.reasons) == 1
        if g.passed and odd:
            (p, s), = odd
            assert g.reasons[0] == f"N = {2**c} * {p}^{s} with admissible 2-part"
        elif len(odd) > 1:
            assert g.reasons[0].startswith(f"odd part {m} has {len(odd)} prime factors")


def _outcome(f, level):
    """What f gives on a level: its result, or the type and message it raises."""
    try:
        return f(level)
    except ValueError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize(
    "entry",
    [gate_squarefree, gate_nonsemistable, SquarefreeLevel.of],
    ids=["gate_squarefree", "gate_nonsemistable", "SquarefreeLevel.of"],
)
def test_int_and_factorization_entries_agree(entry):
    """Each level entry point gives the same verdict or level, or raises the
    same message, whether it is passed n or factor(n)."""
    for n in [*range(1, 3000), 30030, 510510, 4849845]:
        assert _outcome(entry, n) == _outcome(entry, factor(n)), n
