import importlib.resources

import pytest

from cwm.constructions import (
    CW7_4,
    _doubling,
    cw14m_family,
    kronecker,
    multiple,
    prime_powers_up_to,
    rds_proper_parameters,
    type_ii,
)
from cwm.groupring import (
    GroupRingElement,
    canonical_form,
    from_support,
    proper_decomposition,
    shift,
    verify,
    weight,
    witness_parse,
)


def type_ii_oracle(b, c):
    """type_ii as the index formulas wrote (1 - X^n) B + (1 + X^n) C(X^2)
    before it went through the one doubling sum."""
    if b.order != 2 * c.order:
        raise ValueError("orders")
    n, n2 = c.order, b.order
    kb, kc = weight(b), weight(c)
    if kb is None or kc is None or kb != kc:
        raise ValueError("weights")
    parts = [
        set(b.support),
        {(i + n) % n2 for i in b.support},
        {(2 * i) % n2 for i in c.support},
        {(2 * i + n) % n2 for i in c.support},
    ]
    if any(parts[x] & parts[y] for x in range(4) for y in range(x + 1, 4)):
        raise ValueError("overlap")
    coeffs = [0] * n2
    for i, v in enumerate(b.coeffs):
        if v:
            coeffs[i] += v
            coeffs[(i + n) % n2] -= v
    for i, v in enumerate(c.coeffs):
        if v:
            coeffs[(2 * i) % n2] += v
            coeffs[(2 * i + n) % n2] += v
    out = GroupRingElement(n2, tuple(coeffs))
    if not verify(out, 4 * kb, 1):
        raise AssertionError("verification")
    return out


def cw14m_oracle(m):
    """cw14m_family as its own index loop wrote it before it went through
    the one doubling sum."""
    n = 14 * m
    coeffs = [0] * n
    for i, v in enumerate(CW7_4.coeffs):
        if not v:
            continue
        coeffs[(2 * m * i) % n] += v
        coeffs[(2 * m * i + 7 * m) % n] -= v
        coeffs[(m * i + 1) % n] += v
        coeffs[(m * i + 1 + 7 * m) % n] += v
    return GroupRingElement(n, tuple(coeffs))


def outcome(build, *args):
    """build(*args), or the class of the exception it raises."""
    try:
        return build(*args)
    except (ValueError, AssertionError) as exc:
        return type(exc)


class TestMultiple:
    def test_order26_from_order13(self, cw13, cw26_multiple):
        lifted = multiple(cw13, 2)
        assert verify(lifted, 9, 1)
        assert canonical_form(lifted) == canonical_form(cw26_multiple)

    def test_d_one_is_identity(self, cw13):
        assert multiple(cw13, 1) == cw13

    def test_round_trip_through_decomposition(self, cw7):
        lifted = multiple(cw7, 3)
        d, b = proper_decomposition(lifted)
        assert d == 3
        assert canonical_form(b) == canonical_form(cw7)


class TestKronecker:
    def test_7_by_13(self, cw7, cw13):
        prod = kronecker(cw7, cw13)
        assert prod.order == 91
        assert verify(prod, 36, 1)

    def test_identity_factor(self, cw7):
        prod = kronecker(cw7, from_support(9, [0]))
        assert verify(prod, 4, 1)

    def test_symmetric_up_to_equivalence(self, cw7, cw13):
        a = kronecker(cw7, cw13)
        b = kronecker(cw13, cw7)
        assert canonical_form(a) == canonical_form(b)

    def test_preserves_properness(self, cw7, cw13):
        prod = kronecker(cw7, cw13)
        assert proper_decomposition(prod) is None

    def test_noncoprime_rejected(self, cw7):
        with pytest.raises(ValueError):
            kronecker(cw7, multiple(cw7, 2))

    def test_all_coprime_witness_pairs(self, cw7, cw13, cw63):
        pairs = [(cw7, cw13, 36), (cw13, cw63, 144)]
        for a, b, k in pairs:
            assert verify(kronecker(a, b), k, 1)


class TestTypeII:
    def test_weight16_order42_instance(self, cw7):
        # B = X * C(X^6) on Z_42, C = C(X^3) on Z_21: supports disjoint
        b = shift(multiple(cw7, 6), 1)
        c = multiple(cw7, 3)
        out = type_ii(b, c)
        assert out.order == 42
        assert verify(out, 16, 1)

    def test_overlapping_supports_rejected(self, cw7):
        b = multiple(cw7, 2)  # on Z_14; C(X^2) has the same even support
        with pytest.raises(ValueError, match="supports of B and D overlap at"):
            type_ii(b, cw7)

    def test_doubling_names_both_overlapping_summands(self, cw7):
        b = multiple(cw7, 2)
        overlap = r"supports of B and X\^n D overlap at \[0, 2, 4, 8\]"
        with pytest.raises(ValueError, match=overlap):
            _doubling(b, shift(b, 7), 4)

    def test_matches_index_formula_oracle(self):
        # every (B of order 2n, C of order n) among shifts 0..11 of the
        # multiples 1..8 of the bundled witnesses and CW(7,4)
        witnesses = importlib.resources.files("cwm").joinpath("data", "witnesses")
        bases = [CW7_4] + [
            witness_parse(witnesses.joinpath(name).read_text())[0]
            for name in ("cw7_4.cw", "cw13_9.cw", "cw26_9.cw", "cw63_16.cw")
        ]
        elems = [shift(multiple(a, d), s) for a in bases for d in range(1, 9) for s in range(12)]
        pairs = [(b, c) for b in elems for c in elems if b.order == 2 * c.order]
        assert len(pairs) == 5472
        rejected = 0
        for b, c in pairs:
            expect = outcome(type_ii_oracle, b, c)
            assert outcome(type_ii, b, c) == expect, (b, c)
            rejected += not isinstance(expect, GroupRingElement)
        assert rejected == 2449

    def test_weight_count_of_output(self, cw7):
        b = shift(multiple(cw7, 6), 1)
        out = type_ii(b, multiple(cw7, 3))
        # 4k = 16 with row sum 2s = 4: ten positives, six negatives
        pos, neg = len(out.positives), len(out.negatives)
        if pos < neg:
            pos, neg = neg, pos
        assert (pos, neg) == (10, 6)

    def test_mismatched_orders_rejected(self, cw7, cw13):
        with pytest.raises(ValueError):
            type_ii(cw7, cw13)

    def test_integer_inputs(self):
        # ICW_2(4,4) and ICW_2(2,4): each output coefficient is one input
        # coefficient, so the sum is an ICW_2 of weight 16
        b, c = GroupRingElement(4, (0, 2, 0, 0)), GroupRingElement(2, (2, 0))
        out = type_ii(b, c)
        assert out.coeffs == (2, 2, 2, -2)
        assert verify(out, 16, 2) and not verify(out, 16, 1)


class TestFamily14m:
    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_members_verify_and_are_proper(self, m):
        a = cw14m_family(m)
        assert a.order == 14 * m
        assert verify(a, 16, 1)
        assert proper_decomposition(a) is None

    def test_key_exponents_nonzero(self):
        for m in (2, 3, 5):
            a = cw14m_family(m)
            for e in (0, 1, 2 * m, 7 * m):
                assert a.coeffs[e] != 0

    def test_matches_index_formula_oracle(self):
        for m in range(2, 151):
            assert cw14m_family(m) == cw14m_oracle(m), m

    def test_m_below_two_rejected(self):
        with pytest.raises(ValueError):
            cw14m_family(1)


class TestRdsParameters:
    def test_small_prime_powers(self):
        params = rds_proper_parameters(9)
        assert (7, 4) in params
        assert (13, 9) in params
        assert (21, 16) in params and (63, 16) in params
        assert (31, 25) in params and (62, 25) in params
        assert (57, 49) in params and (114, 49) in params and (171, 49) in params
        assert (73, 64) in params and (511, 64) in params
        assert (91, 81) in params and (182, 81) in params and (364, 81) in params

    def test_odd_q_excludes_full_group(self):
        # n = 1 would give (q^3-1, q^2); only allowed for even q
        params = rds_proper_parameters(9)
        assert (26, 9) not in params
        assert (7**3 - 1, 49) not in params
        assert (511, 64) in params  # q = 8 even keeps n = 1

    def test_prime_power_list(self):
        assert prime_powers_up_to(10) == [2, 3, 4, 5, 7, 8, 9]
