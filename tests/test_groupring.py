import itertools
import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from cwm.groupring import (
    GroupRingElement,
    WitnessFormatError,
    canonical_form,
    conjugate,
    element,
    fold,
    from_support,
    multiply,
    power_map,
    proper_decomposition,
    shift,
    verify,
    weight,
    witness_format,
    witness_parse,
)
from cwm.numbertheory import orbits


def naive_convolution(a, b):
    n = a.order
    out = [0] * n
    for i in range(n):
        for j in range(n):
            out[(i + j) % n] += a.coeffs[i] * b.coeffs[j]
    return GroupRingElement(n, tuple(out))


class TestMultiply:
    def test_defining_product_is_k(self, cw7):
        prod = multiply(cw7, conjugate(cw7))
        assert prod.coeffs == (4, 0, 0, 0, 0, 0, 0)

    def test_identity(self, cw7):
        assert multiply(cw7, from_support(7, [0])) == cw7

    def test_matches_naive_convolution_oracle(self):
        rng = random.Random(12)
        for _ in range(25):
            a = element(12, [rng.randint(-3, 3) for _ in range(12)])
            b = element(12, [rng.randint(-3, 3) for _ in range(12)])
            assert multiply(a, b) == naive_convolution(a, b)

    def test_commutative(self):
        rng = random.Random(5)
        for _ in range(10):
            a = element(9, [rng.randint(-2, 2) for _ in range(9)])
            b = element(9, [rng.randint(-2, 2) for _ in range(9)])
            assert multiply(a, b) == multiply(b, a)

    def test_order_mismatch_rejected(self, cw7):
        with pytest.raises(ValueError):
            multiply(cw7, from_support(8, [0]))


class TestPowerMap:
    def test_two_fixes_the_weight4_matrix(self, cw7):
        assert power_map(cw7, 2) == cw7

    def test_t_one_is_identity(self, cw7):
        assert power_map(cw7, 1) == cw7

    def test_negative_exponent_by_hand(self, cw7):
        assert power_map(cw7, -1) == from_support(7, positives=[3, 5, 6], negatives=[0])

    def test_homomorphism_under_coprime_maps(self):
        rng = random.Random(99)
        for t in (5, 7, 11):
            a = element(12, [rng.randint(-2, 2) for _ in range(12)])
            b = element(12, [rng.randint(-2, 2) for _ in range(12)])
            lhs = multiply(power_map(a, t), power_map(b, t))
            assert lhs == power_map(multiply(a, b), t)

    def test_noncoprime_map_collapses_onto_subgroup(self, cw7):
        a = power_map(cw7, 7)  # everything lands on index 0
        assert a.coeffs[0] == sum(cw7.coeffs)
        assert all(c == 0 for c in a.coeffs[1:])


class TestConjugate:
    def test_involution(self, cw7):
        assert conjugate(conjugate(cw7)) == cw7

    def test_delta_fixed(self):
        assert conjugate(from_support(9, [0])) == from_support(9, [0])


class TestFold:
    def test_order63_onto_9_is_trivial(self, cw63):
        b = fold(cw63, 9)
        assert b.coeffs == (4, 0, 0, 0, 0, 0, 0, 0, 0)

    def test_order63_onto_7(self, cw63):
        b = fold(cw63, 7)
        assert b.coeffs == (1, 2, 2, -1, 2, -1, -1)
        # constant on the orbits of 2 mod 7 with values (1, 2, -1)
        assert b.coeffs[1] == b.coeffs[2] == b.coeffs[4] == 2
        assert b.coeffs[3] == b.coeffs[5] == b.coeffs[6] == -1

    def test_fold_by_order_is_identity(self, cw63):
        assert fold(cw63, 63) == cw63

    def test_nondivisor_rejected(self, cw63):
        with pytest.raises(ValueError):
            fold(cw63, 8)

    def test_tower_property(self, cw63):
        assert fold(fold(cw63, 21), 7) == fold(cw63, 7)
        assert fold(fold(cw63, 9), 3) == fold(cw63, 3)

    def test_coefficient_sum_preserved(self, cw63, cw13):
        for a in (cw63, cw13):
            for m in (1, a.order):
                assert sum(fold(a, m).coeffs) == sum(a.coeffs)
        assert sum(fold(cw63, 7).coeffs) == sum(cw63.coeffs)

    def test_moment_identities_on_valid_matrices(self, cw63):
        # every divisor: fold sums to s and its squares sum to k
        for m in (1, 3, 7, 9, 21, 63):
            b = fold(cw63, m)
            assert sum(b.coeffs) == 4
            assert sum(c * c for c in b.coeffs) == 16


class TestVerify:
    def test_weight4_order7(self, cw7):
        assert verify(cw7, 4, 1)

    def test_wrong_k(self, cw7):
        assert not verify(cw7, 5, 1)

    def test_proper_order26(self, cw26_proper):
        assert verify(cw26_proper, 9, 1)

    def test_bound_applies(self, cw7):
        doubled = element(7, [2 * c for c in cw7.coeffs])
        assert not verify(doubled, 16, 1)
        assert verify(doubled, 16, 2)

    def test_invariant_under_equivalence_group(self, cw13):
        assert verify(shift(cw13, 5), 9, 1)
        assert verify(power_map(cw13, 2), 9, 1)
        assert verify(from_support(13, cw13.negatives, cw13.positives), 9, 1)


class TestWeight:
    def test_weighing_matrices(self, cw7, cw13):
        assert weight(cw7) == 4
        assert weight(cw13) == 9
        assert weight(element(7, [2 * c for c in cw7.coeffs])) == 16
        assert weight(element(5, [0] * 5)) == 0

    def test_off_peak_product_gives_none(self):
        assert weight(element(7, [1, 1, 1, 1, 0, 0, 0])) is None

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 12).flatmap(
        lambda n: st.lists(st.integers(-2, 2), min_size=n, max_size=n)
    ))
    def test_matches_naive_product(self, coeffs):
        a = element(len(coeffs), coeffs)
        prod = naive_convolution(a, conjugate(a)).coeffs
        assert weight(a) == (None if any(prod[1:]) else prod[0])


# witnesses are long and sparse: orders up to 2000 with at most 40 terms
sparse_elements = st.integers(1, 2000).flatmap(
    lambda n: st.dictionaries(
        st.integers(0, n - 1), st.integers(-3, 3), max_size=40
    ).map(lambda terms: element(n, [terms.get(i, 0) for i in range(n)]))
)


def with_order_one(**extra):
    """Add the order-1 elements 0, 1 and -3 as explicit examples."""
    def decorate(test):
        for c in (0, 1, -3):
            test = example(a=element(1, [c]), **extra)(test)
        return test
    return decorate


class TestSparseKernelOracles:
    """The support-only kernels against the dense expressions they replace."""

    @settings(max_examples=40, deadline=None)
    @with_order_one()
    @given(a=sparse_elements)
    def test_weight(self, a):
        prod = naive_convolution(a, conjugate(a)).coeffs
        assert weight(a) == (None if any(prod[1:]) else prod[0])

    @settings(max_examples=200, deadline=None)
    @with_order_one()
    @given(a=sparse_elements)
    def test_max_abs_coeff(self, a):
        assert a.max_abs_coeff() == max((abs(c) for c in a.coeffs), default=0)

    @settings(max_examples=200, deadline=None)
    @with_order_one()
    @given(a=sparse_elements)
    def test_support(self, a):
        assert a.support == tuple(i for i, c in enumerate(a.coeffs) if c)

    @settings(max_examples=200, deadline=None)
    @with_order_one(t=-1)
    @given(a=sparse_elements, t=st.integers(-4000, 4000))
    def test_power_map(self, a, t):
        n = a.order
        out = [0] * n
        for i, c in enumerate(a.coeffs):
            if c:
                out[(i * t) % n] += c
        assert power_map(a, t).coeffs == tuple(out)


class TestWeightProfile:
    def test_found_matrices_match_profile(self, cw7, cw13, cw63):
        # a CW(n, s^2) has (k + s) / 2 entries of one sign, (k - s) / 2 of the other
        for a, s in ((cw7, 2), (cw13, 3), (cw63, 4)):
            k = s * s
            pos, neg = len(a.positives), len(a.negatives)
            if pos < neg:
                pos, neg = neg, pos
            assert (pos, neg) == ((k + s) // 2, (k - s) // 2)


class TestEquivalence:
    def test_constructed_in_orbit(self, cw7):
        other = shift(power_map(cw7, 3), 2)
        assert canonical_form(cw7) == canonical_form(other)

    def test_negation_included(self, cw7):
        assert canonical_form(cw7) == canonical_form(from_support(7, cw7.negatives, cw7.positives))

    def test_canonical_idempotent(self, cw7, cw13):
        for a in (cw7, cw13):
            c = canonical_form(a)
            assert canonical_form(c) == c

    def test_canonical_constant_on_orbit(self, cw13):
        canon = canonical_form(cw13)
        for t in (2, 5):
            assert canonical_form(shift(power_map(cw13, t), 7)) == canon

    def test_inequivalent_pair(self, cw13):
        # a second valid weight-9 matrix of order 13 in a different class
        # (the full 3^13 enumeration finds exactly two classes)
        a = from_support(13, positives=[1, 3, 9, 2, 6, 5], negatives=[4, 12, 10])
        assert verify(a, 9, 1)
        assert canonical_form(cw13) != canonical_form(a)


def canonical_form_oracle(a):
    """The earlier canonical_form: every rotation of every unit image and
    its negation, built index by index.  Units are taken from 1..n so that
    Z_1, whose only unit is 0 = 1, has one."""
    n = a.order
    best = None
    for t in (u for u in range(1, n + 1) if math.gcd(u, n) == 1):
        mapped = [0] * n
        for i, ai in enumerate(a.coeffs):
            if ai:
                mapped[(i * t) % n] = ai
        for sign in (1, -1):
            vec = mapped if sign == 1 else [-c for c in mapped]
            for s in range(n):
                rot = tuple(vec[(i - s) % n] for i in range(n))
                if best is None or rot < best:
                    best = rot
    return GroupRingElement(n, best)


class TestCanonicalFormOracle:
    @settings(max_examples=200, deadline=None)
    @given(coeffs=st.lists(st.integers(-2, 2), min_size=1, max_size=16))
    def test_matches_oracle(self, coeffs):
        a = element(len(coeffs), coeffs)
        assert canonical_form(a) == canonical_form_oracle(a)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_oracle_on_multiplier_fixed_elements(self, data):
        # an element fixed by X -> X^t repeats each unit image |<t>| times
        n = data.draw(st.integers(1, 30))
        t = data.draw(st.sampled_from([u for u in range(1, n + 1) if math.gcd(u, n) == 1]))
        part = orbits(n, t)
        values = data.draw(st.lists(st.integers(-2, 2), min_size=len(part), max_size=len(part)))
        a = GroupRingElement(n, part.expand(values))
        assert canonical_form(a) == canonical_form_oracle(a)

    @pytest.mark.parametrize("coeffs", [(0,), (1,), (-2,), (1, 0), (0, -1), (1, -1)])
    def test_orders_one_and_two(self, coeffs):
        a = element(len(coeffs), coeffs)
        assert canonical_form(a) == canonical_form_oracle(a)

    def test_fixtures_match_oracle(self, cw7, cw13, cw26_proper, cw63):
        for a in (cw7, cw13, cw26_proper, cw63):
            assert canonical_form(a) == canonical_form_oracle(a)


class TestBruteForceOracle:
    def test_order7_weight4_single_class(self, cw7):
        classes = set()
        for coeffs in itertools.product((-1, 0, 1), repeat=7):
            a = GroupRingElement(7, coeffs)
            if verify(a, 4, 1):
                classes.add(canonical_form(a).coeffs)
        assert classes == {canonical_form(cw7).coeffs}


class TestProperDecomposition:
    def test_multiple_recovers_factor(self, cw26_multiple, cw13):
        d, b = proper_decomposition(cw26_multiple)
        assert d == 2
        assert verify(b, 9, 1)
        assert canonical_form(b) == canonical_form(cw13)

    def test_proper_returns_none(self, cw13, cw26_proper):
        assert proper_decomposition(cw13) is None
        assert proper_decomposition(cw26_proper) is None

    def test_prime_order_weight4(self, cw7):
        assert proper_decomposition(cw7) is None

    def test_rejects_non_icw(self):
        with pytest.raises(ValueError):
            proper_decomposition(element(6, [1, 1, 0, 0, 0, 0]))


def old_str(a):
    """GroupRingElement.__str__ as it stood with its two fallback branches."""
    terms = []
    for i, c in enumerate(a.coeffs):
        if not c:
            continue
        mag = "" if abs(c) == 1 else str(abs(c))
        base = "1" if i == 0 and abs(c) == 1 else ("" if i == 0 else f"X^{i}")
        txt = (mag + base) or "1"
        terms.append(("-" if c < 0 else "+") + txt)
    if not terms:
        return "0"
    out = " ".join(terms)
    return out[1:] if out.startswith("+") else ("-" + out[2:] if out.startswith("- ") else out)


class TestStr:
    def test_matches_old_method(self):
        rng = random.Random(20)
        for _ in range(3000):
            n = rng.randint(1, 12)
            a = element(n, (rng.choice((0, 0, 1, -1, 2, -3, 11)) for _ in range(n)))
            assert str(a) == old_str(a), a.coeffs


class TestWitnessFormat:
    def test_round_trip(self, cw63):
        text = witness_format(cw63, 16)
        elem, k, bound = witness_parse(text)
        assert (elem, k, bound) == (cw63, 16, 1)

    def test_header_shape(self, cw7):
        lines = witness_format(cw7, 4).splitlines()
        assert lines[0] == "CW 7 4 1"
        assert lines[1] == "-1 1 1 0 1 0 0"

    @pytest.mark.parametrize(
        "text",
        [
            "CW 7 4 1\n-1 1 1 0 1 0\n",  # wrong count
            "CW 7 4 1\n-2 1 1 0 1 0 0\n",  # out of bound
            "CW 7 4 1\n2 1 1 0 1 0 0\n",  # out of bound, positive
            "CW 7 4 2\n3 1 1 0 1 0 0\n",  # out of a bound above 1
            "XX 7 4 1\n-1 1 1 0 1 0 0\n",  # bad magic
            "CW 7 4\n-1 1 1 0 1 0 0\n",  # short header
            "CW 7 4 1\n",  # missing body
        ],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(WitnessFormatError):
            witness_parse(text)


# coefficient vectors with their bound: zero-heavy, and negatives at every bound
bounded_vectors = st.integers(1, 3).flatmap(
    lambda bound: st.tuples(
        st.just(bound),
        st.lists(st.just(0) | st.integers(-bound, bound), min_size=1, max_size=80),
    )
)


class TestWitnessCodec:
    """The table-driven codec against the int()/str() path it stands in for."""

    @settings(max_examples=300, deadline=None)
    @example(data=(1, [0]), k=1)
    @example(data=(1, [-1] * 9), k=4)
    @example(data=(3, [-3, 0, 3, 2, -2]), k=26)
    @given(data=bounded_vectors, k=st.integers(1, 10**6))
    def test_round_trip(self, data, k):
        _, coeffs = data
        a = element(len(coeffs), coeffs)
        assert witness_parse(witness_format(a, k)) == (a, k, max(1, a.max_abs_coeff()))

    # the header bound is the largest absolute coefficient, 1 at least
    @settings(max_examples=300, deadline=None)
    @example(data=(2, [2, -2, 0, 1, -1]), k=9)
    @example(data=(3, [0, -3, 1]), k=10)
    @given(data=bounded_vectors, k=st.integers(1, 10**6))
    def test_format_matches_str_oracle(self, data, k):
        _, coeffs = data
        text = witness_format(element(len(coeffs), coeffs), k)
        bound = max(1, *map(abs, coeffs))
        assert text == f"CW {len(coeffs)} {k} {bound}\n" + " ".join(str(c) for c in coeffs) + "\n"

    @pytest.mark.parametrize(
        "body",
        [
            "+1 01 -0 1 0 0 -1",
            "-01 +0 1 0 0 0 00",
            "1\t0  -1\t\t0 1   0 0",
            "  -1 1\t1 0 +1  0 0 ",
        ],
        ids=["plus-and-leading-zero", "signed-zeros", "tabs-and-spaces", "mixed"],
    )
    def test_other_tokens_parse_as_int(self, body):
        elem, k, bound = witness_parse(f"CW 7 4 1\n{body}\n")
        assert (elem.coeffs, k, bound) == (tuple(int(tok) for tok in body.split()), 4, 1)

    @pytest.mark.parametrize("token", ["1.0", "x"])
    def test_non_integer_token(self, token):
        with pytest.raises(WitnessFormatError, match="^non-integer coefficient$"):
            witness_parse(f"CW 7 4 1\n-1 1 1 0 {token} 0 0\n")

    def test_bound_held_on_the_int_path(self):
        with pytest.raises(WitnessFormatError, match="^coefficient exceeds bound 1$"):
            witness_parse("CW 7 4 1\n-1 1 1 0 2 0 0\n")
        elem, _, bound = witness_parse("CW 7 4 2\n-1 1 1 0 2 0 0\n")
        assert (elem.coeffs, bound) == ((-1, 1, 1, 0, 2, 0, 0), 2)

    @pytest.mark.parametrize(
        "body,message",
        [
            ("x 1", "non-integer coefficient"),  # the token before the count
            ("2 1", "expected 7 coefficients, got 2"),  # the count before the bound
            ("1 0", "expected 7 coefficients, got 2"),
        ],
    )
    def test_error_order(self, body, message):
        with pytest.raises(WitnessFormatError, match=f"^{message}$"):
            witness_parse(f"CW 7 4 1\n{body}\n")
