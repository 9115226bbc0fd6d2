import math

import pytest

from cwm.numbertheory import (
    coprime_factor_pairs,
    coprime_part,
    crt_combine,
    factorize,
    is_prime_power,
    is_self_conjugate,
    mcfarland_multiplier,
    multiplicative_order,
    orbits,
    powers,
    prime_power_multiplier,
    self_conjugacy_divisor,
    theorem_multipliers,
)


class TestOrbits:
    def test_mod7_under_2(self):
        p = orbits(7, 2)
        assert [m for _, m in p.orbits] == [(0,), (1, 2, 4), (3, 5, 6)]

    def test_mod11_under_3(self):
        p = orbits(11, 3)
        assert [m for _, m in p.orbits] == [(0,), (1, 3, 4, 5, 9), (2, 6, 7, 8, 10)]

    def test_identity_multiplier(self):
        p = orbits(10, 1)
        assert len(p) == 10
        assert all(len(m) == 1 for _, m in p.orbits)

    def test_partition_covers_everything(self):
        for n, t in ((63, 2), (110, 3), (44, 3), (91, 2)):
            p = orbits(n, t)
            assert sum(p.sizes) == n
            covered = sorted(x for _, mem in p.orbits for x in mem)
            assert covered == list(range(n))

    def test_orbit_of_zero_is_singleton_first(self):
        p = orbits(52, 3)
        assert p.orbits[0] == (0, (0,))

    def test_orbit_size_formula(self):
        for n, t in ((63, 2), (110, 3), (130, 3)):
            p = orbits(n, t)
            for rep, members in p.orbits:
                sub = n // math.gcd(rep, n)
                assert len(members) == multiplicative_order(t, sub)

    def test_noncoprime_rejected(self):
        with pytest.raises(ValueError):
            orbits(10, 5)

    def test_error_names_the_multiplier_given(self):
        with pytest.raises(ValueError, match="^multiplier 15 is not coprime to 10$"):
            orbits(10, 15)


class TestMultiplicativeOrder:
    def test_small(self):
        assert multiplicative_order(2, 7) == 3

    def test_identity(self):
        for n in (2, 9, 44):
            assert multiplicative_order(1, n) == 1

    def test_census_column(self):
        assert multiplicative_order(2, 91) == 12

    def test_noncoprime_rejected(self):
        with pytest.raises(ValueError):
            multiplicative_order(6, 9)

    def test_error_names_the_multiplier_given(self):
        with pytest.raises(ValueError, match="^15 is not coprime to 9$"):
            multiplicative_order(15, 9)


class TestCoprimePart:
    @pytest.mark.parametrize("n,p,expect", [(63, 2, 63), (44, 3, 44), (12, 2, 3)])
    def test_values(self, n, p, expect):
        assert coprime_part(n, p) == expect

    @pytest.mark.parametrize("n,p", [(12, 1), (12, -1), (12, 0), (0, 2), (-4, 2)])
    def test_rejects_inputs_without_an_answer(self, n, p):
        # p = 1 and p = -1 divide every n, and every power of p divides 0
        with pytest.raises(ValueError, match="coprime_part needs"):
            coprime_part(n, p)

    def test_self_conjugacy_of_a_unit_is_rejected(self):
        with pytest.raises(ValueError, match="coprime_part needs"):
            is_self_conjugate(1, 10)


class TestSelfConjugate:
    def test_3_mod_10(self):
        assert is_self_conjugate(3, 10)

    def test_3_mod_11_and_13(self):
        assert not is_self_conjugate(3, 11)
        assert not is_self_conjugate(3, 13)

    def test_3_mod_4(self):
        assert is_self_conjugate(3, 4)

    def test_2_mod_9(self):
        assert is_self_conjugate(2, 9)

    def test_vacuous_small_modulus(self):
        assert is_self_conjugate(3, 2)
        assert is_self_conjugate(5, 1)

    def test_divisor_monotonicity(self):
        # p self-conjugate mod n stays self-conjugate mod divisors m
        # whenever the p-free part of m divides the p-free part of n
        for p in (2, 3, 5):
            for n in range(2, 201):
                if not is_self_conjugate(p, n):
                    continue
                vn = coprime_part(n, p)
                for m in range(2, n + 1):
                    if n % m == 0 and vn % coprime_part(m, p) == 0:
                        assert is_self_conjugate(p, m), (p, n, m)


class TestSelfConjugacyDivisor:
    @staticmethod
    def oracle(k, n):
        # the rule as the margin search and the factorization choice each
        # derived it: p^a for each p^(2a) dividing k maximally, a >= 1,
        # with p not dividing n and self-conjugate mod n
        exponents = [(p, e // 2) for p, e in factorize(k).items() if e >= 2]
        return math.prod(p**a for p, a in exponents if n % p and is_self_conjugate(p, n))

    @pytest.mark.parametrize(
        "k,n,expect",
        [(81, 10, 9), (81, 11, 1), (16, 9, 4), (16, 63, 1), (8, 9, 2), (2, 9, 1),
         (100, 3, 10), (49, 16, 1), (144, 1, 12), (1, 7, 1),
         # p | n: the theorem does not apply, though p is vacuously
         # self-conjugate mod the p-free part of n
         (4, 8, 1), (9, 3, 1), (9, 6, 1), (36, 6, 1), (36, 10, 3)],
    )
    def test_values(self, k, n, expect):
        assert self_conjugacy_divisor(k, n) == expect

    def test_matches_oracle(self):
        for k in range(1, 400):
            for n in range(1, 60):
                assert self_conjugacy_divisor(k, n) == self.oracle(k, n), (k, n)


class TestPrimePowerMultiplier:
    def test_weight4(self):
        assert prime_power_multiplier(7, 4) == 2

    def test_weight81(self):
        assert prime_power_multiplier(110, 81) == 3

    def test_composite_weight_none(self):
        assert prime_power_multiplier(143, 36) is None

    def test_shared_factor_none(self):
        assert prime_power_multiplier(12, 4) is None

    def test_odd_exponent_none(self):
        assert prime_power_multiplier(5, 8) is None


class TestMcFarland:
    @pytest.mark.parametrize("m,k,t", [(35, 36, 4), (91, 64, 2), (39, 100, 5)])
    def test_census_rows(self, m, k, t):
        assert mcfarland_multiplier(m, k) == t

    # the least element above 1 of the theorem set generates only a proper
    # subgroup of it here: 3 has order 10 in the 30-element set mod 61, 3
    # order 5 of 55 mod 121, 12 order 2 of 10 mod 143, 13 order 3 of 15
    # mod 183
    @pytest.mark.parametrize(
        "m,k,t", [(61, 100, 4), (121, 100, 4), (143, 100, 25), (183, 100, 16)]
    )
    def test_least_generator_of_the_theorem_set(self, m, k, t):
        assert mcfarland_multiplier(m, k) == t
        assert powers(t, m) == theorem_multipliers(m, k)

    def test_result_is_power_of_each_prime(self):
        for m, k in ((35, 36), (65, 81), (33, 100), (13, 36)):
            t = mcfarland_multiplier(m, k)
            assert t is not None
            for p in factorize(k):
                powers = set()
                x = p % m
                while x not in powers:
                    powers.add(x)
                    x = x * p % m
                assert t in powers

    def test_noncoprime_rejected(self):
        with pytest.raises(ValueError):
            mcfarland_multiplier(35, 25)


class TestTheoremMultipliers:
    def test_powers(self):
        assert powers(2, 7) == {1, 2, 4}
        assert powers(3, 10) == {1, 3, 7, 9}
        assert powers(5, 1) == {0}

    @pytest.mark.parametrize(
        "n,k,expect",
        [
            (63, 16, {1, 2, 4, 8, 16, 32}),
            (7, 4, {1, 2, 4}),
            # 36 = 2^2 3^2: the residues that are powers of both 2 and 3
            (35, 36, {1, 4, 9, 11, 16, 29}),
            # a shared factor leaves only 1
            (8, 4, {1}),
            (112, 36, {1}),
            (7, 1, {1}),
            (1, 4, {0}),
        ],
    )
    def test_values(self, n, k, expect):
        assert theorem_multipliers(n, k) == expect

    def test_order_below_one_rejected(self):
        with pytest.raises(ValueError, match="^modulus must be positive, got 0$"):
            theorem_multipliers(0, 4)


class TestCoprimeFactorPairs:
    def test_110(self):
        pairs = coprime_factor_pairs(110)
        assert (10, 11) in pairs and (11, 10) in pairs

    def test_prime_empty(self):
        assert coprime_factor_pairs(13) == []

    def test_prime_power_empty(self):
        assert coprime_factor_pairs(49) == []

    def test_63(self):
        assert set(coprime_factor_pairs(63)) == {(7, 9), (9, 7)}

    def test_pairs_are_valid(self):
        for n in (30, 110, 144, 198):
            for d, m in coprime_factor_pairs(n):
                assert d * m == n and math.gcd(d, m) == 1 and d > 1 and m > 1


class TestHelpers:
    def test_factorize(self):
        assert factorize(144) == {2: 4, 3: 2}
        assert factorize(81) == {3: 4}

    def test_is_prime_power(self):
        assert is_prime_power(49) == (7, 2)
        assert is_prime_power(36) is None

    def test_crt_combine(self):
        x = crt_combine(9, 7, 4, 5)
        assert x % 9 == 4 and x % 7 == 5
        with pytest.raises(ValueError):
            crt_combine(6, 9, 1, 1)
