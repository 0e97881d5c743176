import decimal
import random
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from apfree import decimal_nth_root, nth_root_floor, roots
from apfree.roots import (_EXACT_BITS, ROUND_FLOOR, ROUND_NEAREST,
                          _certifies_floor_root, _power_bracket, decimal_text)
from conftest import (THETA_64, THETA_75, bracket_holds, pow2_newton_root,
                      ulp_bracket_holds)

# The radicands behind the headline certificate limit(1) > limit(75).
HEADLINE_RADICANDS = [(2 * THETA_64, 64), (21 * THETA_64, 64),
                      (2 * THETA_75, 75), (21 * THETA_75, 75)]


def midpoint_rounded(radicand, degree, digits, floor_root=pow2_newton_root):
    """The scaled root in each mode by the formula `decimal_nth_root` used
    before it halved floor(2*root): s = the floor root of R*10**(r*d), to
    which nearest mode adds 1 when 2**r * R*10**(r*d) >= (2s + 1)**r."""
    target = radicand * 10 ** (degree * digits)
    s = floor_root(target, degree)
    assert s ** degree <= target < (s + 1) ** degree
    up = (target << degree) >= (2 * s + 1) ** degree
    return {ROUND_FLOOR: s, ROUND_NEAREST: s + up}


class TestNthRootFloor:
    @pytest.mark.parametrize("x,r,expected", [
        (0, 3, 0), (1, 5, 1), (8, 3, 2), (9, 2, 3), (10, 2, 3),
        (26, 3, 2), (27, 3, 3), (28, 3, 3), (1024, 10, 2), (1023, 10, 1),
        (10 ** 100, 1, 10 ** 100),
    ])
    def test_known(self, x, r, expected):
        assert nth_root_floor(x, r) == expected

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            nth_root_floor(-1, 2)
        with pytest.raises(ValueError):
            nth_root_floor(4, 0)

    @given(st.integers(min_value=0, max_value=10 ** 60),
           st.integers(min_value=1, max_value=100))
    def test_floor_bracket(self, x, r):
        g = nth_root_floor(x, r)
        assert g ** r <= x < (g + 1) ** r

    @given(st.integers(min_value=0, max_value=10 ** 9),
           st.integers(min_value=1, max_value=12))
    def test_exact_powers(self, base, r):
        assert nth_root_floor(base ** r, r) == base

    @settings(deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 20000),
           st.integers(min_value=1, max_value=200))
    def test_floor_bracket_large(self, x, r):
        g = nth_root_floor(x, r)
        assert g ** r <= x < (g + 1) ** r

    @pytest.mark.parametrize("r", [2, 3, 64, 75, 128, 160])
    @pytest.mark.parametrize("bits", [61, 62, 200, 800])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_next_to_exact_powers(self, r, bits, offset):
        g = random.Random(bits * 1000 + r).getrandbits(bits) | (1 << (bits - 1))
        expected = g - 1 if offset < 0 else g
        assert nth_root_floor(g ** r + offset, r) == expected

    @settings(deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 4000),
           st.integers(min_value=1, max_value=80))
    def test_agrees_with_power_of_two_newton(self, x, r):
        assert nth_root_floor(x, r) == pow2_newton_root(x, r)

    @pytest.mark.parametrize("radicand,r", HEADLINE_RADICANDS)
    @pytest.mark.parametrize("digits", [11, 200])
    def test_agrees_with_power_of_two_newton_at_headline(self, radicand, r, digits):
        x = radicand * 10 ** (r * digits)
        assert nth_root_floor(x, r) == pow2_newton_root(x, r)


class TestGuessThenCheck:
    """Every guess gets the floor root; the float-seeded guess needs no
    Newton step on the headline roots."""

    CASES = [(2, 2), (8, 3), (9, 2), (10200, 2), (10 ** 30, 7), (3 ** 200 - 1, 50),
             (2 ** 4000 + 12345, 3), (2 * THETA_64 * 10 ** (64 * 11), 64),
             (21 * THETA_75 * 10 ** (75 * 20), 75), (5 ** 200 + 1, 200),
             # Past _EXACT_BITS: nth_root_floor still decides it exactly.
             pytest.param(21 * THETA_75 * 10 ** (75 * 200), 75, id="21theta75-200digits")]

    @pytest.fixture
    def guesses(self, monkeypatch):
        # Newton ran iff the returned root differs from the guess: a right
        # guess is returned as it is, and a wrong one ends at the floor
        # root, which it is not.
        calls, guess = [], roots._root_guess

        def spied(x, r):
            calls.append(guess(x, r))
            return calls[-1]

        monkeypatch.setattr(roots, "_root_guess", spied)
        return calls

    @pytest.mark.parametrize("x,r", CASES)
    @pytest.mark.parametrize("wrong", ["floor-3", "floor-1", "floor+1", "floor+5", "1",
                                       "2*floor+3", "4*floor", "1<<(bits+2)"])
    def test_wrong_guesses_fall_back_to_the_floor_root(self, x, r, wrong, monkeypatch):
        root = pow2_newton_root(x, r)
        bits = -(-x.bit_length() // r)
        guess = {"floor-3": root - 3, "floor-1": root - 1, "floor+1": root + 1,
                 "floor+5": root + 5, "1": 1, "2*floor+3": 2 * root + 3,
                 "4*floor": 4 * root, "1<<(bits+2)": 1 << (bits + 2)}[wrong]
        monkeypatch.setattr(roots, "_root_guess", lambda x, r: max(guess, 1))
        assert nth_root_floor(x, r) == root

    @pytest.mark.parametrize("mode", [ROUND_FLOOR, ROUND_NEAREST])
    @pytest.mark.parametrize("offset", [-3, -1, 1, 5])
    def test_the_decimal_bracket_rejects_wrong_guesses(self, offset, mode, monkeypatch):
        # Past _EXACT_BITS, decimal_nth_root's bracket sees the guess
        # first. It must reject a wrong one, which then reaches
        # nth_root_floor: a second guess, and a descent to the root.
        radicand, r, digits = 21 * THETA_75, 75, 200
        twice = nth_root_floor(radicand * 10 ** (r * digits) << r, r)
        calls = []

        def wrong(x, r):
            calls.append(x)
            return twice + offset

        monkeypatch.setattr(roots, "_root_guess", wrong)
        root = decimal_nth_root(radicand, r, digits, mode)
        assert root.scaled == (twice + (mode == ROUND_NEAREST)) >> 1
        assert len(calls) == 2 and calls[0].bit_length() > _EXACT_BITS

    @given(st.integers(min_value=1, max_value=10 ** 60),
           st.integers(min_value=1, max_value=40),
           st.integers(min_value=-20, max_value=10 ** 6))
    def test_guess_near_or_far_above(self, x, r, offset):
        # Function-scoped fixtures do not reset between Hypothesis
        # examples, so the patch lives in the test body.
        root = pow2_newton_root(x, r)
        with mock.patch.object(roots, "_root_guess", lambda x, r: max(root + offset, 1)):
            assert nth_root_floor(x, r) == root

    @pytest.mark.parametrize("x,r", CASES)
    def test_the_right_guess_is_returned_without_newton(self, x, r, guesses):
        root = pow2_newton_root(x, r)
        assert nth_root_floor(x, r) == root
        assert guesses == [root]

    @pytest.mark.parametrize("t", [1, 2])
    @pytest.mark.parametrize("k", [2, 3, 10])
    def test_small_roots_of_high_degree_take_the_exact_branch(self, t, k, guesses):
        # Between t**200 and (t+1)**200 the gap is far more than
        # 200 * t**199, so for x high in it the cheap test fails and
        # (t+1)**200 > x decides.
        r = 200
        x = (t + 1) ** r - (t + 1) ** r // k
        assert x - t ** r >= r * t ** (r - 1)
        assert nth_root_floor(x, r) == pow2_newton_root(x, r) == t
        assert guesses == [t]

    @pytest.mark.parametrize("radicand,r", HEADLINE_RADICANDS,
                             ids=["2theta64", "21theta64", "2theta75", "21theta75"])
    def test_headline_roots_need_no_fallback(self, radicand, r, guesses, monkeypatch):
        # A count, not a time: each of these 400 roots takes one guess and
        # returns it with no Newton step, and none whose radicand is past
        # _EXACT_BITS builds that radicand for nth_root_floor.
        doubled, exact, inner = [], [], roots._doubled_root
        floor_root = roots.nth_root_floor

        def recorded(radicand, r, digits):
            doubled.append(inner(radicand, r, digits))
            return doubled[-1]

        def recorded_exact(x, r):
            exact.append(x.bit_length())
            return floor_root(x, r)

        monkeypatch.setattr(roots, "_doubled_root", recorded)
        monkeypatch.setattr(roots, "nth_root_floor", recorded_exact)
        for digits in range(1, 201):
            for mode in (ROUND_FLOOR, ROUND_NEAREST):
                decimal_nth_root(radicand, r, digits, mode)
        assert len(doubled) == 400 and doubled == guesses
        assert 0 < len(exact) < 100 and max(exact) <= _EXACT_BITS

    @given(st.integers(min_value=1, max_value=2 ** 300),
           st.integers(min_value=0, max_value=80),
           st.integers(min_value=0, max_value=120))
    @example(g=2 ** 300 - 1, k=0, extra=0)  # g**0 = 1 is exact: (1, 1, 0)
    @example(g=2 ** 300 - 1, k=1, extra=0)  # g is wider than prec: cut at the first step
    def test_power_bracket_holds_and_is_exact_without_cuts(self, g, k, extra):
        prec = k.bit_length() + 3 + extra
        m, hi, e = _power_bracket(g, k, prec)
        if k == 0:
            assert (m, hi, e) == (1, 1, 0)
        if k and g.bit_length() > prec:
            assert e > 0 and m.bit_length() <= prec
        assert m << e <= g ** k <= hi << e
        assert (hi == m) == (e == 0)
        assert e or m == g ** k

    @settings(deadline=None)
    @given(st.integers(min_value=2, max_value=600),
           st.integers(min_value=1, max_value=40000),
           st.integers(min_value=-3, max_value=3),
           st.integers(min_value=0, max_value=2 ** 64),
           st.integers(min_value=-200, max_value=200))
    def test_certificate_is_sound(self, r, bits, offset, width, s):
        # A True certificate for [lo * 2**s, hi * 2**s] makes t the floor
        # root of both ends.
        lo = random.Random(bits * 1000 + r).getrandbits(bits) | 1
        hi = lo + width
        ends = [v << s if s >= 0 else v >> -s for v in (lo, hi)]
        t = max(nth_root_floor(ends[0], r) + offset, 1)
        if _certifies_floor_root(t, r, lo, hi, s):
            assert all(t ** r <= v < (t + 1) ** r for v in ends)

    @pytest.mark.parametrize("x,r", [(7 ** 3500 + 1, 3), (3 ** 20000 - 1, 64),
                                     (21 * THETA_75 * 10 ** (75 * 200), 75)],
                             ids=["7^3500+1-3", "3^20000-1-64", "21theta75-200digits"])
    def test_certificate_accepts_the_floor_root_past_the_crossover(self, x, r):
        assert x.bit_length() > _EXACT_BITS
        root = pow2_newton_root(x, r)
        assert _certifies_floor_root(root, r, x, x, 0)
        assert not _certifies_floor_root(root + 1, r, x, x, 0)
        assert not _certifies_floor_root(root - 1, r, x, x, 0)

    @pytest.mark.parametrize("r", [3, 8, 64, 75, 512])
    def test_certificate_rejects_the_root_below_an_exact_power(self, r):
        # x - (g-1)**r = g**r - (g-1)**r is r*(g-1)**(r-1) times about
        # 1 + (r-1)/(2g): past the bound r*t**(r-1), yet below
        # (r+1)*t**(r-1), so only the bound's own r rejects g - 1.
        g = random.Random(r).getrandbits(_EXACT_BITS // r + 64) | 1 << (_EXACT_BITS // r + 63)
        x = g ** r
        assert x.bit_length() > _EXACT_BITS
        assert not _certifies_floor_root(g - 1, r, x, x, 0)
        assert not _certifies_floor_root(g - 1, r, x - 1, x, 0)

    @given(st.integers(min_value=1, max_value=2 ** 300),
           st.integers(min_value=1, max_value=80),
           st.integers(min_value=1, max_value=120))
    def test_truncated_power_is_a_close_lower_bound(self, g, k, prec):
        m, _, e = _power_bracket(g, k, prec)
        exact = g ** k
        assert (e, m) == (0, exact) or m.bit_length() <= prec
        # m * 2**e <= g**k, within a factor (1 - 2**(1 - prec))**(2*k).
        assert m << e <= exact
        assert m << (e + 2 * k * (prec - 1)) >= exact * (2 ** (prec - 1) - 1) ** (2 * k)


class TestDecimalRoot:
    def test_truncation_vs_nearest(self):
        # sqrt(2) = 1.41421356...: the 7th digit rounds the 6th up.
        assert decimal_nth_root(2, 2, 6, ROUND_FLOOR).text == "1.414213"
        assert decimal_nth_root(2, 2, 6, ROUND_NEAREST).text == "1.414214"
        # 4^(1/3) = 1.58740105...: both modes agree.
        assert decimal_nth_root(4, 3, 6, ROUND_FLOOR).text == "1.587401"
        assert decimal_nth_root(4, 3, 6, ROUND_NEAREST).text == "1.587401"

    def test_exact_root_renders_exactly(self):
        assert decimal_nth_root(1, 1, 6).text == "1.000000"
        assert decimal_nth_root(8, 3, 4).text == "2.0000"
        assert decimal_nth_root(8, 3, 4, ROUND_NEAREST).text == "2.0000"

    def test_value_below_one(self):
        assert decimal_nth_root(0, 5, 3).text == "0.000"

    def test_text_past_the_int_str_digit_limit(self):
        # sqrt(2) to 4400 places: scaled has 4401 digits, more than str()
        # converts by default (4300). The reference is the decimal
        # module's sqrt at 20 more places, truncated.
        root = decimal_nth_root(2, 2, 4400)
        assert root.scaled > 10 ** 4300
        reference = str(decimal.Context(prec=4421).sqrt(decimal.Decimal(2)))
        assert root.text == reference[:4402]

    @pytest.mark.parametrize("v", [0, 7, 10 ** 4300, 10 ** 5000 + 7, 3 ** 10000],
                             ids=["0", "7", "10^4300", "10^5000+7", "3^10000"])
    def test_decimal_text(self, v):
        exact = decimal.Context(prec=6000, Emax=10 ** 6)
        assert decimal_text(v) == str(exact.create_decimal(v))

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            decimal_nth_root(2, 2, 0)
        with pytest.raises(ValueError):
            decimal_nth_root(2, 2, 5, "sideways")
        # The messages name the caller's values, not the scaled radicand.
        with pytest.raises(ValueError, match=r"^radicand must be >= 0, got -5$"):
            decimal_nth_root(-5, 2, 3)
        with pytest.raises(ValueError, match=r"^root degree must be >= 1, got -1$"):
            decimal_nth_root(5, -1, 3)

    @given(st.integers(min_value=0, max_value=10 ** 40),
           st.integers(min_value=1, max_value=60),
           st.integers(min_value=1, max_value=12),
           st.sampled_from([ROUND_FLOOR, ROUND_NEAREST]))
    @example(radicand=0, degree=2, digits=1, mode=ROUND_NEAREST)
    @example(radicand=21 * THETA_75, degree=75, digits=200, mode=ROUND_FLOOR)
    @example(radicand=21 * THETA_75, degree=75, digits=200, mode=ROUND_NEAREST)
    def test_brackets_hold(self, radicand, degree, digits, mode):
        root = decimal_nth_root(radicand, degree, digits, mode)
        assert bracket_holds(root)
        assert ulp_bracket_holds(root)

    @pytest.mark.parametrize("mode", [ROUND_FLOOR, ROUND_NEAREST])
    def test_the_bracket_checks_reject_a_wrong_root(self, mode):
        root = decimal_nth_root(2, 2, 6, mode)  # sqrt(2) = 1.41421356...
        assert root.scaled == {ROUND_FLOOR: 1414213, ROUND_NEAREST: 1414214}[mode]
        for off in (-1, 1):
            assert not bracket_holds(root._replace(scaled=root.scaled + off))
        for off in (-2, 2):
            assert not ulp_bracket_holds(root._replace(scaled=root.scaled + off))

    @settings(deadline=None)
    @given(st.integers(min_value=0, max_value=10 ** 40),
           st.integers(min_value=1, max_value=80),
           st.integers(min_value=1, max_value=30),
           st.sampled_from([ROUND_FLOOR, ROUND_NEAREST]))
    @example(radicand=8, degree=3, digits=4, mode=ROUND_NEAREST)
    @example(radicand=21 * THETA_75, degree=75, digits=200, mode=ROUND_NEAREST)
    def test_equals_the_midpoint_formula(self, radicand, degree, digits, mode):
        root = decimal_nth_root(radicand, degree, digits, mode)
        assert root.scaled == midpoint_rounded(radicand, degree, digits)[mode]

    @pytest.mark.parametrize("mode", [ROUND_FLOOR, ROUND_NEAREST])
    @pytest.mark.parametrize("digits", [6, 11, 50, 200])
    @pytest.mark.parametrize("degree", [128, 160, 256, 300, 512])
    def test_brackets_hold_at_high_degree(self, degree, digits, mode):
        # A count of realistic size, about 2.3**n, as theta(n) would be.
        root = decimal_nth_root(23 ** degree // 10 ** degree, degree, digits, mode)
        assert bracket_holds(root)
        assert ulp_bracket_holds(root)

    @given(st.integers(min_value=1, max_value=10 ** 30),
           st.integers(min_value=1, max_value=40))
    def test_modes_differ_by_at_most_one_ulp(self, radicand, degree):
        lo = decimal_nth_root(radicand, degree, 8, ROUND_FLOOR)
        near = decimal_nth_root(radicand, degree, 8, ROUND_NEAREST)
        assert near.scaled in (lo.scaled, lo.scaled + 1)


@pytest.mark.slow
class TestSeededSweep:
    def test_nth_root_floor_against_power_of_two_newton(self):
        # About 6 s on one core; opt in with -m slow.
        rng = random.Random(20000)
        for r in range(1, 201):
            for _ in range(3):
                x = rng.getrandbits(rng.randint(1, 20000))
                assert nth_root_floor(x, r) == pow2_newton_root(x, r), (x, r)
            g = rng.getrandbits(rng.randint(1, 20000 // r)) | 1
            for x in (g ** r - 1, g ** r, g ** r + 1):
                assert nth_root_floor(x, r) == pow2_newton_root(x, r), (x, r)

    @pytest.mark.parametrize("radicand,r", HEADLINE_RADICANDS,
                             ids=["2theta64", "21theta64", "2theta75", "21theta75"])
    def test_headline_roots_at_every_digit_count_to_400(self, radicand, r):
        # About 1 s each on one core; opt in with -m slow. The old formula's
        # floor root comes from nth_root_floor here, checked by its exact
        # bracket: pow2_newton_root would take minutes.
        for digits in range(1, 401):
            expected = midpoint_rounded(radicand, r, digits, nth_root_floor)
            for mode in (ROUND_FLOOR, ROUND_NEAREST):
                root = decimal_nth_root(radicand, r, digits, mode)
                assert root.scaled == expected[mode], (digits, mode)

    def test_decimal_roots_to_degree_512_and_2000_digits(self):
        # About 13 s on one core; opt in with -m slow. Degrees and digit
        # counts on both sides of _EXACT_BITS, each checked by exact powers.
        rng = random.Random(512)
        cases = [(512, 2000), (8, 2000), (7, 2000)]
        cases += [(rng.randint(2, 512), rng.randint(1, 2000)) for _ in range(40)]
        for r, digits in cases:
            radicand = rng.getrandbits(rng.randint(1, 2 * r)) + 1
            for mode in (ROUND_FLOOR, ROUND_NEAREST):
                root = decimal_nth_root(radicand, r, digits, mode)
                assert bracket_holds(root), (radicand, r, digits, mode)
