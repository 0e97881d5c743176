import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apfree import (APWitness, NotAPermutation, Permutation, complement,
                    find_3ap, format_oneline, is_3ap_free, parse_oneline,
                    reverse, validate)
from conftest import brute_all_witnesses, brute_find_3ap


def all_perms(n):
    return itertools.permutations(range(1, n + 1))


class TestValidate:
    def test_valid(self):
        p = validate((2, 1, 3))
        assert p.n == 3
        assert p.values == (2, 1, 3)

    def test_duplicate(self):
        with pytest.raises(NotAPermutation):
            validate((1, 1, 2))

    def test_out_of_range(self):
        # 3 is outside {1, 2} and 2 is missing.
        with pytest.raises(NotAPermutation):
            validate((1, 3))

    def test_empty(self):
        with pytest.raises(NotAPermutation):
            validate(())

    def test_zero_and_negative(self):
        with pytest.raises(NotAPermutation):
            validate((0, 1))
        with pytest.raises(NotAPermutation):
            validate((-1, 2, 1))

    def test_non_integer(self):
        with pytest.raises(NotAPermutation):
            validate((1.5, 1))


class TestOneline:
    def test_parse(self):
        assert parse_oneline("4,2,1,3").values == (4, 2, 1, 3)

    def test_format_round_trip(self):
        p = validate((4, 2, 1, 3))
        assert format_oneline(p) == "4,2,1,3"
        assert parse_oneline(format_oneline(p)) == p
        assert str(p) == "4,2,1,3"

    @pytest.mark.parametrize("bad", ["", "1, 2", "1;2", "a,b", "1,,2", ",1", "1,"])
    def test_rejects_junk(self, bad):
        with pytest.raises(NotAPermutation):
            parse_oneline(bad)


class TestFind3AP:
    def test_monotone_run_is_witnessed(self):
        assert find_3ap(validate((1, 2, 3))) == APWitness(1, 2, 3)

    def test_free_examples(self):
        # Confirmed free by the brute triple scan.
        for vals in [(1, 3, 2), (4, 2, 1, 3), (2, 1)]:
            assert brute_find_3ap(vals) is None
            assert find_3ap(validate(vals)) is None

    def test_witness_equation_holds(self):
        for vals in all_perms(5):
            w = find_3ap(validate(vals))
            if w is not None:
                assert vals[w.i - 1] + vals[w.k - 1] == 2 * vals[w.j - 1]
                assert 1 <= w.i < w.j < w.k <= 5

    def test_lexicographically_smallest_witness_exhaustive(self):
        for n in range(1, 7):
            for vals in all_perms(n):
                expected = brute_find_3ap(vals)
                got = find_3ap(validate(vals))
                got_t = None if got is None else tuple(got)
                assert got_t == expected, vals
                if expected is not None:
                    assert got_t == min(brute_all_witnesses(vals))

    @settings(max_examples=200)
    @given(st.permutations(list(range(1, 9))))
    def test_matches_brute_scan_random(self, vals):
        got = find_3ap(validate(vals))
        assert (None if got is None else tuple(got)) == brute_find_3ap(vals)

    @settings(max_examples=100)
    @given(st.integers(9, 40).flatmap(lambda n: st.permutations(list(range(1, n + 1)))))
    def test_matches_brute_scan_longer(self, vals):
        # Longer inputs reach every offset of the padded position table.
        got = find_3ap(validate(vals))
        assert (None if got is None else tuple(got)) == brute_find_3ap(vals)


class TestIs3APFree:
    def test_examples(self):
        assert not is_3ap_free(validate((1, 2, 3)))
        assert is_3ap_free(validate((2, 1)))
        assert is_3ap_free(validate((1, 3, 2)))

    def test_short_permutations_always_free(self):
        assert is_3ap_free(validate((1,)))
        for vals in all_perms(2):
            assert is_3ap_free(validate(vals))

    def test_agrees_with_find_3ap_and_brute_exhaustive(self):
        # Every permutation up to n = 7: 5913 cases.
        for n in range(1, 8):
            for vals in all_perms(n):
                p = validate(vals)
                free = is_3ap_free(p)
                assert free == (find_3ap(p) is None)
                assert free == (brute_find_3ap(vals) is None)


class TestSymmetries:
    def test_reverse_example(self):
        assert reverse(validate((1, 3, 2))).values == (2, 3, 1)
        assert reverse(validate((2, 1))).values == (1, 2)

    def test_complement_example(self):
        assert complement(validate((1, 3, 2))).values == (3, 1, 2)

    def test_involutions_exhaustive(self):
        for n in range(1, 7):
            for vals in all_perms(n):
                p = validate(vals)
                assert reverse(reverse(p)) == p
                assert complement(complement(p)) == p

    def test_freeness_invariant_exhaustive(self):
        for n in range(1, 8):
            for vals in all_perms(n):
                p = validate(vals)
                free = is_3ap_free(p)
                assert is_3ap_free(reverse(p)) == free
                assert is_3ap_free(complement(p)) == free

    @settings(max_examples=150)
    @given(st.permutations(list(range(1, 10))))
    def test_freeness_invariant_random(self, vals):
        p = validate(vals)
        free = is_3ap_free(p)
        assert is_3ap_free(reverse(p)) == free
        assert is_3ap_free(complement(p)) == free


def test_permutation_is_hashable_and_immutable():
    p = validate((2, 1, 3))
    assert hash(p) == hash(validate((2, 1, 3)))
    with pytest.raises(AttributeError):
        p.values = (1, 2, 3)
