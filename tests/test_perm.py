import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apfree import (APWitness, NotAPermutation, Permutation, complement,
                    double, double_odd, find_3ap, format_oneline, is_3ap_free,
                    parse_oneline, reverse, validate)
from apfree.doubling import ORDERS
from apfree.perm import _first_3ap_lane, values_3ap_free
from conftest import brute_all_witnesses, brute_find_3ap, middle_value_3ap_free


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

    def test_bools_are_not_values(self):
        # True == 1, but "True,2" is not one-line notation.
        for values in ((True, 2), (2, True), (False, 1)):
            with pytest.raises(NotAPermutation):
                validate(values)


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


def doubled_free(n, rng):
    """A 3AP-free permutation of {1..n}, built by seeded random doublings
    down to lengths <= 4, whose 3AP-free permutations come from the brute
    triple scan."""
    if n <= 4:
        return validate(rng.choice([p for p in all_perms(n) if brute_find_3ap(p) is None]))
    half = n // 2
    combine = double if n % 2 == 0 else double_odd
    return combine(doubled_free(half, rng), doubled_free(n - half, rng), rng.choice(ORDERS))


class TestLongInputs:
    """Random permutations of length 9..40 are almost never 3AP-free, so
    the free answer on long inputs is pinned on doubled permutations."""

    @pytest.mark.parametrize("n", [9, 17, 40, 64, 75, 101, 150, 257, 512, 1000])
    def test_doubled_permutations_are_free_and_transpositions_match(self, n):
        rng = random.Random(n)
        p = doubled_free(n, rng)
        assert middle_value_3ap_free(p.values)
        assert is_3ap_free(p)
        assert find_3ap(p) is None
        for _ in range(4):
            vals = list(p.values)
            i, j = rng.sample(range(n), 2)
            vals[i], vals[j] = vals[j], vals[i]
            q = validate(vals)
            assert is_3ap_free(q) == middle_value_3ap_free(vals)
            if n <= 150:
                got = find_3ap(q)
                assert (None if got is None else tuple(got)) == brute_find_3ap(vals)


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


def near_misses(p, rng, count):
    """`count` sequences, each p or p with two values swapped."""
    out = []
    for _ in range(count):
        vals = list(p.values)
        if len(vals) > 1 and rng.random() < 0.5:
            i, j = rng.sample(range(len(vals)), 2)
            vals[i], vals[j] = vals[j], vals[i]
        out.append(tuple(vals))
    return out


class TestBatchTest:
    """`_first_3ap_lane` decides a packed batch, one byte lane per sequence."""

    @staticmethod
    def first_rejected(batch):
        return next((i for i, vals in enumerate(batch) if not values_3ap_free(vals)), -1)

    @pytest.mark.parametrize("n", [*range(1, 15), 63])
    def test_finds_the_first_sequence_with_a_3ap(self, n):
        # n = 63 puts sums of 126 in a lane, the most that keeps a lane
        # below 0x80.
        rng = random.Random(f"batch:{n}")
        for _ in range(20 if n < 63 else 1):
            batch = [vals for _ in range(rng.randint(1, 8))
                     for vals in near_misses(doubled_free(n, rng), rng, rng.randint(1, 40))]
            if rng.random() < 0.3:
                batch = [vals for vals in batch if values_3ap_free(vals)] or batch
            blob = b"".join(map(bytes, batch))
            assert _first_3ap_lane(blob, n) == self.first_rejected(batch)

    def test_borrow_into_the_next_lane_is_ignored(self):
        # Lane 3 holds a 3AP at positions (2, 3, 4); lane 4, free, has
        # d = 1 there, so the borrow from lane 3 flags lane 4 too.
        bad, good = (1, 2, 3, 4, 5), (1, 5, 3, 2, 4)
        assert (good[1] + good[3]) ^ (2 * good[2]) == 1
        assert values_3ap_free(good)
        batch = [good] * 3 + [bad, good] + [good] * 2
        assert _first_3ap_lane(b"".join(map(bytes, batch)), 5) == 3
        assert _first_3ap_lane(bytes(good) * 6, 5) == -1

    def test_a_3ap_in_the_last_lane_of_a_full_batch(self):
        # Only lane 1,023 holds a 3AP, at positions (1, 2, 3), so its
        # borrow leaves the top lane and d - ones is negative there.
        bad, good = (1, 2, 3, 4, 5), (1, 5, 3, 2, 4)
        blob = bytes(good) * 1023 + bytes(bad)
        ones = int.from_bytes(b"\x01" * 1024, "little")
        c1, c2, c3 = (int.from_bytes(blob[j::5], "little") for j in range(3))
        assert ((c1 + c3) ^ (c2 << 1)) - ones < 0
        assert _first_3ap_lane(blob, 5) == 1023
        assert _first_3ap_lane(bytes(good) * 1024, 5) == -1
