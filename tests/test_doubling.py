import itertools

import pytest

from apfree import (ConstructionViolation, InputNot3APFree, LengthMismatch,
                    double, double_odd, is_3ap_free, validate)
from apfree.doubling import EVEN_BLOCK_FIRST, ODD_BLOCK_FIRST
from conftest import PAPER_SMALL


def free_perms(n):
    """All 3AP-free permutations of {1..n}, via the enumeration route."""
    return [validate(p) for p in itertools.permutations(range(1, n + 1))
            if is_3ap_free(validate(p))]


class TestDouble:
    def test_even_block_first_example(self):
        got = double(validate((2, 1)), validate((1, 2)), EVEN_BLOCK_FIRST)
        assert got.values == (4, 2, 1, 3)

    def test_odd_block_first_example(self):
        got = double(validate((2, 1)), validate((1, 2)), ODD_BLOCK_FIRST)
        assert got.values == (1, 3, 4, 2)

    def test_length_three_example_is_free(self):
        got = double(validate((1, 3, 2)), validate((3, 1, 2)), EVEN_BLOCK_FIRST)
        assert got.values == (2, 6, 4, 5, 1, 3)
        assert is_3ap_free(got)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            double(validate((1,)), validate((1, 2)))

    def test_rejects_input_with_3ap(self):
        with pytest.raises(InputNot3APFree):
            double(validate((1, 2, 3)), validate((1, 3, 2)))
        with pytest.raises(InputNot3APFree):
            double(validate((1, 3, 2)), validate((3, 2, 1)))

    def test_rejects_unknown_order(self):
        with pytest.raises(ValueError):
            double(validate((2, 1)), validate((1, 2)), "shuffled")

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_exhaustive_outputs_free_and_distinct(self, k):
        inputs = free_perms(k)
        assert len(inputs) == PAPER_SMALL[k - 1]
        outputs = set()
        for a in inputs:
            for b in inputs:
                for order in (EVEN_BLOCK_FIRST, ODD_BLOCK_FIRST):
                    out = double(a, b, order)
                    assert out.n == 2 * k
                    assert is_3ap_free(out)
                    outputs.add(out.values)
        # All pairs and both orders give pairwise distinct permutations,
        # witnessing count(2k) >= 2 * count(k)^2.
        expected = 2 * PAPER_SMALL[k - 1] ** 2
        assert len(outputs) == expected
        if 2 * k <= len(PAPER_SMALL):
            assert expected <= PAPER_SMALL[2 * k - 1]

    def test_parity_blocks_are_contiguous(self):
        for a in free_perms(3):
            for b in free_perms(3):
                out = double(a, b, EVEN_BLOCK_FIRST).values
                assert all(v % 2 == 0 for v in out[:3])
                assert all(v % 2 == 1 for v in out[3:])
                out = double(a, b, ODD_BLOCK_FIRST).values
                assert all(v % 2 == 1 for v in out[:3])
                assert all(v % 2 == 0 for v in out[3:])


class TestDoubleOdd:
    def test_smallest_example(self):
        got = double_odd(validate((1,)), validate((2, 1)), EVEN_BLOCK_FIRST)
        assert got.values == (2, 3, 1)

    def test_odd_block_first_example(self):
        got = double_odd(validate((2, 1)), validate((1, 3, 2)), ODD_BLOCK_FIRST)
        assert got.values == (1, 5, 3, 4, 2)
        assert is_3ap_free(got)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            double_odd(validate((1, 2)), validate((1, 2)))
        with pytest.raises(LengthMismatch):
            double_odd(validate((2, 1)), validate((1, 4, 2, 3)))

    def test_rejects_input_with_3ap(self):
        with pytest.raises(InputNot3APFree):
            double_odd(validate((1, 2, 3)), validate((2, 4, 1, 3)))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_exhaustive_outputs_free_and_distinct(self, n):
        small = free_perms(n)
        big = free_perms(n + 1)
        for order in (EVEN_BLOCK_FIRST, ODD_BLOCK_FIRST):
            outputs = set()
            for a in small:
                for b in big:
                    out = double_odd(a, b, order)  # self-checks its output
                    assert out.n == 2 * n + 1
                    outputs.add(out.values)
            # Distinct outputs witness count(2n+1) >= count(n+1) * count(n).
            assert len(outputs) == PAPER_SMALL[n] * PAPER_SMALL[n - 1]
            if 2 * n + 1 <= len(PAPER_SMALL):
                assert len(outputs) <= PAPER_SMALL[2 * n]

    def test_variants_never_collide(self):
        # even-first outputs start with an even value, odd-first with odd.
        small, big = free_perms(2), free_perms(3)
        first = {double_odd(a, b, EVEN_BLOCK_FIRST).values
                 for a in small for b in big}
        second = {double_odd(a, b, ODD_BLOCK_FIRST).values
                  for a in small for b in big}
        assert not first & second
