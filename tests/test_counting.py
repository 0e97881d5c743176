import itertools

import pytest

from apfree import (OracleRangeExceeded, ResourceLimitExceeded, ThetaTable,
                    ValueUnavailable, count_dp, count_oracle, count_pruned,
                    count_verified, free_permutations, is_3ap_free, theta,
                    validate)
from apfree.counting import (POLICY_COMPUTE_IF_MISSING, POLICY_LOOKUP_ONLY,
                             _dp_levels)
from apfree.perm import values_3ap_free
from apfree.table import (PROVENANCE_BUILTIN, PROVENANCE_COMPUTED,
                          PROVENANCE_INGESTED)
from conftest import COMPUTED_MID, PAPER_SMALL, THETA_64


class TestOracle:
    def test_published_values_through_nine(self):
        for n in range(1, 10):
            assert count_oracle(n) == PAPER_SMALL[n - 1]

    def test_published_value_ten_with_raised_ceiling(self):
        assert count_oracle(10) == 1066

    def test_matches_the_per_permutation_scan(self):
        # perm's per-permutation scan shares no code with the oracle's
        # value-triple test, so it serves as the reference.
        for n in range(1, 9):
            assert count_oracle(n) == sum(
                values_3ap_free(p) for p in itertools.permutations(range(1, n + 1)))

    def test_ceiling(self):
        with pytest.raises(OracleRangeExceeded):
            count_oracle(11)
        with pytest.raises(OracleRangeExceeded):
            count_oracle(12, ceiling=11)

    def test_rejects_bad_n(self):
        for n in (0, -3):
            with pytest.raises(ValueError, match=rf"^n must be >= 1, got {n}$"):
                count_oracle(n)


class TestPrunedCounter:
    def test_published_values_regression(self):
        for n in range(1, 12):
            assert count_pruned(n) == PAPER_SMALL[n - 1]

    def test_matches_oracle(self):
        for n in range(1, 10):
            assert count_pruned(n) == count_oracle(n)

    def test_computed_values_regression(self):
        for n in (12, 13, 14):
            assert count_pruned(n) == COMPUTED_MID[n]

    @pytest.mark.slow
    def test_oracle_equivalence_at_eleven(self):
        # Full 11! enumeration, about 20 s on one core; opt in with -m slow.
        assert count_oracle(11, ceiling=11) == PAPER_SMALL[10]
        assert count_pruned(11) == PAPER_SMALL[10]

    def test_job_validation(self):
        for counter in (count_dp, count_pruned):
            for n in (0, -3):
                with pytest.raises(ValueError, match=rf"^n must be >= 1, got {n}$"):
                    counter(n)

    def test_negative_node_budget_is_rejected(self):
        for counter in (count_dp, count_pruned):
            with pytest.raises(ValueError, match=r"^node_budget must be >= 0, got -1$"):
                counter(5, node_budget=-1)
            # A budget of 0 is valid, and no count fits in it.
            with pytest.raises(ResourceLimitExceeded):
                counter(5, node_budget=0)

    def test_node_budget_exhaustion_is_an_error(self):
        with pytest.raises(ResourceLimitExceeded):
            count_pruned(10, node_budget=50)

    def test_node_budget_generous_is_fine(self):
        assert count_pruned(6, node_budget=10 ** 6) == 48


class TestSubsetDP:
    def test_matches_oracle(self):
        for n in range(1, 10):
            assert count_dp(n) == count_oracle(n)

    def test_matches_pruned_counter(self):
        for n in range(1, 14):
            assert count_dp(n) == count_pruned(n)

    def test_published_and_computed_values(self):
        expected = dict(enumerate(PAPER_SMALL, start=1)) | COMPUTED_MID
        assert sorted(expected) == list(range(1, 17))
        for n, value in expected.items():
            assert count_dp(n) == value

    @pytest.mark.parametrize("budget", [50, 5000, 10 ** 6])
    def test_outcome_does_not_depend_on_scheduling(self, budget):
        # Both counters; budget 5000 covers all 2460 backtracker leaves and
        # every DP state, so each must count in full.
        for counter in (count_dp, count_pruned):
            if budget == 50:
                with pytest.raises(ResourceLimitExceeded):
                    counter(11, node_budget=budget)
            else:
                assert counter(11, node_budget=budget) == PAPER_SMALL[10]

    def test_node_budget_counts_expanded_states(self):
        # Every level but the last is expanded; the budget may be used up
        # exactly, and one state fewer is an error.
        expanded = sum(len(level) for level in list(_dp_levels(9))[:-1])
        assert count_dp(9, node_budget=expanded) == PAPER_SMALL[8]
        with pytest.raises(ResourceLimitExceeded):
            count_dp(9, node_budget=expanded - 1)

    @pytest.mark.slow
    def test_pruned_counter_agrees_at_fourteen_to_sixteen(self):
        for n in (14, 15, 16):
            assert count_pruned(n) == count_dp(n)

    @pytest.mark.slow
    def test_recomputes_builtin_theta_64(self):
        # Several minutes and a few hundred MB; opt in with -m slow.
        assert count_dp(64) == THETA_64


class TestFreePermutations:
    def test_enumeration_matches_filtered_oracle(self):
        for n in (1, 2, 5, 6):
            expected = [p for p in itertools.permutations(range(1, n + 1))
                        if is_3ap_free(validate(p))]
            assert list(free_permutations(n)) == expected

    def test_lexicographic_order(self):
        got = list(free_permutations(7))
        assert got == sorted(got)
        assert len(got) == PAPER_SMALL[6]

    def test_every_output_is_a_valid_free_permutation(self):
        for p in free_permutations(6):
            assert is_3ap_free(validate(p))


def test_enumerate_and_verify_mode():
    # Pruning soundness spot check: everything the counter accepts passes
    # the independent 3AP test, and the totals agree with both routes.
    for n in range(1, 9):
        v = count_verified(n)
        assert v == count_pruned(n)
        assert v == count_oracle(n)


class TestThetaLookup:
    def test_builtin_lookup(self):
        tbl = ThetaTable()
        assert theta(7, tbl) == 104
        assert theta(64, tbl, POLICY_LOOKUP_ONLY) == THETA_64

    def test_lookup_only_miss(self):
        tbl = ThetaTable()
        with pytest.raises(ValueUnavailable):
            theta(201, tbl, POLICY_LOOKUP_ONLY)

    def test_compute_if_missing(self, tmp_path):
        cache = tmp_path / "cache.txt"
        tbl = ThetaTable(cache_path=cache)
        v = theta(12, tbl, POLICY_COMPUTE_IF_MISSING)
        assert v == COMPUTED_MID[12]
        assert tbl.provenance(12) == PROVENANCE_COMPUTED
        assert tbl.provenance(11) == PROVENANCE_BUILTIN
        # The cache was persisted and the computed entry is in it.
        assert cache.exists()
        assert f"12 {COMPUTED_MID[12]}" in cache.read_text()
        # A second call is a lookup, not a recount.
        assert theta(12, tbl, POLICY_LOOKUP_ONLY) == v

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            theta(5, ThetaTable(), "guess")


class TestThetaTable:
    def test_builtin_contents(self):
        tbl = ThetaTable()
        for n, v in enumerate(PAPER_SMALL, start=1):
            assert tbl.value(n) == v
            assert tbl.provenance(n) == PROVENANCE_BUILTIN
        assert tbl.value(64) == THETA_64

    def test_insert_conflict(self):
        from apfree import ConflictError
        tbl = ThetaTable()
        with pytest.raises(ConflictError):
            tbl.insert(4, 11, PROVENANCE_INGESTED)

    def test_matching_reinsert_keeps_provenance(self):
        tbl = ThetaTable()
        assert tbl.insert(4, 10, PROVENANCE_INGESTED) is False
        assert tbl.provenance(4) == PROVENANCE_BUILTIN

    def test_available(self):
        tbl = ThetaTable()
        assert tbl.available(11) == list(range(1, 12))
        assert tbl.available() == list(range(1, 12)) + [64, 75]

    def test_insert_validation(self):
        tbl = ThetaTable()
        with pytest.raises(ValueError):
            tbl.insert(0, 1, PROVENANCE_COMPUTED)
        with pytest.raises(ValueError):
            tbl.insert(12, -1, PROVENANCE_COMPUTED)
        with pytest.raises(ValueError):
            tbl.insert(12, 6128, "hearsay")
