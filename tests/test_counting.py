import collections
import gc
import itertools
import random
import re
import sys

import pytest

from apfree import (ConflictError, OracleRangeExceeded, ThetaTable,
                    ValueUnavailable, count_dp, count_oracle, count_pruned,
                    count_verified, counting, free_permutations, is_3ap_free,
                    theta, validate)
from apfree.counting import _children, _completions, _dp_levels, _kill_masks
from apfree.perm import values_3ap_free
from apfree.table import (PROVENANCE_BUILTIN, PROVENANCE_COMPUTED,
                          PROVENANCE_INGESTED)
from conftest import (COMPUTED_MID, PAPER_SMALL, THETA_64, THETA_75,
                      brute_find_3ap)


def reflect(placed, n):
    """The bitmask of {n+1-u : u in placed}, by reversing its bit string."""
    return int(format(placed, f"0{n + 2}b")[::-1], 2)


def reference_levels(n, depth=None):
    """The unpruned subset DP: level k = {P: legal orderings of P} over
    every k-set P that some legal ordering reaches, k = 0..depth (n by
    default).

    P is a bitmask with bit v set for each placed value v. Its reflection
    R (bit n+1-u for each u in P) shifted left by 2v-n-1 is the set
    {2v-u : u in P}, the values that placing v after P would kill, so
    placing v is legal iff that set misses every unplaced value.
    """
    full = (1 << (n + 1)) - 2
    offset = n + 3  # shift = 2v - n - 1, where b = 1 << v has bit_length v + 1
    level = {0: 1}
    levels = [level]
    for _ in range(n if depth is None else depth):
        nxt = {}
        for placed, paths in level.items():
            refl = reflect(placed, n)
            unplaced = full ^ placed
            m = unplaced
            while m:
                b = m & -m
                m ^= b
                shift = 2 * b.bit_length() - offset
                killed = refl << shift if shift >= 0 else refl >> -shift
                if not killed & unplaced:
                    key = placed | b
                    nxt[key] = nxt.get(key, 0) + paths
        level = nxt
        levels.append(level)
    return levels


def completion_count(n):
    """theta(n) counted top down: f(P), the number of legal orderings of
    the values not in P that can follow an ordering of P, memoized on P.

    Placing v after P is legal iff no u in P has 2v - u among the values
    still unplaced after v, tested u by u. There is no meet, no mirror and
    no split test, and no code is shared with `_dp_levels` or
    `reference_levels`.
    """
    full = (1 << (n + 1)) - 2
    memo = {full: 1}

    def completions(placed):
        if placed in memo:
            return memo[placed]
        unplaced = full ^ placed
        us = [u for u in range(1, n + 1) if placed >> u & 1]
        total = 0
        for v in range(1, n + 1):
            if unplaced >> v & 1:
                rest = unplaced ^ 1 << v
                for u in us:
                    if u < 2 * v and rest >> 2 * v - u & 1:
                        break
                else:
                    total += completions(placed | 1 << v)
        memo[placed] = total
        return total

    return completions(0)


def reference_free_permutations(n, depth=None):
    """A backtracker with a list kill[w] per value, updated value by value
    for each child, and no table of completions: the reference that
    `free_permutations` must match, order included. With `depth`, it
    yields every legal prefix of that length instead, dead ones included.
    """
    depth = n if depth is None else depth
    windows = [sum(1 << w for w in range(v // 2 + 1, (n + v) // 2 + 1))
               for v in range(n + 1)]

    def extend(prefix, unplaced, kill):
        if len(prefix) == depth:
            yield prefix
            return
        m = unplaced
        while m:
            b = m & -m
            m ^= b
            v = b.bit_length() - 1
            rest = unplaced ^ b
            if kill[v] & rest:
                continue
            child = kill.copy()
            ws = rest & windows[v]
            while ws:
                c = ws & -ws
                ws ^= c
                child[c.bit_length() - 1] |= c * c >> v  # 1 << (2w - v)
            yield from extend(prefix + (v,), rest, child)

    return extend((), (1 << (n + 1)) - 2, [0] * (n + 1))


def reference_children(n, unplaced, kill, spray):
    """`_children` by its definition: v is legal iff slot v of `kill`, n+2
    bits wide, misses the values left after v."""
    return [(v, unplaced ^ 1 << v, kill | spray[v]) for v in range(1, n + 1)
            if unplaced >> v & 1 and not kill >> v * (n + 2) & (unplaced ^ 1 << v)]


PAPER_SMALL_AND_MID = dict(enumerate(PAPER_SMALL, start=1)) | COMPUTED_MID


class TestOracle:
    def test_published_values_through_nine(self):
        for n in range(1, 10):
            assert count_oracle(n) == PAPER_SMALL[n - 1]

    def test_published_value_ten_under_the_default_ceiling(self):
        assert count_oracle(10) == 1066

    def test_matches_the_per_permutation_scan(self):
        # perm's per-permutation scan shares no code with the oracle's
        # value-triple test, so it serves as the reference.
        for n in range(1, 9):
            assert count_oracle(n) == sum(
                values_3ap_free(p) for p in itertools.permutations(range(1, n + 1)))

    def test_matches_subset_dp_at_eleven_to_fourteen(self):
        # About 0.6 s in total on one core.
        for n in range(11, 15):
            assert count_oracle(n, ceiling=n) == count_dp(n)

    @pytest.mark.slow
    def test_matches_subset_dp_at_fifteen_and_sixteen(self):
        # About 2 to 3 s in total on one core; opt in with -m slow.
        for n in (15, 16):
            assert count_oracle(n, ceiling=n) == count_dp(n)

    def test_leaves_no_reference_cycle(self):
        # The recursion is a module-level function, not a closure that
        # calls itself, so a call leaves nothing for the collector.
        gc.collect()
        gc.disable()
        try:
            assert count_oracle(8) == PAPER_SMALL[7]
            assert gc.collect() == 0
        finally:
            gc.enable()

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

    def test_computed_values_regression(self):
        for n in (12, 13, 14):
            assert count_pruned(n) == COMPUTED_MID[n]

    def test_oracle_equivalence_at_eleven(self):
        # The oracle decides all 11! arrangements in about 0.03 s on one core.
        assert count_oracle(11, ceiling=11) == PAPER_SMALL[10]
        assert count_pruned(11) == PAPER_SMALL[10]

    def test_both_counters_reject_bad_n(self):
        for counter in (count_dp, count_pruned):
            for n in (0, -3):
                with pytest.raises(ValueError, match=rf"^n must be >= 1, got {n}$"):
                    counter(n)

    def test_neither_counter_takes_a_node_budget(self):
        # Neither counter takes a budget any more, whatever its value.
        for counter in (count_dp, count_pruned):
            for budget in (-1, 0, 10 ** 6):
                with pytest.raises(TypeError, match="node_budget"):
                    counter(5, node_budget=budget)


@pytest.mark.parametrize("n", range(1, 10))
def test_all_routes_agree(n):
    # The pruned and unpruned DP, the backtracker, its outputs re-tested
    # by perm's 3AP test, and the oracle.
    expected = count_dp(n)
    assert sum(reference_levels(n)[n].values()) == expected
    assert count_pruned(n) == expected
    assert count_verified(n) == expected
    assert count_oracle(n) == expected


class TestVerifiedBacktracker:
    def test_names_a_sequence_with_a_3ap(self, monkeypatch):
        # A 3AP sequence slipped into the middle of the second batch of
        # 1,024 is the one the error names.
        real = counting.free_permutations
        bad = tuple(range(1, 13))

        def slipped(n):
            walk = real(n)
            yield from itertools.islice(walk, 1500)
            yield bad
            yield from walk

        monkeypatch.setattr(counting, "free_permutations", slipped)
        with pytest.raises(AssertionError, match=rf"a 3AP: {re.escape(str(bad))}$"):
            count_verified(12)

    def test_agrees_with_subset_dp_at_ten_to_thirteen(self):
        # The sizes the benchmark re-tests; about 0.05 s in total on one core.
        for n in range(10, 14):
            assert count_verified(n) == count_dp(n)

    def test_rejects_n_past_the_byte_lanes(self):
        with pytest.raises(ValueError, match=r"^count_verified needs n <= 63, got 64$"):
            count_verified(64)


class TestSubsetDP:
    def test_matches_pruned_counter(self):
        for n in range(1, 14):
            assert count_dp(n) == count_pruned(n)

    def test_published_and_computed_values(self):
        assert sorted(PAPER_SMALL_AND_MID) == list(range(1, 17))
        for n, value in PAPER_SMALL_AND_MID.items():
            assert count_dp(n) == value

    def test_pruned_counter_agrees_at_fourteen_to_sixteen(self):
        # About 0.5 s in total on one core.
        for n in (14, 15, 16):
            assert count_pruned(n) == count_dp(n)

    @pytest.mark.slow
    def test_pruned_counter_agrees_at_seventeen_and_eighteen(self):
        # About 1.5 s in total on one core; opt in with -m slow.
        for n in (17, 18):
            assert count_pruned(n) == count_dp(n)

    @pytest.mark.slow
    @pytest.mark.parametrize("n", [14, 15, 16])
    def test_verified_backtracker_agrees_at_fourteen_to_sixteen(self, n):
        # Every backtracker output re-tested by perm's 3AP test.
        assert count_verified(n) == count_dp(n)

    @pytest.mark.slow
    def test_recomputes_builtin_theta_64(self):
        # About 0.25 s and 15 MB peak RSS on one core; opt in with -m slow.
        assert count_dp(64) == THETA_64

    @pytest.mark.slow
    def test_recomputes_builtin_theta_75(self):
        # About 0.45 s and 15 MB peak RSS on one core; opt in with -m slow.
        assert count_dp(75) == THETA_75


class TestCompletionCount:
    """The subset DP against a second route past the backtracker's reach."""

    @pytest.mark.parametrize("n", [*range(1, 21), 26])
    def test_agrees_with_subset_dp(self, n):
        # About 1 s in total on one core, most of it n = 26.
        assert completion_count(n) == count_dp(n)

    @pytest.mark.slow
    @pytest.mark.parametrize("n", [21, 22, 23, 24, 25, 28, 32, 36])
    def test_agrees_with_subset_dp_up_to_thirty_six(self, n):
        # About 17 s in total and 35 MB peak RSS on one core, 11 s of it
        # n = 36; opt in with -m slow.
        assert completion_count(n) == count_dp(n)

    @pytest.mark.slow
    def test_unpruned_meet_agrees_with_subset_dp_at_forty(self):
        # The DP's meet on levels that no split test has pruned: f(P) times
        # f([n] minus P) over level floor(n/2), each complement looked up in
        # level ceil(n/2). About 9 s and 80 MB peak RSS on one core; opt in
        # with -m slow.
        n = 40
        ref = reference_levels(n, (n + 1) // 2)
        full = (1 << (n + 1)) - 2
        assert sum(paths * ref[-1].get(full ^ placed, 0)
                   for placed, paths in ref[n // 2].items()) == count_dp(n)


class TestSubsetDPSoundness:
    """The meet-in-the-middle DP with dead states dropped, against the
    unpruned levels of `reference_levels`."""

    @pytest.mark.parametrize("n", range(1, 25))
    def test_kept_states_are_reference_states_and_dropped_ones_are_dead(self, n):
        ref = reference_levels(n)
        full = (1 << (n + 1)) - 2
        assert count_dp(n) == sum(ref[n].values())
        levels = list(_dp_levels(n))
        assert len(levels) == (n + 1) // 2 + 1
        for k, (level, _) in enumerate(levels):
            # Each kept key stands for itself and its mirror, both with its count.
            kept = {}
            for placed, paths in level.items():
                kept[placed] = kept[reflect(placed, n)] = paths
            # Kept states are reachable, with the unpruned path counts.
            assert kept.items() <= ref[k].items()
            # A dropped P is dead: no legal ordering of its complement exists.
            for placed in ref[k].keys() - kept.keys():
                assert full ^ placed not in ref[n - k]

    @pytest.mark.parametrize("n", range(1, 21))
    def test_kept_states_are_the_unsplit_reference_states(self, n):
        # P is split when it holds a and a+3d but neither a+d nor a+2d.
        def split(placed):
            for a in range(1, n + 1):
                for d in range(1, (n - a) // 3 + 1):
                    if (placed >> a & 1 and placed >> a + 3 * d & 1
                            and not placed >> a + d & 1
                            and not placed >> a + 2 * d & 1):
                        return True
            return False

        ref = reference_levels(n)
        for k, (level, _) in enumerate(_dp_levels(n)):
            kept = set(level) | {reflect(placed, n) for placed in level}
            assert kept == {placed for placed in ref[k] if not split(placed)}

    @pytest.mark.parametrize("n", range(1, 25))
    def test_each_level_keeps_the_smaller_member_of_each_mirror_pair(self, n):
        for level, refls in _dp_levels(n):
            assert refls.keys() == level.keys()
            for placed in level:
                mirror = reflect(placed, n)
                assert refls[placed] == mirror
                assert placed <= mirror
                assert placed == mirror or mirror not in level

    @pytest.mark.parametrize("n", range(1, 17))
    def test_mirror_states_share_count_and_fate(self, n):
        # The symmetry the DP relies on, checked on the unpruned levels
        # alone: f(P) = f(R(P)), and P has a completion iff R(P) has one.
        ref = reference_levels(n)
        full = (1 << (n + 1)) - 2
        for k in range(n + 1):
            for placed, paths in ref[k].items():
                mirror = reflect(placed, n)
                assert ref[k].get(mirror) == paths
                assert (full ^ placed in ref[n - k]) == (full ^ mirror in ref[n - k])

    @pytest.mark.parametrize("n", range(1, 17))
    def test_reversal_splits_the_count_at_every_level(self, n):
        # The completions of P are the legal orderings of [n] minus P.
        ref = reference_levels(n)
        full = (1 << (n + 1)) - 2
        for k in range(n + 1):
            assert sum(paths * ref[n - k].get(full ^ placed, 0)
                       for placed, paths in ref[k].items()) == PAPER_SMALL_AND_MID[n]

    def test_dead_states_are_dropped(self):
        # At n = 24, 96% of the reachable states are dead. Levels 0..12
        # hold 27,066 states unpruned, and the DP keeps 822 keys, which
        # stand for 1,636 of them with their mirrors.
        ref = reference_levels(24)
        kept = sum(1 if refls[placed] == placed else 2
                   for level, refls in _dp_levels(24) for placed in level)
        assert kept * 10 < sum(len(level) for level in ref[:13])


class TestFreePermutations:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_enumeration_matches_filtered_oracle(self, n):
        # The brute triple scan shares no code with the backtracker, so the
        # enumeration is pinned, order included, against an independent filter.
        expected = [p for p in itertools.permutations(range(1, n + 1))
                    if brute_find_3ap(p) is None]
        assert list(free_permutations(n)) == expected

    def test_lexicographic_order(self):
        got = list(free_permutations(7))
        assert got == sorted(got)
        assert len(got) == PAPER_SMALL[6]

    def test_every_output_is_a_valid_free_permutation(self):
        for p in free_permutations(6):
            assert is_3ap_free(validate(p))

    @pytest.mark.parametrize("n", range(1, 13))
    def test_children_at_every_node_of_the_walk(self, n):
        masks = _kill_masks(n)
        stack = [((1 << n + 1) - 2, 0)]
        while stack:
            unplaced, kill = stack.pop()
            children = _children(unplaced, kill, masks)
            assert children == reference_children(n, unplaced, kill, masks[0])
            stack += [(rest, child) for _, rest, child in children]

    def test_children_at_random_nodes_up_to_sixty_three(self):
        # At n = 63 the gather multiply spans about 64**2 bits; a carry
        # between its partial products would flip a legal value.
        rng = random.Random("children")
        for n in range(13, 64):
            masks = _kill_masks(n)
            for _ in range(10):
                unplaced, kill = (1 << n + 1) - 2, 0
                while unplaced:
                    children = _children(unplaced, kill, masks)
                    assert children == reference_children(n, unplaced, kill, masks[0])
                    if not children:
                        break
                    _, unplaced, kill = rng.choice(children)

    @pytest.mark.parametrize("n", [*range(9, 15), *(pytest.param(n, marks=pytest.mark.slow)
                                                     for n in (15, 16))])
    def test_matches_the_kill_list_walk(self, n):
        assert list(free_permutations(n)) == list(reference_free_permutations(n))

    @pytest.mark.parametrize("n", range(1, 14))
    def test_prefixes_are_the_reversed_completions_of_their_set(self, n):
        # The walk reads the prefixes with placed set X as the completions
        # of X after the rest, reversed; the reference builds every legal
        # prefix of length floor(n/2), dead or not, step by step.
        masks = _kill_masks(n)
        by_set = collections.defaultdict(list)
        for prefix in reference_free_permutations(n, n // 2):
            by_set[sum(1 << v for v in prefix)].append(prefix)
        table = {0: ((),)}
        for placed, prefixes in by_set.items():
            back = 0
            for u in range(1, n + 1):
                if not placed >> u & 1:
                    back |= masks[0][u]
            done = _completions(placed, back, masks, table)
            assert sorted(s[::-1] for s in done) == sorted(prefixes)

    @pytest.mark.parametrize("n", range(1, 15))
    def test_live_rests_are_those_whose_set_reaches_depth_ceil_half(self, n):
        # The walk keeps a placed set X of size floor(n/2) iff [n] minus X
        # is placed by some legal prefix of length ceil(n/2); checked here
        # on the kill-list walk alone.
        full = (1 << (n + 1)) - 2

        def placed_sets(prefixes, k):
            return {sum(1 << v for v in p[:k]) for p in prefixes}

        live = placed_sets(reference_free_permutations(n), n // 2)
        rests = placed_sets(reference_free_permutations(n, n // 2), n // 2)
        tops = placed_sets(reference_free_permutations(n, (n + 1) // 2), (n + 1) // 2)
        assert live == {placed for placed in rests if full ^ placed in tops}

    def test_generators_of_one_n_share_nothing(self):
        # Each call owns its table of completions, so interleaving two
        # walks, or closing a third partway, changes neither's output.
        expected = list(reference_free_permutations(11))
        a, b, c = (free_permutations(11) for _ in range(3))
        head = [next(c) for _ in range(500)]
        c.close()
        assert list(zip(a, b)) == list(zip(expected, expected))
        assert head == expected[:500]

    def test_bad_n_raises_before_iteration(self):
        with pytest.raises(ValueError, match=r"^n must be >= 1, got 0$"):
            free_permutations(0)

    def test_pairs_are_freed_with_their_generator(self):
        # Only the generator holds its sorted (prefix, completions) pairs,
        # and no reference cycle holds the generator, so dropping it
        # partway frees them at once, without a garbage-collection pass.
        gc.collect()
        gc.disable()
        try:
            walk = free_permutations(13)
            for _ in range(1000):
                next(walk)
            pairs = walk.gi_frame.f_locals["pairs"]
            assert len(pairs) > 100
            del walk
            assert sys.getrefcount(pairs) == 2  # `pairs` and the argument
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.slow
    def test_pairs_stay_under_a_megabyte_at_eighteen(self):
        # The returned generator holds the pairs, which share their
        # orderings with each other; each tuple is counted once.
        walk = free_permutations(18)
        pairs = walk.gi_frame.f_locals["pairs"]
        held = {}
        for x, tails in pairs:
            held[id(x)], held[id(tails)] = x, tails
            held.update((id(s), s) for s in tails)
        size = sys.getsizeof(pairs) + sum(map(sys.getsizeof, pairs)) + sum(
            map(sys.getsizeof, held.values()))
        assert sum(1 for _ in walk) == count_dp(18)
        assert size < 1_000_000


class TestThetaLookup:
    def test_builtin_lookup(self):
        tbl = ThetaTable()
        assert theta(7, tbl) == 104
        assert theta(64, tbl) == THETA_64

    def test_lookup_only_miss(self):
        tbl = ThetaTable()
        with pytest.raises(ValueUnavailable):
            tbl.value(201)
        assert 201 not in tbl

    def test_compute_if_missing(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        tbl = ThetaTable()
        v = theta(12, tbl)
        assert v == COMPUTED_MID[12]
        assert tbl.provenance(12) == PROVENANCE_COMPUTED
        assert tbl.provenance(11) == PROVENANCE_BUILTIN
        # A second call is a lookup, not a recount.
        monkeypatch.setattr(counting, "count_dp",
                            lambda n: pytest.fail(f"recounted n={n}"))
        assert tbl.value(12) == v
        assert theta(12, tbl) == v
        # theta writes no file; saving is the caller's job.
        assert list(tmp_path.iterdir()) == []


class TestThetaTable:
    def test_builtin_contents(self):
        tbl = ThetaTable()
        for n, v in enumerate(PAPER_SMALL, start=1):
            assert tbl.value(n) == v
            assert tbl.provenance(n) == PROVENANCE_BUILTIN
        assert tbl.value(64) == THETA_64

    def test_insert_conflict(self):
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

    @pytest.mark.parametrize("n,value", [(13, 12840), (5, 21)],
                             ids=["n-not-shipped", "value-not-shipped"])
    def test_insert_refuses_a_builtin_the_package_does_not_ship(self, n, value):
        # (5, 21) also disagrees with the builtin theta(5) = 20; the claim
        # is refused before the conflict is looked for.
        tbl = ThetaTable()
        before = tbl.items_sorted()
        with pytest.raises(ValueError, match=rf"builtin tags for n=\[{n}\]"):
            tbl.insert(n, value, PROVENANCE_BUILTIN)
        assert tbl.items_sorted() == before

    def test_a_shipped_builtin_may_be_inserted(self):
        tbl = ThetaTable(include_builtins=False)
        assert tbl.insert(64, THETA_64, PROVENANCE_BUILTIN) is True
        assert tbl.provenance(64) == PROVENANCE_BUILTIN

    def test_merge_checks_the_whole_batch_before_conflicts(self):
        tbl = ThetaTable()
        before = tbl.items_sorted()
        with pytest.raises(ValueError, match=r"builtin tags for n=\[13\]"):
            tbl.merge([(4, 11, PROVENANCE_COMPUTED), (13, 12840, PROVENANCE_BUILTIN)])
        assert tbl.items_sorted() == before

    def test_merge_with_a_conflict_adds_nothing(self):
        tbl = ThetaTable()
        before = tbl.items_sorted()
        with pytest.raises(ConflictError, match=r"^n=4: "):
            tbl.merge([(12, 6128, PROVENANCE_COMPUTED), (13, 12840, PROVENANCE_COMPUTED),
                       (4, 11, PROVENANCE_COMPUTED)])
        assert tbl.items_sorted() == before

    def test_merge_repeating_n_with_another_value_conflicts(self):
        tbl = ThetaTable()
        with pytest.raises(ConflictError, match=r"^n=12: "):
            tbl.merge([(12, 6128, PROVENANCE_COMPUTED), (12, 6129, PROVENANCE_INGESTED)])
        assert 12 not in tbl

    def test_merge_returns_new_n_and_matches_keep_provenance(self):
        tbl = ThetaTable()
        new = tbl.merge([(13, 12840, PROVENANCE_INGESTED), (4, 10, PROVENANCE_INGESTED),
                         (12, 6128, PROVENANCE_INGESTED), (12, 6128, PROVENANCE_COMPUTED)])
        assert new == [13, 12]
        assert tbl.provenance(4) == PROVENANCE_BUILTIN
        assert tbl.provenance(12) == PROVENANCE_INGESTED
        assert tbl.merge([(12, 6128, PROVENANCE_COMPUTED)]) == []
        assert tbl.provenance(12) == PROVENANCE_INGESTED
