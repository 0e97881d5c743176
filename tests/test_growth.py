import pytest

from apfree import (ThetaTable, ValueUnavailable, certificate_text,
                    check_global_bounds, check_halving, check_sandwich,
                    count_dp, global_theta_bounds, limit_bracket,
                    monotone_report, separate, subsequence_point)
from apfree.growth import doubling_points
from apfree.roots import ROUND_FLOOR, decimal_nth_root
from apfree.table import BUILTINS, PROVENANCE_COMPUTED, PROVENANCE_INGESTED
from conftest import THETA_64, THETA_75, bracket_holds, run_checker


def fake_table(**values):
    """Table with hand-picked values, for exercising failure verdicts."""
    tbl = ThetaTable(include_builtins=False)
    for key, v in values.items():
        tbl.insert(int(key[1:]), v, PROVENANCE_INGESTED)
    return tbl


class TestGlobalBounds:
    def test_formula(self):
        assert global_theta_bounds(1) == (1, 1)
        assert global_theta_bounds(4) == (8, 12)
        assert global_theta_bounds(9) == (256, 14400)

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            global_theta_bounds(0)


class TestChecks:
    def test_sandwich_examples(self):
        tbl = ThetaTable()
        r = check_sandwich(3, tbl)
        assert r.passed and r.numbers == (32, 48, 336)
        assert (r.name, r.detail) == ("sandwich k=3", "32 <= 48 <= 336")
        r = check_sandwich(5, tbl)
        assert r.passed and r.numbers == (800, 1066, 8400)
        r = check_sandwich(1, tbl)  # lower bound is tight here
        assert r.passed and r.numbers == (2, 2, 21)

    def test_sandwich_missing_value(self):
        with pytest.raises(ValueUnavailable):
            check_sandwich(6, ThetaTable())  # needs n=12

    def test_sandwich_failure_detected(self):
        r = check_sandwich(1, fake_table(n1=1, n2=100))
        assert r.status == "fail"
        assert r.numbers == (2, 100, 21)
        assert (r.name, r.detail) == ("sandwich k=1", "2 <= 100 <= 21")
        r = check_sandwich(1, fake_table(n1=1, n2=1))  # below the lower end
        assert r.status == "fail" and r.numbers == (2, 1, 21)

    def test_halving_examples(self):
        tbl = ThetaTable()
        assert check_halving(7, tbl).numbers == (104, 840)
        assert check_halving(11, tbl).numbers == (2460, 20160)
        r = check_halving(3, tbl)
        assert r.numbers == (4, 42)
        assert (r.name, r.detail) == ("halving n=3", "4 <= 42")
        assert all(check_halving(n, tbl).passed for n in range(3, 12))

    def test_halving_requires_n_at_least_three(self):
        with pytest.raises(ValueError):
            check_halving(2, ThetaTable())

    def test_halving_failure_detected(self):
        r = check_halving(3, fake_table(n1=1, n2=2, n3=100))
        assert r.status == "fail" and r.numbers == (100, 42)
        assert (r.name, r.detail) == ("halving n=3", "100 <= 42")
        r = check_halving(3, fake_table(n1=1, n2=2, n3=42))  # equality passes
        assert r.passed and r.numbers == (42, 42)

    def test_global_bounds_examples(self):
        tbl = ThetaTable()
        r = check_global_bounds(4, tbl)
        assert r.numbers == (8, 10, 12)
        assert (r.name, r.detail) == ("global n=4", "8 <= 10 <= 12")
        assert check_global_bounds(1, tbl).numbers == (1, 1, 1)
        assert check_global_bounds(9, tbl).numbers == (256, 496, 14400)
        assert all(check_global_bounds(n, tbl).passed for n in tbl.available())

    def test_global_bounds_failure_detected(self):
        low = check_global_bounds(4, fake_table(n4=7))
        assert low.status == "fail" and low.numbers == (8, 7, 12)
        assert (low.name, low.detail) == ("global n=4", "8 <= 7 <= 12")
        high = check_global_bounds(4, fake_table(n4=13))
        assert high.status == "fail" and high.numbers == (8, 13, 12)
        assert high.detail == "8 <= 13 <= 12"


class TestSubsequencePoint:
    def test_trivial_point(self):
        pt = subsequence_point(1, 0, ThetaTable())
        assert (pt.radicand, pt.degree) == (1, 1)
        assert pt.text == "1.00000000000"
        assert pt.digits == 11

    def test_n_ten_point(self):
        # theta(10)^(1/10), truncated at 11 places; the cross-check value
        # (2*theta(10))^(1/10) matches the published constant 2.152.
        pt = subsequence_point(5, 1, ThetaTable())
        assert (pt.radicand, pt.degree) == (1066, 10)
        assert pt.text == "2.00805553932"
        assert bracket_holds(pt)
        c = decimal_nth_root(2 * 1066, 10, 11, ROUND_FLOOR)
        assert c.text == "2.15218063834"
        assert c.text.startswith("2.152")

    def test_missing_value(self):
        with pytest.raises(ValueUnavailable):
            subsequence_point(1, 4, ThetaTable())  # needs n=16

    def test_bad_args(self):
        with pytest.raises(ValueError):
            subsequence_point(0, 1, ThetaTable())
        with pytest.raises(ValueError):
            subsequence_point(1, -1, ThetaTable())


class TestLimitBracket:
    def test_exact_pairs_at_n64(self):
        b = limit_bracket(1, 6, ThetaTable())
        assert b.root == 64
        assert b.lower_radicand == 2 * THETA_64
        assert b.upper_radicand == 21 * THETA_64
        assert b.lower_radicand < b.upper_radicand
        assert b.lower_decimal().text == "2.27953231299"

    def test_exact_pairs_at_n75(self):
        b = limit_bracket(75, 0, ThetaTable())
        assert b.root == 75
        assert b.upper_radicand == 21 * THETA_75
        assert b.upper_decimal().text == "2.27703523933"

    def test_missing_value(self):
        with pytest.raises(ValueUnavailable):
            limit_bracket(1, 7, ThetaTable())  # needs n=128

    def test_bound_holds_only_root_and_radicands(self):
        # The point's m and t are not kept: only the exact pair matters.
        b = limit_bracket(1, 6, ThetaTable())
        assert tuple(b) == (64, 2 * THETA_64, 21 * THETA_64)
        assert limit_bracket(4, 4, ThetaTable()) == b


class TestSeparate:
    def test_default_instance_separates(self):
        tbl = ThetaTable()
        cert = separate(1, 6, 75, 0, tbl)
        assert cert.separated is True
        A = 2 * THETA_64
        B = 21 * THETA_75
        assert cert.lhs == A ** 75
        assert cert.rhs == B ** 64
        assert cert.lhs > cert.rhs
        assert cert.provenance_low == "builtin"
        assert cert.provenance_high == "builtin"

    def test_same_point_never_separates(self):
        cert = separate(1, 0, 1, 0, ThetaTable())
        assert cert.separated is False
        assert (cert.lhs, cert.rhs) == (2, 21)

    def test_missing_value(self):
        with pytest.raises(ValueUnavailable):
            separate(1, 7, 81, 1, ThetaTable())

    @pytest.mark.slow
    def test_the_papers_pair_is_the_only_one_through_75(self):
        # theta(1..75) recomputed by the subset DP, about 13 s on one core;
        # opt in with -m slow. Of the ordered pairs of points n <= 75 with
        # different odd parts, only 64 against 75 separates.
        tbl = ThetaTable(include_builtins=False)
        for n in range(1, 76):
            tbl.insert(n, count_dp(n), PROVENANCE_COMPUTED)
        assert {n: tbl.value(n) for n in BUILTINS} == BUILTINS
        # Each n as its point (m, t): n = m * 2^t with m odd.
        points = [(n >> t, t) for n in range(1, 76)
                  for t in [(n & -n).bit_length() - 1]]
        separated = [(m_low << t_low, m_high << t_high)
                     for m_low, t_low in points for m_high, t_high in points
                     if m_low != m_high
                     and separate(m_low, t_low, m_high, t_high, tbl).separated]
        assert separated == [(64, 75)]


class TestCertificateDocument:
    """The document `certificate_text` writes, judged by the standalone
    checker, the one certificate verifier (exit 0 sound and separated,
    2 unsound)."""

    @staticmethod
    def check(text, tmp_path):
        cert = tmp_path / "cert.txt"
        cert.write_text(text, encoding="utf-8")
        return run_checker(cert)

    def test_round_trip_and_verification(self, tmp_path):
        cert = separate(1, 6, 75, 0, ThetaTable())
        text = certificate_text(cert)
        fields = dict(line.split(": ", 1) for line in text.splitlines()[1:])
        assert fields["separated"] == "true"
        assert int(fields["lhs"]) == cert.lhs
        assert fields["lower_decimal"] == "2.27953231299"
        assert fields["upper_decimal"] == "2.27703523933"
        code, out = self.check(text, tmp_path)
        assert code == 0 and out.startswith("SOUND")

    def test_tampering_is_detected(self, tmp_path):
        text = certificate_text(separate(1, 6, 75, 0, ThetaTable()))
        for old, new in [("separated: true", "separated: false"),
                         ("theta_low: 3991", "theta_low: 3992"),
                         ("lhs: 4566", "lhs: 4567"),
                         ("n_low: 64", "n_low: 63")]:
            assert old in text
            code, out = self.check(text.replace(old, new), tmp_path)
            assert (code, out[:8]) == (2, "UNSOUND:"), old

    def test_header_required(self, tmp_path):
        code, out = self.check("not a certificate\n", tmp_path)
        assert code == 2 and out.startswith("UNSOUND")

    def test_missing_field_reported(self, tmp_path):
        text = certificate_text(separate(1, 6, 75, 0, ThetaTable()))
        without = "\n".join(l for l in text.splitlines() if not l.startswith("rhs:"))
        code, out = self.check(without + "\n", tmp_path)
        assert code == 2 and out.startswith("UNSOUND: missing field 'rhs'")


class TestMonotoneReport:
    def test_builtin_doubling_chain(self):
        r = monotone_report(1, ThetaTable())
        assert r.passed
        assert "t=0->1" in r.detail and "t=2->3" in r.detail
        # The builtin chain has gaps at 8 -> 16 and 64 -> 128.
        assert "t=3->4" not in r.detail and "t=6->7" not in r.detail

    def test_odd_base_three(self):
        r = monotone_report(3, ThetaTable())
        assert r.passed
        assert "32 <= 48 <= 336" in r.detail

    def test_single_point_skips(self):
        r = monotone_report(7, ThetaTable())
        assert r.status == "skip"
        assert "insufficient data" in r.detail

    def test_violation_detected(self):
        r = monotone_report(1, fake_table(n1=1, n2=50))
        assert r.status == "fail"

    def test_strict_increase_required(self):
        # Equal squares would break strict monotonicity even inside the
        # sandwich: value(2) = value(1)^2 = 4 with value(1) = 2.
        r = monotone_report(1, fake_table(n1=2, n2=4))
        assert r.status == "fail"

    def test_max_n_restriction(self):
        r = monotone_report(1, ThetaTable(), max_n=2)
        assert r.passed
        assert "t=1->2" not in r.detail


class TestDoublingPoints:
    def test_points_in_the_table(self):
        tbl = ThetaTable()
        assert doubling_points(1, tbl) == [(0, 1), (1, 2), (2, 4), (3, 8), (6, 64)]
        assert doubling_points(3, tbl) == [(0, 3), (1, 6)]
        assert doubling_points(1, tbl, max_n=5) == [(0, 1), (1, 2), (2, 4)]
        assert doubling_points(13, tbl) == []

    @pytest.mark.parametrize("m", [0, -3])
    def test_rejects_nonpositive_m(self, m):
        with pytest.raises(ValueError):
            doubling_points(m, ThetaTable())
        with pytest.raises(ValueError):
            monotone_report(m, ThetaTable())


class TestReferenceConstants:
    # `analyze` quotes (2*theta(k))^(1/k) as the lower bracket at n = k.
    def test_builtin_only_has_the_n10_constant(self):
        tbl = ThetaTable()
        assert limit_bracket(10, 0, tbl).lower_decimal(6).text == "2.152181"
        with pytest.raises(ValueUnavailable):
            limit_bracket(16, 0, tbl)

    def test_computed_table_adds_the_n16_constant(self, computed_table):
        assert limit_bracket(10, 0, computed_table).lower_decimal(6).text == "2.152181"
        assert limit_bracket(16, 0, computed_table).lower_decimal(6).text == "2.248037"


def test_envelope_plumbing_with_synthetic_values():
    # Synthetic powers of two stand in for the real n=128 and n=160 counts
    # so the envelope's brackets can be exercised without the published
    # data file. (2 * 2^190)^(1/160) = 2^(191/160) and (21 * 2^150)^(1/128).
    tbl = fake_table(n128=2 ** 150, n160=2 ** 190)
    liminf = limit_bracket(160, 0, tbl).lower_decimal(6)
    limsup = limit_bracket(128, 0, tbl).upper_decimal(6)
    assert liminf.radicand == 2 ** 191
    assert limsup.radicand == 21 * 2 ** 150
    assert bracket_holds(liminf)
    assert bracket_holds(limsup)
    assert liminf.text == "2.287466"
    assert limsup.text == "2.307275"


def test_sandwich_equivalence_with_root_form():
    # The root-form statement is the (2k)-th root of the integer one, so
    # floor roots of the three integers must be ordered the same way.
    tbl = ThetaTable()
    for k in range(1, 6):
        v = tbl.value(k)
        mid = tbl.value(2 * k)
        assert check_sandwich(k, tbl).passed
        lo = decimal_nth_root(2 * v * v, 2 * k, 15, ROUND_FLOOR)
        md = decimal_nth_root(mid, 2 * k, 15, ROUND_FLOOR)
        hi = decimal_nth_root(21 * v * v, 2 * k, 15, ROUND_FLOOR)
        assert lo.scaled <= md.scaled <= hi.scaled
