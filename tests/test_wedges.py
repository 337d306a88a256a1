import math

import pytest

from decadic import Sector, WedgePair, lower_sector_pairs, pt_pairs, sectors_for_degree

PI = math.pi


class TestSectors:
    def test_quartic_asymptotics(self):
        # z = 2 must reproduce the classic four sectors
        expected = [(-PI / 8, PI / 8), (3 * PI / 8, 5 * PI / 8),
                    (7 * PI / 8, 9 * PI / 8), (11 * PI / 8, 13 * PI / 8)]
        got = sectors_for_degree(2)
        assert len(got) == 4
        for sector, (lo, hi) in zip(got, expected):
            assert sector.lo == pytest.approx(lo, abs=1e-15)
            assert sector.hi == pytest.approx(hi, abs=1e-15)

    def test_decadic_asymptotics(self):
        got = sectors_for_degree(3)
        assert len(got) == 6
        for k, sector in enumerate(got):
            assert sector.half_width == pytest.approx(PI / 12, abs=1e-15)
            assert sector.center == pytest.approx(k * PI / 3, abs=1e-14)

    def test_harmonic_asymptotics(self):
        got = sectors_for_degree(1)
        assert [s.center for s in got] == pytest.approx([0.0, PI])
        assert all(s.half_width == pytest.approx(PI / 4) for s in got)

    def test_membership_matches_decay_condition(self):
        # independent oracle: exp(-x^(2z)/2z) decays iff cos(2 z phi) > 0
        for z in range(1, 6):
            sectors = sectors_for_degree(z)
            for k in range(2000):
                phi = -PI + (2 * PI) * k / 2000 + 1e-4
                decays = math.cos(2 * z * phi) > 0
                inside = any(s.contains(phi) for s in sectors)
                assert inside == decays, (z, phi)

    def test_total_width_is_half_circle(self):
        for z in range(1, 9):
            total = sum(s.hi - s.lo for s in sectors_for_degree(z))
            assert total == pytest.approx(PI, abs=1e-12)

    def test_invalid_degree(self):
        with pytest.raises(ValueError):
            sectors_for_degree(0)


class TestSectorContains:
    def test_interior_point(self):
        s = Sector(-PI / 8, PI / 8)
        assert s.contains(0.0)

    def test_boundary_excluded(self):
        s = Sector(-PI / 8, PI / 8)
        assert not s.contains(PI / 8)
        assert not s.contains(-PI / 8)

    def test_modular_wraparound(self):
        s = Sector(11 * PI / 8, 13 * PI / 8)  # crosses 2*pi
        assert s.contains(3 * PI / 2)
        assert s.contains(3 * PI / 2 - 2 * PI)
        assert not s.contains(0.0)

    def test_lower_pair_center(self):
        lp = lower_sector_pairs(4.0)
        assert lp.first.left.contains(-2 * PI / 3)

    def test_empty_sector_rejected(self):
        with pytest.raises(ValueError):
            Sector(1.0, 1.0)


class TestMirrorPairs:
    def test_triple_choice_at_z3(self):
        pairs, fixed = pt_pairs(3)
        assert len(pairs) == 3
        assert fixed == []
        assert [p.index for p in pairs] == [1, 2, 3]
        # pair 1 contains the real axis
        assert pairs[0].right.contains(0.0)
        assert pairs[0].left.contains(PI)

    def test_z2_real_pair_plus_fixed_sectors(self):
        pairs, fixed = pt_pairs(2)
        assert len(pairs) == 1
        assert pairs[0].right.center == pytest.approx(0.0)
        assert pairs[0].left.center == pytest.approx(PI)
        assert sorted(s.center for s in fixed) == pytest.approx([PI / 2, 3 * PI / 2])

    def test_z1_single_pair(self):
        pairs, fixed = pt_pairs(1)
        assert len(pairs) == 1 and fixed == []

    def test_counts_against_direct_enumeration(self):
        for z in range(1, 41):
            sectors = sectors_for_degree(z)
            # enumerate mirror partners directly from the sector intervals
            matched, fixed_count = set(), 0
            for i, s in enumerate(sectors):
                image = s.mirrored()
                for j, t in enumerate(sectors):
                    delta = (image.center - t.center) % (2 * PI)
                    if min(delta, 2 * PI - delta) < 1e-9:
                        if i == j:
                            fixed_count += 1
                        else:
                            matched.add(frozenset((i, j)))
            pairs, fixed = pt_pairs(z)
            assert len(pairs) == len(matched)
            assert len(fixed) == fixed_count
            assert {frozenset((sectors.index(p.left), sectors.index(p.right)))
                    for p in pairs} == matched
            assert all(math.cos(p.right.center) > 0 for p in pairs)
            if z % 2 == 1:
                assert len(pairs) == z and len(fixed) == 0
            else:
                assert len(pairs) == z - 1 and len(fixed) == 2

    def test_mirror_involution(self):
        for z in range(1, 9):
            for s in sectors_for_degree(z):
                twice = s.mirrored().mirrored()
                assert abs((twice.lo - s.lo) % (2 * PI)) % (2 * PI) < 1e-12 \
                    or abs(((twice.lo - s.lo) % (2 * PI)) - 2 * PI) < 1e-12
                assert twice.hi - twice.lo == pytest.approx(s.hi - s.lo, abs=1e-12)

    def test_pair_validation(self):
        with pytest.raises(ValueError):
            WedgePair(left=Sector(0.0, 1.0), right=Sector(0.0, 1.0), index=1)


class TestLowerSectorPairs:
    def test_delta_four(self):
        lp = lower_sector_pairs(4.0)
        assert lp.half_width == pytest.approx(PI / 12, abs=1e-15)
        assert lp.first.left.lo == pytest.approx(-3 * PI / 4, abs=1e-14)
        assert lp.first.left.hi == pytest.approx(-7 * PI / 12, abs=1e-14)
        assert not lp.second_pair_real_compatible

    def test_delta_one_outer_pair(self):
        lp = lower_sector_pairs(1.0)
        assert lp.half_width == pytest.approx(PI / 6, abs=1e-15)
        assert lp.second.left.lo == pytest.approx(-4 * PI / 3, abs=1e-14)
        assert lp.second.left.hi == pytest.approx(-PI, abs=1e-14)

    def test_delta_zero_harmonic_width(self):
        assert lower_sector_pairs(0.0).half_width == pytest.approx(PI / 4)

    def test_real_compatibility_window(self):
        assert lower_sector_pairs(2.0).second_pair_real_compatible
        assert not lower_sector_pairs(0.5).second_pair_real_compatible
        assert not lower_sector_pairs(3.0).second_pair_real_compatible

    def test_domain_edge(self):
        with pytest.raises(ValueError):
            lower_sector_pairs(-2.0)
        with pytest.raises(ValueError, match="must be finite and exceed -2"):
            lower_sector_pairs(math.inf)
        # sectors that round away beside pi/2, or lose their mirror symmetry
        # near -2, name the admissible range rather than an empty Sector
        for delta in (1e300, 1e17, -1.9999):
            with pytest.raises(ValueError, match=r"every delta in \[-1.99, 1e15\]"):
                lower_sector_pairs(delta)
        for delta in (-1.99, 1e15):
            assert lower_sector_pairs(delta).half_width > 0

    def test_pairs_are_mirror_images(self):
        # WedgePair construction validates the mirror property to 1e-12
        for delta in (0.0, 0.5, 1.0, 2.5, 4.0, 7.0):
            lp = lower_sector_pairs(delta)
            assert lp.first.index == 1
            assert lp.second.index == 2
