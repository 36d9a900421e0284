"""Terminal-to-beam association and per-beam demand accounting."""

import io
import math

import numpy as np
import pytest

from sattraffic.geo import GeoPoint
from sattraffic.geometry import Polygon, point_in_polygon
from sattraffic.ingest import Terminal, TerminalBlock, TrafficType
from sattraffic.pattern import BeamFootprint, BeamPattern, all_footprints, parse_pattern
from sattraffic.traffic import (
    TRAFFIC_HEADER,
    TrafficMatrix,
    build_traffic_matrix,
    per_beam_demand,
    write_traffic_csv,
)

from oracles import beam_samples, interpolate_gain


def square_pattern():
    """One beam sampled on a 3x3 grid over the unit square, uniform gain."""
    lat = np.repeat([0.0, 0.5, 1.0], 3)
    lon = np.tile([0.0, 0.5, 1.0], 3)
    return BeamPattern(lat, lon, np.full((9, 1), 50.0))


def square_footprint(beam_id=1):
    border = Polygon(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)))
    return BeamFootprint(beam_id=beam_id, border=border, peak_gain_db=50.0)


def gaussian_pair_pattern(pitch=0.2):
    """Two overlapping beams with Gaussian gain peaks at lon 1.0 and 2.4."""
    lats = np.arange(-1.6, 1.6 + 1e-9, pitch)
    lons = np.arange(-0.8, 4.2 + 1e-9, pitch)
    glat = np.repeat(lats, len(lons))
    glon = np.tile(lons, len(lats))
    centers = [(0.0, 1.0), (0.0, 2.4)]
    r3 = 1.2
    cols = []
    for clat, clon in centers:
        d2 = (glat - clat) ** 2 + (glon - clon) ** 2
        cols.append(50.0 - 3.0 * d2 / r3**2)
    gain = np.column_stack(cols)
    return BeamPattern(glat, glon, gain)


def fss(ident, lat, lon, demand=2.0):
    return Terminal(ident, GeoPoint(lat, lon), TrafficType.FSS, demand)


def matrix(rows, beams, excluded=0):
    """TrafficMatrix from (beam, lat, lon, type, demand) tuples, user order."""
    names = ("beam", "lat_deg", "lon_deg", "type", "demand_mbps")
    columns = zip(*rows) if rows else ((),) * len(names)
    return TrafficMatrix(**dict(zip(names, columns)), beams=beams, excluded=excluded)


def beam_by_location(T):
    return dict(zip(zip(T.lat_deg.tolist(), T.lon_deg.tolist()), T.beam.tolist()))


class TestBuildTrafficMatrix:
    def test_single_terminal_at_center(self):
        T = build_traffic_matrix(
            [square_footprint()], square_pattern(), [fss("a", 0.5, 0.5)], [], []
        )
        assert T.n_users == 1
        assert T.excluded == 0
        assert T.beam[0] == 1
        assert T.type[0] == TrafficType.FSS

    def test_uncovered_terminal_excluded(self):
        T = build_traffic_matrix(
            [square_footprint()], square_pattern(),
            [fss("a", 0.5, 0.5), fss("b", 5.0, 5.0)], [], [],
        )
        assert T.n_users == 1
        assert T.excluded == 1

    def test_boundary_point_is_covered(self):
        T = build_traffic_matrix(
            [square_footprint()], square_pattern(), [fss("a", 0.0, 0.5)], [], []
        )
        assert T.n_users == 1

    def test_overlap_resolved_toward_stronger_beam(self):
        pattern = gaussian_pair_pattern()
        fps = all_footprints(pattern)
        # inside both footprints, nearer the second boresight
        T = build_traffic_matrix(fps, pattern, [fss("a", 0.0, 2.0)], [], [])
        assert T.beam[0] == 2
        T = build_traffic_matrix(fps, pattern, [fss("a", 0.0, 1.4)], [], [])
        assert T.beam[0] == 1

    def test_assignment_matches_gain_oracle(self):
        pattern = gaussian_pair_pattern()
        fps = all_footprints(pattern)
        rng = np.random.default_rng(17)
        terms = [
            fss(f"t{i}", float(rng.uniform(-1.2, 1.2)), float(rng.uniform(-0.5, 3.9)))
            for i in range(200)
        ]
        T = build_traffic_matrix(fps, pattern, terms, [], [])
        by_loc = beam_by_location(T)
        for t in terms:
            containing = [
                fp.beam_id for fp in fps
                if point_in_polygon((t.location.lat_deg, t.location.lon_deg), fp.border)
            ]
            key = (t.location.lat_deg, t.location.lon_deg)
            if not containing:
                assert key not in by_loc
                continue
            gains = {
                j: interpolate_gain(t.location, beam_samples(pattern, j))
                for j in containing
            }
            best = max(gains.values())
            expect = min(j for j, g in gains.items() if g == best)
            assert by_loc[key] == expect

    def test_rows_inside_assigned_footprint(self):
        pattern = gaussian_pair_pattern()
        fps = all_footprints(pattern)
        rng = np.random.default_rng(3)
        terms = [
            fss(f"t{i}", float(rng.uniform(-1.6, 1.6)), float(rng.uniform(-0.8, 4.2)))
            for i in range(300)
        ]
        T = build_traffic_matrix(fps, pattern, terms, [], [])
        borders = {fp.beam_id: fp.border for fp in fps}
        for (lat, lon), beam in beam_by_location(T).items():
            assert point_in_polygon((lat, lon), borders[beam])
        assert T.n_users + T.excluded == len(terms)

    def test_shuffle_invariance(self):
        pattern = gaussian_pair_pattern()
        fps = all_footprints(pattern)
        rng = np.random.default_rng(23)
        terms = [
            fss(f"t{i}", float(rng.uniform(-1.4, 1.4)), float(rng.uniform(-0.6, 4.0)))
            for i in range(150)
        ]
        T1 = build_traffic_matrix(fps, pattern, terms, [], [])
        order = rng.permutation(len(terms))
        T2 = build_traffic_matrix(fps, pattern, [terms[i] for i in order], [], [])
        assert beam_by_location(T1) == beam_by_location(T2)
        assert T1.excluded == T2.excluded

    def test_type_blocks_keep_input_order(self):
        pattern = square_pattern()
        fps = [square_footprint()]
        aero = [Terminal("f1", GeoPoint(0.2, 0.2), TrafficType.AERO, 10.0)]
        mar = [Terminal("s1", GeoPoint(0.8, 0.8), TrafficType.MARITIME, 8.0)]
        T = build_traffic_matrix(fps, pattern, [fss("a", 0.5, 0.5)], aero, mar)
        assert T.type.tolist() == [1, 2, 3]
        assert T.demand_mbps.tolist() == [2.0, 10.0, 8.0]

    def test_no_contested_terminal(self):
        # disjoint footprints: every covered terminal has a single candidate
        # beam, so the gain search runs over no terminals at all
        pattern = gaussian_pair_pattern()
        fps = [
            BeamFootprint(
                beam_id=j,
                border=Polygon(((-0.5, lo), (0.5, lo), (0.5, lo + 1.0), (-0.5, lo + 1.0))),
                peak_gain_db=50.0,
            )
            for j, lo in ((1, 0.0), (2, 2.0))
        ]
        terms = [fss("a", 0.0, 2.5), fss("b", 0.0, 1.5), fss("c", 0.2, 0.5)]
        T = build_traffic_matrix(fps, pattern, terms, [], [])
        assert T.beam.tolist() == [2, 1]
        assert T.excluded == 1
        T = build_traffic_matrix(fps, pattern, [], [], [])
        assert T.n_users == 0
        assert T.excluded == 0

    def test_row_column_names_input_rows(self):
        pattern = square_pattern()
        fps = [square_footprint()]
        fss_terms = [fss("out", 2.0, 2.0), fss("a", 0.5, 0.5)]
        aero = [Terminal("f1", GeoPoint(0.2, 0.2), TrafficType.AERO, 10.0),
                Terminal("f2", GeoPoint(-1.0, 0.2), TrafficType.AERO, 10.0)]
        mar = TerminalBlock.of([Terminal("s1", GeoPoint(0.8, 0.8), TrafficType.MARITIME, 8.0)])
        T = build_traffic_matrix(fps, pattern, fss_terms, aero, mar)
        assert T.row.tolist() == [1, 2, 4]
        assert T.type.tolist() == [1, 2, 3]
        assert T.excluded == 2
        with pytest.raises(ValueError):
            T.row[0] = 0
        assert matrix([(1, 0.0, 0.0, 1, 2.0)] * 3, beams=1).row.tolist() == [0, 1, 2]

    def test_a_block_and_the_list_of_its_terminals_associate_alike(self):
        # 360.5 and -359.5 wrap to 0.5, inside the unit square
        block = TerminalBlock(["a", "b", "c"], [0.5, 0.5, 0.5], [360.5, -359.5, 0.5],
                              [1, 2, 3], [2.0, 10.0, 8.0])
        fps, pattern = [square_footprint()], square_pattern()
        by_block = build_traffic_matrix(fps, pattern, block, [], [])
        by_list = build_traffic_matrix(fps, pattern, list(block), [], [])
        assert by_block.n_users == 3
        for name in ("beam", "lat_deg", "lon_deg", "type", "demand_mbps", "row"):
            assert getattr(by_block, name).tobytes() == getattr(by_list, name).tobytes()

    def test_empty_footprints_rejected(self):
        with pytest.raises(ValueError):
            build_traffic_matrix([], square_pattern(), [], [], [])

    def test_duplicate_footprint_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            build_traffic_matrix(
                [square_footprint(), square_footprint()], square_pattern(), [], [], []
            )


class TestPerBeamDemand:
    def test_empty_matrix(self):
        T = matrix([], beams=3)
        assert per_beam_demand(T).shape == (3, 3)
        assert not per_beam_demand(T).any()

    def test_two_rows_one_beam(self):
        rows = [
            (3, 0.0, 0.0, TrafficType.FSS, 2.0),
            (3, 0.0, 1.0, TrafficType.MARITIME, 8.0),
        ]
        totals = per_beam_demand(matrix(rows, beams=3))
        assert totals[2].sum() == 10.0
        assert totals[2, 0] == 2.0
        assert totals[2, 2] == 8.0
        assert totals[:2].sum() == 0.0

    def test_matches_group_by_oracle(self):
        rng = np.random.default_rng(9)
        rows = []
        for _ in range(500):
            rows.append(
                (
                    int(rng.integers(1, 8)),
                    float(rng.uniform(-5, 5)),
                    float(rng.uniform(-5, 5)),
                    int(rng.integers(1, 4)),
                    float(rng.integers(0, 100)),
                )
            )
        totals = per_beam_demand(matrix(rows, beams=7))
        oracle = {}
        for beam, _, _, typ, demand in rows:
            oracle[(beam, typ)] = oracle.get((beam, typ), 0.0) + demand
        for (beam, typ), want in oracle.items():
            assert totals[beam - 1, typ - 1] == want
        assert totals.sum() == sum(row[4] for row in rows)


class TestValidation:
    def test_beam_out_of_range(self):
        with pytest.raises(ValueError, match="beam 5"):
            matrix([(5, 0.0, 0.0, TrafficType.FSS, 2.0)], beams=2)
        with pytest.raises(ValueError, match="beam 0"):
            matrix([(0, 0.0, 0.0, TrafficType.FSS, 2.0)], beams=2)

    def test_negative_demand_rejected(self):
        with pytest.raises(ValueError, match="^demand_mbps must be a finite number >= 0, got -1.0$"):
            matrix([(1, 0.0, 0.0, TrafficType.FSS, -1.0)], beams=1)
        with pytest.raises(ValueError, match="^demand_mbps must be a finite number >= 0, got nan$"):
            matrix([(1, 0.0, 0.0, TrafficType.FSS, math.nan)], beams=1)

    def test_unknown_type_rejected(self):
        for bad in (0, 4):
            with pytest.raises(ValueError, match=f"type {bad}"):
                matrix([(1, 0.0, 0.0, bad, 2.0)], beams=1)

    def test_columns_must_have_equal_length(self):
        with pytest.raises(ValueError, match="lat_deg"):
            TrafficMatrix([1, 1], [0.0], [0.0, 0.0], [1, 1], [2.0, 2.0],
                          beams=1, excluded=0)

    def test_longitudes_wrap_as_a_geopoints_do(self):
        T = matrix([(1, 0.0, 365.0, 1, 2.0), (1, 0.0, -180.0, 1, 2.0)], beams=1)
        assert T.lon_deg.tolist() == [5.0, -180.0]
        assert not T.lon_deg.flags.writeable

    def test_columns_read_only(self):
        beam = np.array([1, 2])
        T = TrafficMatrix(beam, [0.0, 0.5], [0.0, 0.5], [1, 2], [2.0, 10.0],
                          beams=2, excluded=0)
        with pytest.raises(ValueError):
            T.beam[0] = 2
        beam[0] = 2  # the matrix holds its own copy
        assert T.beam.tolist() == [1, 2]


class TestTrafficCsv:
    def test_golden_output(self, tmp_path):
        rows = [
            (2, 50.25, 10.5, TrafficType.FSS, 2.0),
            (1, -3.125, 0.0, TrafficType.AERO, 10.0),
        ]
        T = matrix(rows, beams=2, excluded=1)
        out = tmp_path / "traffic.csv"
        write_traffic_csv(T, out)
        assert out.read_text() == (
            "user,beam,lat_deg,lon_deg,type,demand_mbps\n"
            "1,2,50.25,10.5,1,2\n"
            "2,1,-3.125,0,2,10\n"
        )
