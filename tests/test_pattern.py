"""Pattern parsing, serialization, and -3 dB footprint extraction."""

import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sattraffic.errors import (
    CollinearInputError,
    DegenerateFootprintError,
    ParseError,
    SchemaError,
)
from sattraffic.geometry import convex_hull, delaunay, point_in_polygon
from sattraffic.pattern import (
    BeamFootprint,
    BeamPattern,
    all_footprints,
    beam_footprint,
    parse_pattern,
    write_pattern,
)
from sattraffic.geo import GeoPoint

from oracles import SamplePoint, _parse_rows, beam_samples


def gaussian_gain(peak, center, lat, lon, r3db):
    """Analytic beam model used by the tests: -3 dB circle of radius r3db."""
    d2 = (lat - center[0]) ** 2 + (lon - center[1]) ** 2
    return peak - 3.0 * d2 / (r3db * r3db)


def grid_pattern(beams_spec, lat0, lat1, lon0, lon1, pitch):
    """Build a BeamPattern from (peak, center, r3db) beam specs on a grid."""
    lats = np.arange(lat0, lat1 + pitch / 2, pitch)
    lons = np.arange(lon0, lon1 + pitch / 2, pitch)
    glat, glon = np.meshgrid(lats, lons, indexing="ij")
    glat, glon = glat.ravel(), glon.ravel()
    gain = np.column_stack(
        [gaussian_gain(p, c, glat, glon, r) for (p, c, r) in beams_spec]
    )
    return BeamPattern(glat, glon, gain)


VALID_TWO_BEAM = (
    "beam_id,lat_deg,lon_deg,gain_db,phase_rad\n"
    "1,50,10,52,0\n"
    "1,50,10.5,51,0.25\n"
    "1,50.5,10,50,0.5\n"
    "1,50.5,10.5,49,0.75\n"
    "2,50,10,48,1\n"
    "2,50,10.5,49.5,1.25\n"
    "2,50.5,10,50.5,1.5\n"
    "2,50.5,10.5,51.5,1.75\n"
)


class TestParsePattern:
    def test_two_beam_four_sample_file(self):
        pat = parse_pattern(io.StringIO(VALID_TWO_BEAM))
        assert pat.beams == 2
        assert pat.samples_per_beam == 4
        assert pat.gain_db[0, 0] == 52.0
        assert pat.gain_db[3, 1] == 51.5

    def test_ragged_beam_is_schema_error(self):
        text = VALID_TWO_BEAM.rsplit("\n", 2)[0] + "\n"  # drop beam 2's last sample
        with pytest.raises(SchemaError, match="beam 2 has 3 samples"):
            parse_pattern(io.StringIO(text))

    def test_bad_header(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_pattern(io.StringIO("lat,lon,gain\n1,2,3\n"))

    def test_bad_float_reports_line(self):
        text = "beam_id,lat_deg,lon_deg,gain_db,phase_rad\n1,50,10,oops,0\n"
        with pytest.raises(ParseError, match="line 2"):
            parse_pattern(io.StringIO(text))

    def test_nan_gain_rejected(self):
        text = "beam_id,lat_deg,lon_deg,gain_db,phase_rad\n1,50,10,nan,0\n"
        with pytest.raises(ParseError, match="finite"):
            parse_pattern(io.StringIO(text))

    def test_noncontiguous_beam_ids(self):
        text = (
            "beam_id,lat_deg,lon_deg,gain_db,phase_rad\n"
            "1,50,10,52,0\n"
            "3,50,10,48,0\n"
        )
        with pytest.raises(SchemaError, match="contiguous"):
            parse_pattern(io.StringIO(text))

    def test_interleaved_beams_rejected(self):
        text = (
            "beam_id,lat_deg,lon_deg,gain_db,phase_rad\n"
            "1,50,10,52,0\n"
            "2,50,10,48,0\n"
            "1,50,10.5,51,0\n"
        )
        with pytest.raises(SchemaError):
            parse_pattern(io.StringIO(text))

    def test_mismatched_grid(self):
        text = (
            "beam_id,lat_deg,lon_deg,gain_db,phase_rad\n"
            "1,50,10,52,0\n"
            "1,50,10.5,51,0\n"
            "1,50.5,10,50,0\n"
            "2,50,10,48,0\n"
            "2,50,10.6,49.5,0\n"
            "2,50.5,10,50.5,0\n"
        )
        with pytest.raises(SchemaError, match="grid differs"):
            parse_pattern(io.StringIO(text))

    def test_empty_file(self):
        with pytest.raises(SchemaError, match="no sample rows"):
            parse_pattern(io.StringIO("beam_id,lat_deg,lon_deg,gain_db,phase_rad\n"))

    def test_wrong_field_count_reports_line(self):
        text = "beam_id,lat_deg,lon_deg,gain_db,phase_rad\n1,50,10,52\n"
        with pytest.raises(ParseError, match="line 2"):
            parse_pattern(io.StringIO(text))

    @pytest.mark.parametrize("cell, message", [
        ("nan", "phase_rad must be finite, got nan"),
        ("-inf", "phase_rad must be finite, got -inf"),
        ("1e400", "phase_rad must be finite, got 1e400"),
        ("", "phase_rad '' is not a number"),
        ("oops", "phase_rad 'oops' is not a number"),
    ])
    def test_bad_phase_reports_line(self, cell, message):
        # the pattern keeps no phase, but every phase cell is still checked
        lines = VALID_TWO_BEAM.split("\n")
        lines[7] = lines[7].rsplit(",", 1)[0] + "," + cell
        with pytest.raises(ParseError) as err:
            parse_pattern(io.StringIO("\n".join(lines)))
        assert str(err.value) == f"line 8: {message}"

    def test_write_then_parse_round_trip_is_byte_identical(self, tmp_path):
        pat = grid_pattern(
            [(52.3, (50.0, 10.0), 1.5), (51.1, (51.3, 11.2), 1.5)],
            48.0, 53.0, 8.0, 13.0, 0.5,
        )
        phase = np.random.default_rng(1).uniform(0.0, 2 * math.pi, pat.gain_db.shape)
        first = tmp_path / "p1.csv"
        second = tmp_path / "p2.csv"
        write_pattern(pat.lat_deg, pat.lon_deg, pat.gain_db, phase, first)
        # parse_pattern keeps no phase; the line-parser oracle reads it back
        with open(first, encoding="utf-8", newline="") as fh:
            fh.readline()
            _, phase_read = _parse_rows(list(fh), str(first))
        back = parse_pattern(first)
        write_pattern(back.lat_deg, back.lon_deg, back.gain_db, phase_read, second)
        assert first.read_bytes() == second.read_bytes()


class TestBeamPattern:
    def test_arrays_are_read_only(self):
        pat = parse_pattern(io.StringIO(VALID_TWO_BEAM))
        with pytest.raises(ValueError):
            pat.gain_db[0, 0] = 0.0
        with pytest.raises(ValueError):
            pat.coefficients[0, 0] = 0.0

    def test_coefficients_encode_gain_and_phase(self):
        pat = parse_pattern(io.StringIO(VALID_TWO_BEAM))
        coef = pat.coefficients
        assert coef.shape == (4, 2)
        # 10*log10(|B|^2) must return the stored gain
        back = 10.0 * np.log10(np.abs(coef) ** 2)
        assert np.allclose(back, pat.gain_db, rtol=0, atol=1e-12)

    def test_pattern_holds_no_phase(self):
        pat = parse_pattern(io.StringIO(VALID_TWO_BEAM))
        assert not hasattr(pat, "phase_rad")

    def test_beam_samples_view(self):
        pat, phase = _parse_rows(VALID_TWO_BEAM.splitlines()[1:], None)
        samples = beam_samples(pat, 2, phase)
        assert len(samples) == 4
        assert samples[0].location == GeoPoint(50.0, 10.0)
        assert samples[0].gain_db == 48.0
        assert samples[1].phase_rad == 1.25
        with pytest.raises(ValueError):
            beam_samples(pat, 3)

    def test_phase_normalization(self):
        s = SamplePoint(GeoPoint(0, 0), 10.0, -1.0)
        assert 0.0 <= s.phase_rad < 2 * math.pi
        assert s.phase_rad == pytest.approx(2 * math.pi - 1.0, abs=1e-12)
        tiny = SamplePoint(GeoPoint(0, 0), 10.0, -1e-30)
        assert 0.0 <= tiny.phase_rad < 2 * math.pi

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            BeamPattern([50.0], [10.0, 11.0], [[52.0]])
        with pytest.raises(ValueError):
            BeamPattern([50.0], [10.0], [[52.0], [51.0]])

    def test_no_samples_or_no_beams_rejected(self):
        with pytest.raises(ValueError, match="at least one sample"):
            BeamPattern([], [], np.zeros((0, 1)))
        with pytest.raises(ValueError, match="at least one beam"):
            BeamPattern([50.0], [10.0], np.zeros((1, 0)))


class TestBeamFootprint:
    def test_gaussian_beam_matches_analytic_radius(self):
        r3, pitch = 1.5, 0.1
        center = (50.0, 10.0)
        pat = grid_pattern([(52.0, center, r3)], 48.0, 52.0, 8.0, 12.0, pitch)
        fp = beam_footprint(pat, 1)
        assert fp.peak_gain_db == pytest.approx(52.0, abs=1e-12)
        assert point_in_polygon(center, fp.border)
        for (vlat, vlon) in fp.border.vertices:
            dist = math.hypot(vlat - center[0], vlon - center[1])
            # hull vertices sit within one grid step of the analytic circle
            assert r3 - pitch <= dist <= r3 + 1e-9

    def test_square_corner_qualifiers(self):
        lats = np.repeat([0.0, 1.0, 2.0], 3)
        lons = np.tile([0.0, 1.0, 2.0], 3)
        gain = np.full(9, 40.0)
        corners = [(0.0, 0.0), (0.0, 2.0), (2.0, 0.0), (2.0, 2.0)]
        for i in range(9):
            if (lats[i], lons[i]) in corners:
                gain[i] = 52.0
        pat = BeamPattern(lats, lons, gain[:, None])
        fp = beam_footprint(pat, 1)
        assert set(fp.border.vertices) == set(corners)

    def test_uniform_gain_includes_all_samples(self):
        lats = np.repeat(np.arange(5.0), 5)
        lons = np.tile(np.arange(5.0), 5)
        pat = BeamPattern(lats, lons, np.full((25, 1), 47.0))
        fp = beam_footprint(pat, 1)
        assert set(fp.border.vertices) == {(0, 0), (0, 4), (4, 0), (4, 4)}
        for j in range(25):
            assert point_in_polygon((lats[j], lons[j]), fp.border)

    def test_too_few_qualifying_samples(self):
        gain = np.full(9, 30.0)
        gain[4] = 52.0  # only the center sample is within 3 dB of the peak
        pat = BeamPattern(
            np.repeat([0.0, 1.0, 2.0], 3), np.tile([0.0, 1.0, 2.0], 3),
            gain[:, None],
        )
        with pytest.raises(DegenerateFootprintError) as err:
            beam_footprint(pat, 1)
        assert err.value.beam_id == 1
        assert "beam 1" in str(err.value)

    def test_collinear_qualifying_samples(self):
        lats = np.array([0.0, 0.0, 0.0, 0.0, 1.0])
        lons = np.array([0.0, 1.0, 2.0, 3.0, 0.0])
        gain = np.array([50.0, 50.0, 50.0, 50.0, 10.0])[:, None]
        pat = BeamPattern(lats, lons, gain)
        with pytest.raises(DegenerateFootprintError):
            beam_footprint(pat, 1)

    def test_qualifying_samples_always_inside_border(self):
        rng = np.random.default_rng(42)
        for trial in range(5):
            centers = rng.uniform(49, 51, size=(3, 2))
            pat = grid_pattern(
                [(50.0 + t, (c[0], c[1]), 1.2) for t, c in enumerate(centers)],
                47.5, 52.5, 47.5, 52.5, 0.25,
            )
            for b in range(1, 4):
                fp = beam_footprint(pat, b)
                gains = pat.gain_db[:, b - 1]
                mask = gains >= gains.max() - 3.0
                for lat, lon in zip(pat.lat_deg[mask], pat.lon_deg[mask]):
                    assert point_in_polygon((lat, lon), fp.border)

    def test_footprints_deterministic(self):
        pat1 = parse_pattern(io.StringIO(VALID_TWO_BEAM))
        pat2 = parse_pattern(io.StringIO(VALID_TWO_BEAM))
        f1 = beam_footprint(pat1, 1)
        f2 = beam_footprint(pat2, 1)
        assert f1.border.vertices == f2.border.vertices


class TestAllFootprints:
    def test_single_beam(self):
        pat = grid_pattern([(52.0, (50.0, 10.0), 1.5)], 48, 52, 8, 12, 0.25)
        fps = all_footprints(pat)
        assert len(fps) == 1
        assert fps[0].beam_id == 1

    def test_overlapping_beams_share_area(self):
        pat = grid_pattern(
            [(52.0, (50.0, 10.0), 1.5), (52.0, (50.0, 11.0), 1.5)],
            47, 53, 7, 14, 0.25,
        )
        fa, fb = all_footprints(pat)
        midpoint = (50.0, 10.5)
        assert point_in_polygon(midpoint, fa.border)
        assert point_in_polygon(midpoint, fb.border)

    def test_degenerate_beam_names_culprit(self):
        lats = np.repeat([0.0, 1.0, 2.0], 3)
        lons = np.tile([0.0, 1.0, 2.0], 3)
        good = np.full(9, 50.0)
        bad = np.full(9, 30.0)
        bad[4] = 52.0
        pat = BeamPattern(lats, lons, np.column_stack([good, bad]))
        with pytest.raises(DegenerateFootprintError) as err:
            all_footprints(pat)
        assert err.value.beam_id == 2


def grid_beam(lats, lons, gain_of):
    """One-beam BeamPattern on the lats x lons grid, gain_of(lat, lon) in dB."""
    glat = np.repeat(np.asarray(lats, dtype=float), len(lons))
    glon = np.tile(np.asarray(lons, dtype=float), len(lats))
    gain = np.array([gain_of(a, b) for a, b in zip(glat, glon)])[:, None]
    return BeamPattern(glat, glon, gain)


class TestPlanarFrame:
    def test_antimeridian_beam_rejected(self):
        # 12 samples of a 1-degree beam either side of lon 180: the planar hull
        # would span lon -179.5..179.5 and swallow the whole equatorial band
        pat = grid_beam([-1.0, 0.0, 1.0], [-179.5, -179.0, 179.0, 179.5],
                        lambda a, b: 50.0)
        with pytest.raises(DegenerateFootprintError) as err:
            beam_footprint(pat, 1)
        assert err.value.beam_id == 1
        assert "beam 1" in str(err.value)
        assert "span more than 180 degrees of longitude" in str(err.value)
        # the border the planar frame would give contains (0, 0), half a world away
        hull = convex_hull(list(zip(pat.lat_deg.tolist(), pat.lon_deg.tolist())))
        assert point_in_polygon((0.0, 0.0), hull)

    @pytest.mark.parametrize("pole", [90.0, -90.0])
    def test_qualifying_pole_sample_rejected(self, pole):
        lats = [pole - math.copysign(1.0, pole), pole - math.copysign(0.5, pole), pole]
        pat = grid_beam(lats, [0.0, 1.0, 2.0], lambda a, b: 50.0)
        with pytest.raises(DegenerateFootprintError) as err:
            beam_footprint(pat, 1)
        assert err.value.beam_id == 1
        assert "pole" in str(err.value)

    def test_pole_sample_outside_3db_is_ignored(self):
        pat = grid_beam([88.0, 89.0, 90.0], [0.0, 1.0, 2.0],
                        lambda a, b: 40.0 if a == 90.0 else 50.0)
        fp = beam_footprint(pat, 1)
        assert set(fp.border.vertices) == {(88, 0), (88, 2), (89, 0), (89, 2)}

    @pytest.mark.parametrize("lons", [[170.0, 180.0, 190.0], [175.0, 180.0, 185.0],
                                      [179.0, 179.5, 180.0], [-181.0, -180.0, -179.0]])
    def test_beam_past_lon_180_rejected(self, lons):
        # a terminal at lon 181 is wrapped to -179, outside a border drawn over
        # lon 175..185, so the beam could never serve it
        pat = grid_beam([-1.0, 0.0, 1.0], lons, lambda a, b: 50.0)
        with pytest.raises(DegenerateFootprintError) as err:
            beam_footprint(pat, 1)
        assert err.value.beam_id == 1
        assert "leave longitude [-180, 180)" in str(err.value)

    def test_beam_from_lon_minus_180_accepted(self):
        # only qualifying samples count: the 40 dB column at lon 180 is ignored
        pat = grid_beam([-1.0, 0.0, 1.0], [-180.0, -179.0, 180.0],
                        lambda a, b: 40.0 if b == 180.0 else 50.0)
        fp = beam_footprint(pat, 1)
        assert set(fp.border.vertices) == {(-1, -180), (-1, -179), (1, -180), (1, -179)}


def beam_footprint_oracle(pattern, beam_id):
    """The triangulate-then-border footprint the hull-only path replaced.

    Builds the Delaunay triangulation of the qualifying samples and borders
    its deduplicated point set. It has no planar-frame checks.
    """
    col = pattern.check_beam(beam_id)
    gains = pattern.gain_db[:, col]
    peak = float(gains.max())
    mask = gains >= peak - 3.0
    pts = list(zip(pattern.lat_deg[mask].tolist(), pattern.lon_deg[mask].tolist()))
    if len(pts) < 3:
        raise DegenerateFootprintError(
            beam_id, f"only {len(pts)} samples within 3 dB of the peak"
        )
    try:
        tri = delaunay(pts)
        border = convex_hull(tri.points)
    except CollinearInputError as exc:
        raise DegenerateFootprintError(beam_id, str(exc)) from exc
    return BeamFootprint(beam_id=int(beam_id), border=border, peak_gain_db=peak)


def outcome(fn, pattern, beam_id):
    try:
        fp = fn(pattern, beam_id)
    except Exception as exc:  # the comparison covers the exception too
        return type(exc), str(exc)
    return fp.border.vertices, fp.peak_gain_db


# small pools make duplicate locations, signed zeros and collinear sets common
_LATS = [0.0, -0.0, 0.5, 1.0, 1.0000001, -2.0, 3.25]
_LONS = [0.0, -0.0, 0.5, 1.0, 2.0, -3.0, 1e-9]
# reaching the poles or the antimeridian
_EDGE_LATS = _LATS + [89.5, 90.0, -90.0]
_EDGE_LONS = _LONS + [179.5, -179.5]


@st.composite
def small_patterns(draw):
    n = draw(st.integers(1, 12))
    shape = draw(st.sampled_from(["pool", "edge", "line", "diagonal", "float"]))
    if shape == "float":
        coord = st.floats(-60.0, 60.0, allow_nan=False, allow_subnormal=False)
        lats = draw(st.lists(coord, min_size=n, max_size=n))
        lons = draw(st.lists(coord, min_size=n, max_size=n))
    else:
        lat_pool, lon_pool = (_EDGE_LATS, _EDGE_LONS) if shape == "edge" else (_LATS, _LONS)
        lats = draw(st.lists(st.sampled_from(lat_pool), min_size=n, max_size=n))
        lons = draw(st.lists(st.sampled_from(lon_pool), min_size=n, max_size=n))
        if shape == "line":
            lats = [lats[0]] * n
        elif shape == "diagonal":
            lats = list(lons)
    beams = draw(st.integers(1, 2))
    kind = draw(st.sampled_from(["levels", "equal", "float"]))
    if kind == "equal":
        gain = np.full((n, beams), draw(st.sampled_from([0.0, -0.0, 47.0])))
    elif kind == "levels":
        # 3 dB apart and just inside/outside: exactly-3 and fewer-than-3 qualifiers
        levels = st.sampled_from([50.0, 50.0, 48.0, 47.0, 47.0, 46.999999, 30.0])
        gain = np.array(draw(st.lists(levels, min_size=n * beams, max_size=n * beams)))
    else:
        gains = st.floats(40.0, 50.0, allow_nan=False)
        gain = np.array(draw(st.lists(gains, min_size=n * beams, max_size=n * beams)))
    gain = gain.reshape(n, beams)
    return BeamPattern(lats, lons, gain)


def outside_planar_frame(pattern, beam_id):
    gains = pattern.gain_db[:, beam_id - 1]
    mask = gains >= gains.max() - 3.0
    lon = pattern.lon_deg[mask]
    return mask.sum() >= 3 and (
        (np.abs(pattern.lat_deg[mask]) == 90.0).any() or lon.max() - lon.min() > 180.0
    )


class TestHullOnlyMatchesTriangulation:
    @settings(max_examples=400, deadline=None)
    @given(small_patterns())
    def test_same_border_or_same_error(self, pattern):
        for b in range(1, pattern.beams + 1):
            got = outcome(beam_footprint, pattern, b)
            if outside_planar_frame(pattern, b):
                assert got[0] is DegenerateFootprintError
                assert got[1].startswith(f"beam {b}: ")
                continue
            want = outcome(beam_footprint_oracle, pattern, b)
            assert got == want
            assert repr(got) == repr(want)  # == takes -0.0 for 0.0; repr does not

    def test_named_cases(self):
        cases = [
            # exactly 3 qualifying samples, one duplicated location and -0.0
            ([0.0, -0.0, 0.0, 1.0, 5.0], [0.0, 0.0, 1.0, 0.0, 5.0],
             [50.0, 49.0, 48.0, 47.0, 10.0]),
            # collinear qualifying set
            ([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 2.0, 5.0], [50.0, 50.0, 50.0, 20.0]),
            # two distinct qualifying locations among three samples
            ([0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [50.0, 50.0, 50.0]),
        ]
        messages = []
        for lats, lons, gains in cases:
            pat = BeamPattern(lats, lons, np.array(gains)[:, None])
            got = outcome(beam_footprint, pat, 1)
            want = outcome(beam_footprint_oracle, pat, 1)
            assert got == want
            assert repr(got) == repr(want)
            messages.append(got[1] if got[0] is DegenerateFootprintError else None)
        assert messages == [
            None,
            "beam 1: all points are collinear",
            "beam 1: need 3 distinct points, got 2",
        ]
