"""Loaders (population, aero, maritime), config parsing, and generators."""

import hashlib
import io
import math
import re

import numpy as np
import pytest

from sattraffic import ingest
from sattraffic.errors import (
    InvalidParamsError,
    NegativePopulationError,
    ParseError,
    TimestampError,
)
from sattraffic.ingest import (
    AERO_HEADER,
    MARITIME_HEADER,
    POPULATION_HEADER,
    BoundingBox,
    IngestConfig,
    TrafficType,
    UrbanPolicy,
    load_aero,
    load_maritime,
    load_population,
    parse_config,
    synth_aero,
    synth_generate,
    synth_maritime,
    synth_pattern,
    synth_population,
)
from sattraffic.geo import GeoPoint
from sattraffic.ioutil import fmt_float, open_input
from sattraffic.pattern import all_footprints, parse_pattern
from sattraffic.geometry import point_in_polygon


def synth_pattern_oracle(out_path, seed, beams=7, center_lat=52.0, center_lon=5.0,
                         spacing_deg=2.0, radius3db_deg=1.5, pitch_deg=0.25,
                         peak_gain_db=52.0):
    """synth_pattern as it was before it went through write_pattern: its own
    row writer, one beam at a time, drawing the phases in beam order."""
    centers = ingest._hex_centers(beams, center_lat, center_lon, spacing_deg)
    margin = radius3db_deg + 2.0 * pitch_deg
    lat_min = min(c[0] for c in centers) - margin
    lat_max = max(c[0] for c in centers) + margin
    lon_min = min(c[1] for c in centers) - margin
    lon_max = max(c[1] for c in centers) + margin
    lat_steps = int(round((lat_max - lat_min) / pitch_deg)) + 1
    lon_steps = int(round((lon_max - lon_min) / pitch_deg)) + 1
    lats = lat_min + pitch_deg * np.arange(lat_steps)
    lons = lon_min + pitch_deg * np.arange(lon_steps)
    glat, glon = np.meshgrid(lats, lons, indexing="ij")
    glat = glat.ravel()
    glon = glon.ravel()
    rng = np.random.default_rng(seed)
    peaks = peak_gain_db + rng.uniform(-0.5, 0.5, size=beams)
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        fh.write("beam_id,lat_deg,lon_deg,gain_db,phase_rad\n")
        for i, (blat, blon) in enumerate(centers):
            d2 = (glat - blat) ** 2 + (glon - blon) ** 2
            gain = peaks[i] - 3.0 * d2 / (radius3db_deg * radius3db_deg)
            phase = rng.uniform(0.0, 2.0 * math.pi, size=glat.size)
            for j in range(glat.size):
                fh.write(
                    f"{i + 1},{fmt_float(glat[j])},{fmt_float(glon[j])},"
                    f"{fmt_float(gain[j])},{fmt_float(phase[j])}\n"
                )


def pop_file(rows):
    return io.StringIO(POPULATION_HEADER + "\n" + "".join(rows))


def terminal_count_oracle(pop, downscale, threshold, factor):
    """Arithmetic oracle for the down-scaling and urban suppression rule."""
    count = math.floor(pop / downscale)
    if pop > threshold:
        count = math.floor(count * factor)
    return count


def first_position_oracle(records, hour):
    """Group-by oracle: min (timestamp, row index) per id within the hour."""
    best = {}
    for idx, (ident, ts, lat, lon) in enumerate(records):
        if ts.hour != hour:
            continue
        key = (ts, idx)
        if ident not in best or key < best[ident][0]:
            best[ident] = (key, lat, lon)
    return {ident: (lat, lon) for ident, (_, lat, lon) in best.items()}


class TestOpenInput:
    def test_closes_a_file_it_opened_when_the_body_raises(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_bytes("é,1\r\nb,2\n".encode("utf-8"))
        with pytest.raises(RuntimeError, match="body"):
            with open_input(path) as (fh, name):
                assert name == str(path)
                assert fh.read() == "é,1\r\nb,2\n"  # UTF-8, line ends as written
                raise RuntimeError("body")
        assert fh.closed

    def test_leaves_a_file_object_open(self, tmp_path):
        given = io.StringIO("x\n")
        with pytest.raises(RuntimeError):
            with open_input(given) as (fh, name):
                assert fh is given and name is None
                raise RuntimeError
        assert not given.closed
        path = tmp_path / "in.csv"
        path.write_text("x\n", encoding="utf-8")
        with open(path, encoding="utf-8") as given:
            with open_input(given) as (fh, name):
                assert fh is given and name == str(path)
            assert not given.closed


class TestParseConfig:
    def test_defaults_from_empty_file(self):
        cfg = parse_config(io.StringIO(""))
        assert cfg == IngestConfig()
        assert cfg.downscale == 1000
        assert cfg.fss_demand_mbps == 2.0

    def test_full_file(self):
        text = (
            "# scenario knobs\n"
            "downscale = 500\n"
            "urban_density_threshold = 8000\n"
            "urban_suppression_factor = 0.25\n"
            "fss_demand_mbps = 3\n"
            "aero_demand_mbps = 12\n"
            "maritime_demand_mbps = 9\n"
            "lat_min = 40\nlat_max = 60\nlon_min = -10\nlon_max = 20\n"
        )
        cfg = parse_config(io.StringIO(text))
        assert cfg.downscale == 500
        assert cfg.urban == UrbanPolicy(8000.0, 0.25)
        assert cfg.bbox == BoundingBox(40.0, 60.0, -10.0, 20.0)
        assert cfg.aero_demand_mbps == 12.0

    def test_partial_file_keeps_the_other_defaults(self):
        cfg = parse_config(io.StringIO(
            "lat_max = 70\nurban_suppression_factor = 0.75\naero_demand_mbps = 4\n"
        ))
        default = IngestConfig()
        assert cfg == IngestConfig(
            urban=UrbanPolicy(default.urban.density_threshold, 0.75),
            aero_demand_mbps=4.0,
            bbox=BoundingBox(default.bbox.lat_min, 70.0, default.bbox.lon_min,
                             default.bbox.lon_max),
        )

    def test_unknown_key(self):
        with pytest.raises(ParseError, match="unknown config key"):
            parse_config(io.StringIO("downscail = 10\n"))

    def test_duplicate_key(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_config(io.StringIO("downscale = 10\ndownscale = 20\n"))

    def test_bad_value(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_config(io.StringIO("downscale = many\n"))

    def test_invalid_combination(self):
        with pytest.raises(ParseError, match="extent"):
            parse_config(io.StringIO("lat_min = 60\nlat_max = 40\n"))


class TestLoadPopulation:
    def test_downscale_floor(self):
        terms = load_population(pop_file(["50,10,2500\n"]))
        assert len(terms) == 2
        assert all(t.type == TrafficType.FSS for t in terms)
        assert all(t.location == GeoPoint(50, 10) for t in terms)

    def test_below_downscale_yields_nothing(self):
        assert len(load_population(pop_file(["50,10,999\n"]))) == 0

    def test_urban_suppression(self):
        policy = UrbanPolicy(density_threshold=5000, suppression_factor=0.5)
        terms = load_population(pop_file(["50,10,10000\n"]), IngestConfig(urban=policy))
        assert len(terms) == 5

    def test_threshold_is_strict(self):
        policy = UrbanPolicy(density_threshold=10000, suppression_factor=0.5)
        terms = load_population(pop_file(["50,10,10000\n"]), IngestConfig(urban=policy))
        assert len(terms) == 10  # density equal to the threshold is not urban

    def test_duplicate_cells_aggregate(self):
        terms = load_population(pop_file(["50,10,600\n", "50,10,500\n"]))
        assert len(terms) == 1

    def test_row_order_invariance(self):
        rows = [f"{50 + i * 0.25},10,{300 * i}\n" for i in range(8)]
        cfg = IngestConfig(downscale=500)
        a = load_population(pop_file(rows), cfg)
        b = load_population(pop_file(list(reversed(rows))), cfg)
        assert a == b
        assert [t.id for t in a] == [t.id for t in b]

    def test_nan_coordinates_dropped_and_counted(self):
        terms = load_population(pop_file(["nan,10,5000\n", "50,10,2000\n"]))
        assert len(terms) == 2
        assert terms.dropped_bad_coords == 1

    def test_missing_coordinate_dropped(self):
        terms = load_population(pop_file([",10,5000\n", "50,10,2000\n"]))
        assert terms.dropped_bad_coords == 1

    def test_out_of_box_counted(self):
        box = BoundingBox(45, 55, 5, 15)
        rows = ["60,10,3000\n", "50,10,2000\n"]
        terms = load_population(pop_file(rows), IngestConfig(bbox=box))
        assert len(terms) == 2
        assert terms.dropped_out_of_box == 1

    def test_negative_population_fatal(self):
        with pytest.raises(NegativePopulationError):
            load_population(pop_file(["50,10,-5\n"]))

    def test_nan_population_fatal(self):
        with pytest.raises(NegativePopulationError):
            load_population(pop_file(["50,10,nan\n"]))

    def test_garbage_population_is_parse_error(self):
        with pytest.raises(ParseError, match="line 2"):
            load_population(pop_file(["50,10,lots\n"]))

    def test_bad_downscale(self):
        # the loader takes downscale from an IngestConfig, which refuses these
        for downscale in (0, -1, True, 2.0):
            with pytest.raises(ValueError, match=re.escape(f"got {downscale!r}")):
                IngestConfig(downscale=downscale)

    def test_random_cells_match_oracle(self):
        rng = np.random.default_rng(3)
        policy = UrbanPolicy(density_threshold=6000, suppression_factor=0.3)
        rows, expected = [], 0
        for i in range(300):
            pop = int(rng.integers(0, 20000))
            lat = 40.0 + (i // 40) * 0.5
            lon = 0.0 + (i % 40) * 0.5
            rows.append(f"{lat},{lon},{pop}\n")
            expected += terminal_count_oracle(pop, 750, 6000, 0.3)
        terms = load_population(pop_file(rows), IngestConfig(downscale=750, urban=policy))
        assert len(terms) == expected


def aero_file(rows):
    return io.StringIO(AERO_HEADER + "\n" + "".join(rows))


def maritime_file(rows):
    return io.StringIO(MARITIME_HEADER + "\n" + "".join(rows))


class TestLoadAero:
    def test_dedup_keeps_earliest(self):
        rows = [
            "F1,2026-01-15T08:40:00Z,51,11\n",
            "F1,2026-01-15T08:05:00Z,50,10\n",
            "F1,2026-01-15T08:20:00Z,50.5,10.5\n",
        ]
        terms = load_aero(aero_file(rows), 8)
        assert len(terms) == 1
        assert terms[0].location == GeoPoint(50, 10)
        assert terms[0].type == TrafficType.AERO

    def test_other_hour_absent(self):
        rows = ["F1,2026-01-15T07:59:00Z,50,10\n"]
        assert len(load_aero(aero_file(rows), 8)) == 0

    def test_two_flights(self):
        rows = [
            f"F{k},2026-01-15T09:{m:02d}:00Z,5{k},1{k}\n"
            for k in (1, 2) for m in range(5)
        ]
        terms = load_aero(aero_file(rows), 9)
        assert sorted(t.id for t in terms) == ["F1", "F2"]

    def test_timestamp_tie_broken_by_row_order(self):
        rows = [
            "F1,2026-01-15T08:05:00Z,50,10\n",
            "F1,2026-01-15T08:05:00Z,60,20\n",
        ]
        terms = load_aero(aero_file(rows), 8)
        assert terms[0].location == GeoPoint(50, 10)

    def test_timezone_offset_converts_to_utc(self):
        rows = ["F1,2026-01-15T10:30:00+02:00,50,10\n"]
        assert len(load_aero(aero_file(rows), 8)) == 1
        assert len(load_aero(aero_file(rows), 10)) == 0

    def test_bad_timestamp_fatal(self):
        rows = ["F1,yesterday,50,10\n"]
        with pytest.raises(TimestampError, match="line 2"):
            load_aero(aero_file(rows), 8)

    def test_bad_hour(self):
        with pytest.raises(ValueError):
            load_aero(aero_file([]), 24)

    def test_nan_coordinates_dropped(self):
        rows = [
            "F1,2026-01-15T08:05:00Z,nan,10\n",
            "F2,2026-01-15T08:06:00Z,50,10\n",
        ]
        terms = load_aero(aero_file(rows), 8)
        assert [t.id for t in terms] == ["F2"]
        assert terms.dropped_bad_coords == 1

    def test_out_of_range_latitude_fails_in_every_hour(self):
        rows = ["f1,2026-01-15T05:00:00Z,95.0,5.0\n"]
        for hour in (5, 9):
            with pytest.raises(ParseError, match="line 2"):
                load_aero(aero_file(rows), hour)

    def test_randomized_records_match_group_by_oracle(self):
        from datetime import datetime, timezone

        rng = np.random.default_rng(11)
        records = []
        for k in range(40):
            for _ in range(int(rng.integers(1, 6))):
                ts = datetime(
                    2026, 1, 15,
                    int(rng.integers(7, 10)), int(rng.integers(0, 60)),
                    tzinfo=timezone.utc,
                )
                records.append(
                    (f"F{k:03d}", ts, float(rng.uniform(40, 60)), float(rng.uniform(0, 20)))
                )
        order = rng.permutation(len(records))
        rows = [
            f"{records[i][0]},{records[i][1].isoformat().replace('+00:00', 'Z')},"
            f"{records[i][2]!r},{records[i][3]!r}\n"
            for i in order
        ]
        expected = first_position_oracle([records[i] for i in order], 8)
        terms = load_aero(aero_file(rows), 8)
        assert len(terms) == len(expected)
        for t in terms:
            lat, lon = expected[t.id]
            assert t.location == GeoPoint(lat, lon)


class TestLoadMaritime:
    def test_first_occurrence(self):
        rows = [
            "S1,2026-01-15T12:05:00Z,55,3\n",
            "S1,2026-01-15T12:40:00Z,55.2,3.2\n",
        ]
        terms = load_maritime(maritime_file(rows), 12)
        assert len(terms) == 1
        assert terms[0].location == GeoPoint(55, 3)
        assert terms[0].type == TrafficType.MARITIME

    def test_empty_file(self):
        assert load_maritime(maritime_file([]), 0) == []

    def test_out_of_range_latitude_fails_in_every_hour(self):
        rows = ["s1,2026-01-15T05:00:00Z,95.0,5.0\n"]
        for hour in (5, 9):
            with pytest.raises(ParseError, match="line 2"):
                load_maritime(maritime_file(rows), hour)

    def test_ten_ships_any_order(self):
        rng = np.random.default_rng(5)
        rows = [
            f"S{k},2026-01-15T06:{int(m):02d}:00Z,5{k % 10},{k % 10}\n"
            for k in range(10) for m in rng.integers(0, 60, size=3)
        ]
        order = rng.permutation(len(rows))
        terms = load_maritime(maritime_file([rows[i] for i in order]), 6)
        assert len(terms) == 10
        assert [t.id for t in terms] == sorted(t.id for t in terms)


def file_digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestGenerators:
    def test_same_seed_byte_identical(self, tmp_path):
        for kind, fn in [
            ("pattern", synth_pattern),
            ("population", synth_population),
            ("aero", synth_aero),
            ("maritime", synth_maritime),
        ]:
            a = tmp_path / f"{kind}_a.csv"
            b = tmp_path / f"{kind}_b.csv"
            fn(a, seed=123)
            fn(b, seed=123)
            assert file_digest(a) == file_digest(b), kind

    @pytest.mark.parametrize("params", [
        {"seed": 91},
        {"seed": 1, "beams": 19, "spacing_deg": 1.5, "radius3db_deg": 1.0,
         "pitch_deg": 0.5},
    ])
    def test_pattern_matches_row_writer_oracle(self, tmp_path, params):
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        synth_pattern(got, **params)
        synth_pattern_oracle(want, **params)
        assert got.read_bytes() == want.read_bytes()

    def test_pattern_pipeline_round_trip(self, tmp_path):
        path = tmp_path / "pattern.csv"
        synth_pattern(path, seed=9, beams=7)
        pat = parse_pattern(path)
        assert pat.beams == 7
        fps = all_footprints(pat)
        assert [f.beam_id for f in fps] == list(range(1, 8))
        # each footprint contains its own beam center (hex layout, spacing 2)
        centers = [(52.0, 5.0)] + [
            (52.0 + 2.0 * math.sin(2 * math.pi * k / 6),
             5.0 + 2.0 * math.cos(2 * math.pi * k / 6))
            for k in range(6)
        ]
        for fp, c in zip(fps, centers):
            assert point_in_polygon(c, fp.border)

    def test_population_loads(self, tmp_path):
        path = tmp_path / "pop.csv"
        synth_population(path, seed=4, cells=200)
        terms = load_population(path)
        assert terms.dropped == 0
        assert all(t.type == TrafficType.FSS for t in terms)

    def test_maritime_peak_in_morning(self, tmp_path):
        path = tmp_path / "ships.csv"
        synth_maritime(path, seed=2, ships=120)
        counts = [len(load_maritime(path, h)) for h in range(24)]
        assert 6 <= counts.index(max(counts)) <= 11

    def test_aero_two_local_maxima(self, tmp_path):
        path = tmp_path / "flights.csv"
        synth_aero(path, seed=2, flights=150)
        counts = [len(load_aero(path, h)) for h in range(24)]
        maxima = [
            h for h in range(1, 23)
            if counts[h] > counts[h - 1] and counts[h] > counts[h + 1]
        ]
        assert len(maxima) >= 2

    def test_movement_files_within_box(self, tmp_path):
        path = tmp_path / "flights.csv"
        synth_aero(path, seed=8, flights=40, lat_min=47, lat_max=50, lon_min=2, lon_max=6)
        box = BoundingBox(47, 50, 2, 6)
        for h in range(24):
            terms = load_aero(path, h, IngestConfig(bbox=box))
            assert terms.dropped_out_of_box == 0

    def test_invalid_box_rejected(self, tmp_path):
        with pytest.raises(InvalidParamsError):
            synth_maritime(tmp_path / "x.csv", seed=1, lat_min=10, lat_max=20)

    def test_invalid_beam_count(self, tmp_path):
        with pytest.raises(InvalidParamsError):
            synth_pattern(tmp_path / "x.csv", seed=1, beams=0)

    def test_dispatch(self, tmp_path):
        out = tmp_path / "p.csv"
        got = synth_generate("population", {"cells": 50}, 7, out)
        assert got == out
        assert load_population(out) is not None
        with pytest.raises(InvalidParamsError, match="unknown kind"):
            synth_generate("weather", {}, 7, tmp_path / "w.csv")
        with pytest.raises(InvalidParamsError):
            synth_generate("population", {"bogus_knob": 1}, 7, tmp_path / "b.csv")
