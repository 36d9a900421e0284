"""One rule for every real number a caller gives: an int, float or numpy
number, never a bool or a str, finite and within the site's bounds,
returned as a float.

Every scalar site goes through ioutil.real, and every bounded column
through ioutil.frozen's bounds, which word an integer column's refusal as
ioutil.whole does. Each scalar site below is driven with the
same values: numpy numbers are accepted as floats; bools, strings, None,
NaN, infinities and out-of-bound numbers are refused with the site's error
class and real's message. Each column site refuses a bad value whether the
column is copied or handed over already frozen, and reads a column that
numpy holds as bools, strings or objects value by value through real.
"""

import io
import math
import re
from collections import namedtuple

import numpy as np
import pytest

from sattraffic import cli
from sattraffic.analysis import HourlyProfile, classify_beams
from sattraffic.errors import BadThresholdsError, InvalidParamsError, ParseError
from sattraffic.geo import (
    GeoPoint,
    ScenarioConfig,
    great_circle_distance,
    path_loss_db,
    slant_range,
)
from sattraffic.geometry import Polygon
from sattraffic.ingest import (
    BoundingBox,
    IngestConfig,
    Terminal,
    TerminalBlock,
    TrafficType,
    UrbanPolicy,
    parse_config,
    synth_generate,
)
from sattraffic.linkbudget import ChannelMatrix, interference
from sattraffic.pattern import BeamFootprint, BeamPattern
from sattraffic.traffic import TrafficMatrix

INF = math.inf
POINT = GeoPoint(50.0, 5.0)
CHANNEL = ChannelMatrix(
    magnitude=np.array([[1.0, 0.5, 0.25], [0.5, 1.0, 0.5]]), phase_rad=[0.0, 1.5],
    location=[0, 1], serving=[1, 2],
    distance_m=np.ones(2), path_loss_db=np.ones(2), interp_gain_db=np.ones(2),
    nearest_sample=[0, 1],
)
PROFILE = HourlyProfile(np.ones((2, 24, 3)))
BORDER = Polygon(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0)))

# call(value, tmp_path) -> the value as the site keeps it, or None where it
# keeps none; name in the message; bounds; whether lo itself is refused;
# the error class; a value the site accepts
Site = namedtuple("Site", "call name lo hi strict error good",
                  defaults=(-INF, INF, False, ValueError, 1.0))
POSITIVE = dict(lo=0, strict=True)


def scenario(name):
    return lambda v, tmp: getattr(ScenarioConfig(**{name: v}), name)


def attr(make, name):
    return lambda v, tmp: getattr(make(v), name)


def synth(kind, param, **params):
    def call(value, tmp):
        synth_generate(kind, {**params, param: value}, 1, tmp / f"{kind}.csv")
    return call


def keeps_none(call):
    """call(value) as a site that keeps no value."""
    def site(value, tmp):
        call(value)
    return site


def call_with(function, **given):
    """function(**given) with the one argument left as None set to the value."""
    def call(value, tmp):
        function(**{k: value if v is None else v for k, v in given.items()})
    return call


SITES = {
    "GeoPoint.lat_deg": Site(attr(lambda v: GeoPoint(v, 0.0), "lat_deg"), "latitude",
                             -90, 90),
    "GeoPoint.lon_deg": Site(attr(lambda v: GeoPoint(0.0, v), "lon_deg"), "longitude"),
    "ScenarioConfig.sat_lat_deg": Site(scenario("sat_lat_deg"), "sat_lat_deg", -90, 90),
    "ScenarioConfig.sat_lon_deg": Site(scenario("sat_lon_deg"), "sat_lon_deg"),
    **{f"ScenarioConfig.{name}": Site(scenario(name), name, **POSITIVE)
       for name in ("altitude_m", "earth_radius_m", "carrier_freq_hz", "total_power_w",
                    "bandwidth_hz")},
    "ScenarioConfig.rx_gain_db": Site(scenario("rx_gain_db"), "rx_gain_db"),
    "great_circle_distance": Site(
        call_with(great_circle_distance, a=POINT, b=POINT, radius_m=None),
        "radius_m", **POSITIVE),
    "slant_range.sat_lat_deg": Site(
        call_with(slant_range, user=POINT, sat_lat_deg=None, sat_lon_deg=13.0),
        "sat_lat_deg", -90, 90),
    "slant_range.sat_lon_deg": Site(
        call_with(slant_range, user=POINT, sat_lat_deg=0.0, sat_lon_deg=None),
        "sat_lon_deg"),
    "slant_range.altitude_m": Site(
        call_with(slant_range, user=POINT, sat_lat_deg=0.0, sat_lon_deg=13.0,
                  altitude_m=None), "altitude_m", **POSITIVE),
    "slant_range.earth_radius_m": Site(
        call_with(slant_range, user=POINT, sat_lat_deg=0.0, sat_lon_deg=13.0,
                  earth_radius_m=None), "earth_radius_m", **POSITIVE),
    "path_loss_db.distance_m": Site(
        call_with(path_loss_db, distance_m=None, wavelength_m=0.015), "distance_m",
        **POSITIVE),
    "path_loss_db.wavelength_m": Site(
        call_with(path_loss_db, distance_m=1.0, wavelength_m=None), "wavelength_m",
        **POSITIVE),
    "BeamFootprint.peak_gain_db": Site(
        attr(lambda v: BeamFootprint(1, BORDER, v), "peak_gain_db"), "peak_gain_db"),
    "Terminal.demand_mbps": Site(
        attr(lambda v: Terminal("a", POINT, TrafficType.FSS, v), "demand_mbps"),
        "demand_mbps", 0),
    "BoundingBox.lat_min": Site(attr(lambda v: BoundingBox(v, 60.0, 0.0, 1.0), "lat_min"),
                                "lat_min"),
    "BoundingBox.lat_max": Site(attr(lambda v: BoundingBox(-60.0, v, 0.0, 1.0), "lat_max"),
                                "lat_max"),
    "BoundingBox.lon_min": Site(attr(lambda v: BoundingBox(0.0, 1.0, v, 60.0), "lon_min"),
                                "lon_min"),
    "BoundingBox.lon_max": Site(attr(lambda v: BoundingBox(0.0, 1.0, -60.0, v), "lon_max"),
                                "lon_max"),
    "UrbanPolicy.density_threshold": Site(
        attr(lambda v: UrbanPolicy(density_threshold=v), "density_threshold"),
        "density_threshold", 0),
    "UrbanPolicy.suppression_factor": Site(
        attr(lambda v: UrbanPolicy(suppression_factor=v), "suppression_factor"),
        "suppression_factor", 0, 1),
    **{f"IngestConfig.{name}": Site(attr(lambda v, name=name: IngestConfig(**{name: v}),
                                         name), name, 0)
       for name in ("fss_demand_mbps", "aero_demand_mbps", "maritime_demand_mbps")},
    **{f"synth_pattern.{name}": Site(synth("pattern", name, beams=1), name,
                                     error=InvalidParamsError, good=good)
       for name, good in (("center_lat", 52.0), ("center_lon", 5.0),
                          ("peak_gain_db", 52.0))},
    **{f"synth_pattern.{name}": Site(synth("pattern", name, beams=1), name,
                                     error=InvalidParamsError, **POSITIVE)
       for name in ("spacing_deg", "radius3db_deg", "pitch_deg")},
    "synth_population.cell_deg": Site(synth("population", "cell_deg", cells=1),
                                      "cell_deg", error=InvalidParamsError, **POSITIVE),
    "synth_population.urban_fraction": Site(
        synth("population", "urban_fraction", cells=1), "urban_fraction", 0, 1,
        error=InvalidParamsError),
    **{f"synth_{kind}.{name}": Site(synth(kind, name, **{count: 1}), name,
                                    error=InvalidParamsError, good=good)
       for kind, count in (("population", "cells"), ("aero", "flights"),
                           ("maritime", "ships"))
       for name, good in (("lat_min", 47.0), ("lat_max", 57.0), ("lon_min", 0.0),
                          ("lon_max", 10.0))},
    "classify_beams.lower": Site(keeps_none(lambda v: classify_beams(PROFILE, (v, 1e9))),
                                 "lower", 0, error=BadThresholdsError, good=0.0),
    "classify_beams.upper": Site(keeps_none(lambda v: classify_beams(PROFILE, (0.0, v))),
                                 "upper", error=BadThresholdsError),
    "interference.power": Site(keeps_none(lambda v: interference(CHANNEL, 1, {2}, v)),
                               "beam 2 power", 0),
    "interference.power_of_beam": Site(
        keeps_none(lambda v: interference(CHANNEL, 1, {2}, {2: v})), "beam 2 power", 0),
}


def refusals(site):
    """(value, whether the message is the outside form) of each value a site
    must refuse."""
    values = [(True, False), (np.True_, False), ("1", False), (None, False),
              (math.nan, False), (INF, False), (-INF, False)]
    if site.lo > -INF:
        values.append((site.lo if site.strict else site.lo - 1, True))
    if site.hi < INF:
        values.append((site.hi + 1, True))
    return values


def message(site, value, outside):
    name, lo, hi = site.name, site.lo, site.hi
    if hi == INF:
        bound = "" if lo == -INF else f" {'>' if site.strict else '>='} {lo}"
        return f"{name} must be a finite number{bound}, got {value!r}"
    if outside:
        return f"{name} {value} outside [{lo}, {hi}]"
    return f"{name} must be a finite number, got {value!r}"


def accepted(site):
    """Values inside the site's bounds: its good value, and each bound it takes."""
    values = [site.good]
    values += [bound for bound in (site.lo, site.hi)
               if math.isfinite(bound) and not (site.strict and bound == site.lo)]
    return values


CASES = [
    pytest.param(site, value, outside, id=f"{site}-{value!r}")
    for site, spec in SITES.items()
    for value, outside in refusals(spec)
]


@pytest.mark.parametrize("site", sorted(SITES))
def test_numpy_numbers_are_accepted_as_floats(site, tmp_path):
    spec = SITES[site]
    for value in accepted(spec):
        for number in (np.float64(value), np.float32(value), np.int64(value), int(value)):
            kept = spec.call(number, tmp_path)
            if kept is not None:
                assert (kept, type(kept)) == (float(value), float)


@pytest.mark.parametrize(("site", "value", "outside"), CASES)
def test_other_values_are_refused_with_the_sites_error(site, value, outside, tmp_path):
    spec = SITES[site]
    with pytest.raises(spec.error, match=f"^{re.escape(message(spec, value, outside))}$"):
        spec.call(value, tmp_path)


def test_an_int_past_the_float_range_is_refused():
    with pytest.raises(ValueError, match=r"^longitude must be a finite number, got 1000"):
        GeoPoint(0.0, 10**400)


# -- columns ---------------------------------------------------------------------


def block(**columns):
    given = dict(ids=["a", "b"], lat_deg=[50.0, 51.0], lon_deg=[5.0, 6.0], type=[1, 2],
                 demand_mbps=[2.0, 10.0])
    return TerminalBlock(**{**given, **columns})


def traffic(**columns):
    given = dict(beam=[1, 2], lat_deg=[50.0, 51.0], lon_deg=[5.0, 6.0], type=[1, 2],
                 demand_mbps=[2.0, 10.0], beams=2, excluded=0)
    return TrafficMatrix(**{**given, **columns})


def pattern(**columns):
    given = dict(lat_deg=[50.0, 51.0], lon_deg=[5.0, 6.0], gain_db=np.zeros((2, 1)))
    return BeamPattern(**{**given, **columns})


def channel(**columns):
    given = dict(magnitude=np.ones((2, 2)), phase_rad=np.zeros(2), location=[0, 1],
                 serving=[1, 1],
                 distance_m=np.ones(2), path_loss_db=np.ones(2),
                 interp_gain_db=np.ones(2), nearest_sample=[0, 0])
    return ChannelMatrix(**{**given, **columns})


# (make(column), good column, dtype, bad value, message); the bad value takes
# the column's last place, a row of a 2-D column and a beam of a profile
COLUMNS = {
    "TerminalBlock.lat_deg": (lambda c: block(lat_deg=c), [50.0, 51.0], float, 95.0,
                              "lat_deg 95.0 outside [-90, 90]"),
    "TerminalBlock.lon_deg": (lambda c: block(lon_deg=c), [5.0, 6.0], float, INF,
                              "lon_deg must be a finite number, got inf"),
    "TerminalBlock.type": (lambda c: block(type=c), [1, 2], np.int64, 7,
                           "type 7 outside [1, 3]"),
    "TerminalBlock.demand_mbps": (lambda c: block(demand_mbps=c), [2.0, 10.0], float, -5.0,
                                  "demand_mbps must be a finite number >= 0, got -5.0"),
    "TrafficMatrix.beam": (lambda c: traffic(beam=c), [1, 2], np.int64, 3,
                           "beam 3 outside [1, 2]"),
    "TrafficMatrix.lat_deg": (lambda c: traffic(lat_deg=c), [50.0, 51.0], float, 200.0,
                              "lat_deg 200.0 outside [-90, 90]"),
    "TrafficMatrix.lon_deg": (lambda c: traffic(lon_deg=c), [5.0, 6.0], float, math.nan,
                              "lon_deg must be a finite number, got nan"),
    "TrafficMatrix.type": (lambda c: traffic(type=c), [1, 2], np.int64, 0,
                           "type 0 outside [1, 3]"),
    "TrafficMatrix.demand_mbps": (lambda c: traffic(demand_mbps=c), [2.0, 10.0], float, INF,
                                  "demand_mbps must be a finite number >= 0, got inf"),
    "TrafficMatrix.row": (lambda c: traffic(row=c), [0, 1], np.int64, -3,
                          "row must be an integer >= 0, got -3"),
    "BeamPattern.lat_deg": (lambda c: pattern(lat_deg=c), [50.0, 51.0], float, -90.5,
                            "lat_deg -90.5 outside [-90, 90]"),
    "BeamPattern.lon_deg": (lambda c: pattern(lon_deg=c), [5.0, 6.0], float, -INF,
                            "lon_deg must be a finite number, got -inf"),
    "BeamPattern.gain_db": (lambda c: pattern(gain_db=c), [[1.0], [2.0]], float, [math.nan],
                            "gain_db must be a finite number, got nan"),
    "HourlyProfile.demand_mbps": (HourlyProfile, [[[1.0] * 3] * 24], float,
                                  [[1.0] * 3] * 23 + [[1.0, 1.0, -1.0]],
                                  "demand_mbps must be a finite number >= 0, got -1.0"),
    "ChannelMatrix.location": (lambda c: channel(location=c), [0, 1], np.int64, 2,
                               "location 2 outside [0, 1]"),
    "ChannelMatrix.serving": (lambda c: channel(serving=c), [1, 2], np.int64, 3,
                              "serving 3 outside [1, 2]"),
    "ChannelMatrix.nearest_sample": (lambda c: channel(nearest_sample=c), [0, 5], np.int64,
                                     -4, "nearest_sample must be an integer >= 0, got -4"),
}


def frozen_column(values, dtype):
    column = np.array(values, dtype=dtype)
    column.setflags(write=False)
    return column


@pytest.mark.parametrize("site", sorted(COLUMNS))
def test_a_column_keeps_its_values_inside_the_bounds(site):
    make, good, dtype, _, _ = COLUMNS[site]
    make(good)
    make(frozen_column(good, dtype))


@pytest.mark.parametrize("handed_over", [False, True], ids=["copied", "frozen"])
@pytest.mark.parametrize("site", sorted(COLUMNS))
def test_a_column_refuses_a_value_outside_the_bounds(site, handed_over):
    make, good, dtype, bad, expected = COLUMNS[site]
    column = [*good[:-1], bad]
    if handed_over:
        column = frozen_column(column, dtype)
        assert not column.flags.writeable and column.flags.owndata
    with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
        make(column)


# (make(column), column whose first value that is not a number is a str or
# bool, message); a column numpy holds as bools, strings or objects is read
# value by value through real, as each scalar site reads its value
NOT_NUMBERS = {
    "TerminalBlock.lat_deg-str": (lambda c: block(lat_deg=c), [50.0, "51"],
                                  "lat_deg must be a finite number, got '51'"),
    "TerminalBlock.lat_deg-bool": (lambda c: block(lat_deg=c), [True, False],
                                   "lat_deg must be a finite number, got True"),
    "TerminalBlock.demand_mbps-str": (lambda c: block(demand_mbps=c), ["3", "4"],
                                      "demand_mbps must be a finite number >= 0, got '3'"),
    "TerminalBlock.demand_mbps-bytes": (lambda c: block(demand_mbps=c), [2.0, b"4"],
                                        "demand_mbps must be a finite number >= 0, got b'4'"),
    "TrafficMatrix.lon_deg-bool": (lambda c: traffic(lon_deg=c), np.array([True, True]),
                                   "lon_deg must be a finite number, got True"),
    "TrafficMatrix.demand_mbps-object": (lambda c: traffic(demand_mbps=c), [2.0, None],
                                         "demand_mbps must be a finite number >= 0, got None"),
    "BeamPattern.gain_db-str": (lambda c: pattern(gain_db=c), [[1.0], ["2"]],
                                "gain_db must be a finite number, got '2'"),
    "HourlyProfile.demand_mbps-bool": (HourlyProfile, np.ones((2, 24, 3), dtype=bool),
                                       "demand_mbps must be a finite number >= 0, got True"),
    "ChannelMatrix.distance_m-str": (lambda c: channel(distance_m=c), ["1", "2"],
                                     "distance_m must be a finite number, got '1'"),
    "ChannelMatrix.magnitude-bool": (lambda c: channel(magnitude=c), [[True] * 2] * 2,
                                     "magnitude must be a finite number, got True"),
}


@pytest.mark.parametrize("site", sorted(NOT_NUMBERS))
def test_a_column_refuses_a_bool_or_a_string(site):
    make, column, expected = NOT_NUMBERS[site]
    with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
        make(column)


def test_the_block_of_the_bool_and_string_columns_is_refused():
    # the block once held lat 52.0, type 1 and demand 3.0 here
    with pytest.raises(ValueError, match=r"^lat_deg must be a finite number, got '52'$"):
        TerminalBlock(["a"], ["52"], [5.0], [True], ["3"])


def test_a_column_names_its_first_offending_value():
    with pytest.raises(ValueError, match=r"^lat_deg 91.0 outside \[-90, 90\]$"):
        block(ids="abcd", lat_deg=[0.0, 91.0, math.nan, -95.0], lon_deg=[0.0] * 4,
              type=[1] * 4, demand_mbps=[0.0] * 4)


# -- the defects the rule closes ---------------------------------------------------


@pytest.mark.parametrize("make, expected", [
    (lambda: IngestConfig(fss_demand_mbps=True),
     "fss_demand_mbps must be a finite number >= 0, got True"),
    (lambda: ScenarioConfig(altitude_m=True),
     "altitude_m must be a finite number > 0, got True"),
    (lambda: GeoPoint(True, 0), "latitude must be a finite number, got True"),
    (lambda: BoundingBox(True, 2, 0, 1), "lat_min must be a finite number, got True"),
    (lambda: UrbanPolicy(suppression_factor=True),
     "suppression_factor must be a finite number, got True"),
    (lambda: interference(CHANNEL, 1, {2}, True),
     "beam 2 power must be a finite number >= 0, got True"),
])
def test_a_bool_is_not_a_number(make, expected):
    with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
        make()


@pytest.mark.parametrize("make, error, expected", [
    (lambda: interference(CHANNEL, 1, {2}, "5"), ValueError,
     "beam 2 power must be a finite number >= 0, got '5'"),
    (lambda: classify_beams(PROFILE, ("0", "1")), BadThresholdsError,
     "lower must be a finite number >= 0, got '0'"),
    (lambda: Terminal("a", POINT, TrafficType.FSS, "3"), ValueError,
     "demand_mbps must be a finite number >= 0, got '3'"),
    (lambda: IngestConfig(aero_demand_mbps="3"), ValueError,
     "aero_demand_mbps must be a finite number >= 0, got '3'"),
    (lambda: ScenarioConfig(altitude_m="1"), ValueError,
     "altitude_m must be a finite number > 0, got '1'"),
    (lambda: UrbanPolicy(density_threshold="1"), ValueError,
     "density_threshold must be a finite number >= 0, got '1'"),
    (lambda: path_loss_db("1", 1.0), ValueError,
     "distance_m must be a finite number > 0, got '1'"),
])
def test_a_string_is_not_a_number(make, error, expected):
    with pytest.raises(error, match=f"^{re.escape(expected)}$"):
        make()


def test_slant_range_takes_the_scenarios_satellite_latitude_bounds():
    for lat in (95, -90.5):
        with pytest.raises(ValueError, match=rf"^sat_lat_deg {lat} outside \[-90, 90\]$"):
            slant_range(POINT, lat, 13.0)
        with pytest.raises(ValueError, match=rf"^sat_lat_deg {lat} outside \[-90, 90\]$"):
            ScenarioConfig(sat_lat_deg=lat)
    assert slant_range(GeoPoint(90.0, 0.0), 90, 13.0) == pytest.approx(35_786_000.0)


@pytest.mark.parametrize("make, expected", [
    (lambda: TerminalBlock(["a"], [50.0], [5.0], [7], [-5.0]), "type 7 outside [1, 3]"),
    (lambda: TerminalBlock(["a"], [50.0], [5.0], [1], [-5.0]),
     "demand_mbps must be a finite number >= 0, got -5.0"),
    (lambda: TerminalBlock(["a"], [50.0], [5.0], [1], [INF]),
     "demand_mbps must be a finite number >= 0, got inf"),
    (lambda: traffic(demand_mbps=[2.0, INF]),
     "demand_mbps must be a finite number >= 0, got inf"),
    (lambda: traffic(lat_deg=[50.0, 200.0]), "lat_deg 200.0 outside [-90, 90]"),
])
def test_a_block_or_matrix_refuses_what_a_terminal_refuses(make, expected):
    with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
        make()


@pytest.mark.parametrize("beams, excluded, expected", [
    (True, 0, "beams must be an integer >= 1, got True"),
    (0, 0, "beams must be an integer >= 1, got 0"),
    (2.0, 0, "beams must be an integer >= 1, got 2.0"),
    (2, 0.5, "excluded must be an integer >= 0, got 0.5"),
    (2, -1, "excluded must be an integer >= 0, got -1"),
    (2, True, "excluded must be an integer >= 0, got True"),
])
def test_traffic_matrix_counts_are_whole(beams, excluded, expected):
    with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
        traffic(beams=beams, excluded=excluded)
    T = traffic(beams=np.int64(2), excluded=np.int32(3))
    assert (T.beams, type(T.beams), T.excluded, type(T.excluded)) == (2, int, 3, int)


# -- the command line and the config file ----------------------------------------------


@pytest.mark.parametrize("text, expected", [
    ("spacing_deg=inf", "parameter spacing_deg must be a finite number, got inf"),
    ("spacing_deg=-Infinity", "parameter spacing_deg must be a finite number, got -inf"),
    ("cell_deg=NaN", "parameter cell_deg must be a finite number, got nan"),
])
def test_cli_param_must_be_finite(text, expected):
    with pytest.raises(cli.UsageError, match=f"^{re.escape(expected)}$"):
        cli._parse_param(text)


def test_cli_param_keeps_integers_and_reads_floats():
    assert cli._parse_param("beams=7") == ("beams", 7)
    name, value = cli._parse_param("spacing_deg=1")
    assert (name, value, type(value)) == ("spacing_deg", 1, int)
    assert cli._parse_param("spacing_deg=1.5") == ("spacing_deg", 1.5)


def test_config_file_value_is_refused_with_the_rules_message():
    text = "urban_suppression_factor = 1.5\n"
    with pytest.raises(ParseError, match=r"^suppression_factor 1.5 outside \[0, 1\]$"):
        parse_config(io.StringIO(text))
