"""One rule for every integer a caller gives: an int or numpy integer, never
a bool, within the site's bounds.

Every count, index and hour goes through ioutil.whole. Each site below is
driven with the same values: numpy integers are accepted, bools, floats
and out-of-range integers are refused with the site's error class and
whole's message. An integer column that numpy holds as bools, strings or
objects is read value by value through whole too. A guard walks the
package source so that the bool test stays in ioutil.
"""

import argparse
import ast
import io
import re
from pathlib import Path

import numpy as np
import pytest

import sattraffic
from sattraffic import cli
from sattraffic.analysis import interference_sweep
from sattraffic.errors import InvalidParamsError, UnknownUserError
from sattraffic.geo import ScenarioConfig
from sattraffic.geometry import Polygon
from sattraffic.ingest import (
    AERO_HEADER,
    MARITIME_HEADER,
    IngestConfig,
    TerminalBlock,
    load_aero,
    load_maritime,
    synth_generate,
)
from sattraffic.linkbudget import ChannelMatrix, interference
from sattraffic.pattern import BeamFootprint, BeamPattern
from sattraffic.traffic import TrafficMatrix

PATTERN = BeamPattern(
    np.array([50.0, 50.0, 51.0]), np.array([5.0, 6.0, 5.0]), np.zeros((3, 3))
)
BORDER = Polygon(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0)))
CHANNEL = ChannelMatrix(
    magnitude=np.array([[1.0, 0.5, 0.25], [0.5, 1.0, 0.5]]), phase_rad=[0.0, 1.5],
    location=[0, 1], serving=[1, 2],
    distance_m=np.ones(2), path_loss_db=np.ones(2), interp_gain_db=np.ones(2),
    nearest_sample=[0, 1],
)


def synth(kind, param):
    return lambda value, tmp: synth_generate(kind, {param: value}, 1, tmp / f"{kind}.csv")


# site: (call(value, tmp_path), name in the message, lo, hi, error class)
SITES = {
    "check_beam": (lambda v, tmp: PATTERN.check_beam(v), "beam id", 1, 3, ValueError),
    "check_user": (lambda v, tmp: CHANNEL.check_user(v), "user", 1, 2, UnknownUserError),
    "BeamFootprint.beam_id": (lambda v, tmp: BeamFootprint(v, BORDER, 50.0), "beam_id", 1,
                              None, ValueError),
    "interference": (lambda v, tmp: interference(CHANNEL, 1, {v}, 1.0),
                     "active beam", 1, 3, ValueError),
    "interference_sweep": (lambda v, tmp: interference_sweep(CHANNEL, ScenarioConfig(), [v]),
                           "active-set size", 1, 3, ValueError),
    "load_aero": (lambda v, tmp: load_aero(io.StringIO(AERO_HEADER + "\n"), v),
                  "hour", 0, 23, ValueError),
    "load_maritime": (lambda v, tmp: load_maritime(io.StringIO(MARITIME_HEADER + "\n"), v),
                      "hour", 0, 23, ValueError),
    "downscale": (lambda v, tmp: IngestConfig(downscale=v), "downscale", 1, None, ValueError),
    "synth_beams": (synth("pattern", "beams"), "beams", 1, None, InvalidParamsError),
    "synth_cells": (synth("population", "cells"), "cells", 1, None, InvalidParamsError),
    "synth_flights": (synth("aero", "flights"), "flights", 1, None, InvalidParamsError),
    "synth_ships": (synth("maritime", "ships"), "ships", 1, None, InvalidParamsError),
}


def refusals(lo, hi):
    """(value, whether it is an integer) of each value a site must refuse."""
    values = [(True, False), (np.True_, False), (2.0, False), (2.5, False), (lo - 1, True)]
    if hi is not None:
        values.append((hi + 1, True))
    return values


def message(name, lo, hi, value, integer):
    if hi is None:
        return f"{name} must be an integer >= {lo}, got {value!r}"
    if integer:
        return f"{name} {value} outside [{lo}, {hi}]"
    return f"{name} must be an integer, got {value!r}"


CASES = [
    pytest.param(site, value, integer, id=f"{site}-{value!r}")
    for site, (_, _, lo, hi, _) in SITES.items()
    for value, integer in refusals(lo, hi)
]


@pytest.mark.parametrize("site", sorted(SITES))
def test_numpy_integers_are_accepted(site, tmp_path):
    call, _, lo, hi, _ = SITES[site]
    call(np.int64(lo), tmp_path)
    if hi is not None:
        call(np.uint8(hi), tmp_path)


@pytest.mark.parametrize(("site", "value", "integer"), CASES)
def test_other_values_are_refused_with_the_sites_error(site, value, integer, tmp_path):
    call, name, lo, hi, error = SITES[site]
    expected = message(name, lo, hi, value, integer)
    with pytest.raises(error, match=f"^{re.escape(expected)}$"):
        call(value, tmp_path)


def block(**columns):
    given = dict(ids=["a", "b"], lat_deg=[50.0, 51.0], lon_deg=[5.0, 6.0], type=[1, 2],
                 demand_mbps=[2.0, 10.0])
    return TerminalBlock(**{**given, **columns})


def traffic(**columns):
    given = dict(beam=[1, 2], lat_deg=[50.0, 51.0], lon_deg=[5.0, 6.0], type=[1, 2],
                 demand_mbps=[2.0, 10.0], beams=2, excluded=0)
    return TrafficMatrix(**{**given, **columns})


def channel(**columns):
    given = dict(magnitude=np.ones((2, 2)), phase_rad=np.zeros(2), location=[0, 1],
                 serving=[1, 1], distance_m=np.ones(2), path_loss_db=np.ones(2),
                 interp_gain_db=np.ones(2), nearest_sample=[0, 0])
    return ChannelMatrix(**{**given, **columns})


# integer columns: (make(column), column whose first value that is not an
# integer is a str or bool, message); a column numpy holds as bools, strings
# or objects is read value by value through whole, as each scalar site reads
# its value
COLUMNS = {
    "TerminalBlock.type-bool": (lambda c: block(type=c), [True, True],
                                "type must be an integer, got True"),
    "TerminalBlock.type-str": (lambda c: block(type=c), [1, "2"],
                               "type must be an integer, got '2'"),
    "TrafficMatrix.beam-str": (lambda c: traffic(beam=c), np.array(["1", "2"]),
                               "beam must be an integer, got '1'"),
    "TrafficMatrix.row-bool": (lambda c: traffic(row=c), [False, True],
                               "row must be an integer >= 0, got False"),
    "ChannelMatrix.location-object": (lambda c: channel(location=c), [0, None],
                                      "location must be an integer, got None"),
    "ChannelMatrix.serving-bytes": (lambda c: channel(serving=c), [b"1", 1],
                                    "serving must be an integer, got b'1'"),
    "ChannelMatrix.nearest_sample-bool": (lambda c: channel(nearest_sample=c),
                                          np.array([True, False]),
                                          "nearest_sample must be an integer >= 0, got True"),
}


@pytest.mark.parametrize("site", sorted(COLUMNS))
def test_an_integer_column_refuses_a_bool_or_a_string(site):
    make, column, expected = COLUMNS[site]
    with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
        make(column)


def test_indices_come_back_as_ints():
    index = PATTERN.check_beam(np.int64(3))
    assert (index, type(index)) == (2, int)
    index = CHANNEL.check_user(np.int32(2))
    assert (index, type(index)) == (1, int)
    assert type(IngestConfig(downscale=np.int64(5)).downscale) is int
    assert type(BeamFootprint(np.int64(2), BORDER, 50.0).beam_id) is int
    sweep = interference_sweep(CHANNEL, ScenarioConfig(), [np.int64(2)])
    assert type(sweep.sizes[0]) is int


@pytest.mark.parametrize("command", ["simulate", "interference"])
@pytest.mark.parametrize(("value", "integer"), refusals(0, 23))
def test_cli_hour_is_refused_with_a_usage_error(command, value, integer):
    expected = message("hour", 0, 23, value, integer)
    with pytest.raises(cli.UsageError, match=f"^{re.escape(expected)}$"):
        getattr(cli, f"cmd_{command}")(argparse.Namespace(hour=value))


@pytest.mark.parametrize("command", ["simulate", "interference"])
@pytest.mark.parametrize("hour", ["-1", "24", "True", "2.0", "2.5"])
def test_cli_exits_one_on_a_bad_hour(command, hour, tmp_path, capsys):
    argv = [command, "--pattern", "p.csv", "--population", "pop.csv", "--aero", "a.csv",
            "--maritime", "m.csv", "--hour", hour, "--out-dir", str(tmp_path / "out")]
    if command == "interference":
        argv += ["--sizes", "1"]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    if hour in ("-1", "24"):
        assert f"error: hour {hour} outside [0, 23]\n" == err
    else:
        assert f"invalid int value: '{hour}'" in err
    assert not (tmp_path / "out").exists()


def test_cli_synth_count_names_its_parameter(tmp_path, capsys):
    for kind, param in (("aero", "flights"), ("maritime", "ships")):
        argv = ["synth", kind, "--seed", "1", "--param", f"{param}=0",
                "--out-dir", str(tmp_path)]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == f"error: {param} must be an integer >= 1, got 0\n"


def test_bool_is_tested_only_in_ioutil():
    package = Path(sattraffic.__file__).parent
    tests = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
                    and len(node.args) == 2):
                kinds = node.args[1]
                kinds = kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]
                if any(getattr(kind, "id", None) == "bool" for kind in kinds):
                    tests.append(f"{path.name}:{node.lineno}")
    assert tests, "ioutil no longer tests for bool"
    assert [test for test in tests if not test.startswith("ioutil.py:")] == []
