"""How the pipeline's value objects hold their data.

Every array a value object is given is held read-only and C-ordered through
ioutil.frozen. An array that is already read-only, C-ordered, of the
column's dtype and owns its memory is handed over as it is; any other is
copied, so the caller's writeable array stays writeable and a later write to
it cannot reach the object. Integer columns refuse values a cast would
change; and the objects are frozen dataclasses, so no attribute can be
reassigned after the constructor's checks have run.
"""

import dataclasses
import importlib
import pkgutil
from enum import Enum

import numpy as np
import pytest

import sattraffic
from sattraffic.analysis import HourlyProfile, SweepResult
from sattraffic.geo import GeoPoint, ScenarioConfig
from sattraffic.geometry import delaunay
from sattraffic.ingest import Terminal, TerminalBlock, TrafficType
from sattraffic.ioutil import frozen
from sattraffic.linkbudget import ChannelMatrix
from sattraffic.pattern import BeamPattern
from sattraffic.traffic import TrafficMatrix

# classes that need not be frozen dataclasses: a search index, not a value
NOT_VALUES = {"NearestSamples"}


def lat_lon():
    return np.array([50.0, 51.0, 52.0]), np.array([10.0, 11.0, 12.0])


def channel_arrays():
    return [
        np.ones((2, 3)), np.array([0.5, 1.5]), np.array([0, 1, 1]), np.array([1, 2, 3]),
        np.full(3, 3.6e7), np.full(3, 210.0), np.full(3, 40.0), np.array([0, 1, 1]),
    ]


def block_arrays():
    return [*lat_lon(), np.array([1, 2, 3]), np.array([2.0, 10.0, 8.0])]


# name: (constructor taking the arrays, the arrays as a caller holds them)
GIVEN = {
    "ChannelMatrix": (ChannelMatrix, channel_arrays),
    "HourlyProfile": (HourlyProfile, lambda: [np.ones((2, 24, 3))]),
    "SweepResult": (lambda watts: SweepResult((1, 2), (1, 2, 3), watts),
                    lambda: [np.ones((2, 3))]),
    "BeamPattern": (BeamPattern, lambda: [*lat_lon(), np.full((3, 2), 40.0)]),
    "TrafficMatrix": (lambda *columns: TrafficMatrix(*columns, beams=3, excluded=0),
                      lambda: [np.array([1, 2, 3]), *block_arrays()]),
    "TerminalBlock": (lambda *columns: TerminalBlock(("a", "b", "c"), *columns),
                      block_arrays),
}


def build(name):
    make, arrays = GIVEN[name]
    return make(*arrays())


def held(obj):
    """Copies of the values of obj's fields."""
    return [np.array(getattr(obj, f.name)) for f in dataclasses.fields(obj)]


@pytest.mark.parametrize("name", GIVEN)
def test_caller_arrays_stay_the_callers(name):
    make, arrays = GIVEN[name]
    given = arrays()
    obj = make(*given)
    before = held(obj)
    for arr in given:
        assert arr.flags.writeable
        arr += 1
    for was, now in zip(before, held(obj)):
        assert np.array_equal(was, now)
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, np.ndarray):
            assert not value.flags.writeable and value.flags.c_contiguous


def read_only(values, dtype=float, order="C"):
    column = np.array(values, dtype=dtype, order=order)
    column.setflags(write=False)
    return column


@pytest.mark.parametrize("column, dtype", [
    (read_only([1.0, 2.0]), float),
    (read_only([[1, 2], [3, 4]], np.int64), np.int64),
    (read_only([[1j, 2.0]], complex), complex),
])
def test_frozen_hands_over_an_owned_read_only_c_ordered_array(column, dtype):
    assert frozen(column, dtype, "x") is column


@pytest.mark.parametrize("given", [
    np.arange(6.0).reshape(2, 3),  # writeable
    read_only(np.arange(8.0).reshape(2, 4))[:, 1:],  # a view
    read_only(np.arange(8.0).reshape(2, 4))[:1],  # a C-ordered view
    read_only(np.arange(6.0).reshape(2, 3), order="F"),
    read_only(np.arange(6.0).reshape(2, 3), np.float32),
    read_only(np.arange(6).reshape(2, 3), np.int64),
    np.arange(6.0).reshape(2, 3).tolist(),
], ids=["writeable", "view", "c_ordered_view", "fortran", "float32", "int64", "list"])
def test_frozen_copies_any_other_array(given):
    held = frozen(given, float, "x")
    assert held is not given and not np.shares_memory(held, np.asarray(given))
    assert held.dtype == np.float64 and held.flags.c_contiguous
    assert held.flags.owndata and not held.flags.writeable
    assert np.array_equal(held, np.asarray(given, dtype=float))
    if isinstance(given, np.ndarray) and given.flags.writeable:
        given += 1  # the caller's array stays theirs
        assert not np.array_equal(held, given)


@pytest.mark.parametrize("make, name, value", [
    (ScenarioConfig, "total_power_w", -5.0),
    (ScenarioConfig, "carrier_freq_hz", -1.0),
    (lambda: build("BeamPattern"), "gain_db", np.zeros((3, 2))),
    (lambda: build("TerminalBlock"), "lat_deg", np.array([999.0])),
    (lambda: delaunay([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]), "triangles", []),
])
def test_attributes_cannot_be_reassigned(make, name, value):
    obj = make()
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(obj, name, value)


def test_terminal_block_is_not_hashable():
    with pytest.raises(TypeError):
        hash(TerminalBlock((), [], [], [], []))


@pytest.mark.parametrize("bad", [1.9, 1.2, np.nan, np.inf, -np.inf, 2.0**63])
def test_traffic_matrix_integer_columns_refuse_what_a_cast_would_change(bad):
    with pytest.raises(ValueError, match="^beam must hold whole numbers"):
        TrafficMatrix([bad], [0.0], [0.0], [1], [2.0], beams=2, excluded=0)
    with pytest.raises(ValueError, match="^type must hold whole numbers"):
        TrafficMatrix([1], [0.0], [0.0], [bad], [2.0], beams=2, excluded=0)


def test_terminal_block_type_refuses_fractions():
    with pytest.raises(ValueError, match=r"^type must hold whole numbers, got 2\.7"):
        TerminalBlock(("a",), [50.0], [10.0], [2.7], [10.0])


@pytest.mark.parametrize("ident", ["", None, 7, b"a"])
def test_terminal_block_checks_ids_as_a_terminal_does(ident):
    message = "^terminal id must be a non-empty string$"
    with pytest.raises(ValueError, match=message):
        Terminal(ident, GeoPoint(50.0, 5.0), TrafficType.FSS, 2.0)
    with pytest.raises(ValueError, match=message):
        TerminalBlock(["a", ident], [50.0, 51.0], [5.0, 5.0], [1, 1], [2.0, 2.0])


def test_channel_matrix_location_refuses_fractions():
    arrays = channel_arrays()
    arrays[2] = np.array([0.5, 1.7, 1.0])
    with pytest.raises(ValueError, match=r"^location must hold whole numbers, got 0\.5"):
        ChannelMatrix(*arrays)


def test_whole_floats_are_read_as_integers():
    arrays = channel_arrays()
    arrays[2:4] = [np.array([0.0, 1.0, 1.0]), np.array([1.0, 2.0, 3.0])]
    arrays[7] = np.zeros(3)
    H = ChannelMatrix(*arrays)
    for column in (H.location, H.serving, H.nearest_sample):
        assert column.dtype == np.int64
    assert H.serving.tolist() == [1, 2, 3]


def test_every_class_is_a_frozen_dataclass():
    loose = []
    for info in pkgutil.iter_modules(sattraffic.__path__):
        module = importlib.import_module(f"sattraffic.{info.name}")
        for name, cls in vars(module).items():
            if not isinstance(cls, type) or cls.__module__ != module.__name__:
                continue
            if (issubclass(cls, (BaseException, Enum)) or name.startswith("_")
                    or name in NOT_VALUES):
                continue
            if not (dataclasses.is_dataclass(cls) and cls.__dataclass_params__.frozen):
                loose.append(f"{module.__name__}.{name}")
    assert loose == []
