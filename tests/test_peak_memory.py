"""Peak memory of the movement loaders, association, the interference sweep
and the output stage, by tracemalloc.

Each chunk of a movement log keeps only its first record per (id, hour),
so where a vehicle-hour's records lie together, as the synthetic logs
write them, the loaders' peak follows the vehicle-hours kept, not the rows
read.
Association holds the rows inside each footprint, not one mask per beam, so
its peak per terminal does not grow with the beam count. The sweep adds
every beam's terms into the array it returns through one scratch array of
the same shape, so it holds little beyond two copies of its result. The
simulate writers format and write one block of ioutil.BLOCK_ROWS rows (or
lines of text) at a time, so their peaks do not grow with the user count.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from sattraffic.analysis import interference_sweep
from sattraffic.geo import ScenarioConfig
from sattraffic.ingest import (
    AERO_HEADER,
    TerminalBlock,
    load_aero,
    load_aero_by_hour,
    synth_pattern,
)
from sattraffic.linkbudget import (
    ChannelMatrix,
    build_channel_matrix,
    channel_summary,
    write_channel_csv,
)
from sattraffic.pattern import all_footprints, parse_pattern
from sattraffic.traffic import build_traffic_matrix, write_traffic_csv


def peak_of(call):
    tracemalloc.start()
    try:
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def flight_log(path, records):
    """A flight log of 500 flights in each of the 24 hours, each with the
    given number of records a minute apart, in hour and then id order as
    the synthetic logs are written: 12,000 vehicle-hours."""
    rng = np.random.default_rng(records)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(AERO_HEADER + "\n")
        for hour in range(24):
            lat = rng.uniform(30.0, 75.0, 500)
            lon = rng.uniform(-35.0, 45.0, 500)
            fh.writelines(
                f"f{v:03d},2026-01-15T{hour:02d}:{minute:02d}:00Z,"
                f"{lat[v] + 0.01 * minute:.6f},{lon[v]:.6f}\n"
                for v in range(500) for minute in range(records))
    return path


@pytest.fixture(scope="module")
def flight_logs(tmp_path_factory):
    """The log with one record per vehicle-hour and the one with twelve."""
    root = tmp_path_factory.mktemp("logs")
    return flight_log(root / "one.csv", 1), flight_log(root / "twelve.csv", 12)


@pytest.mark.parametrize("load", [load_aero_by_hour, lambda path: [load_aero(path, 9)]],
                         ids=["by_hour", "hour_9"])
def test_movement_peak_follows_vehicle_hours_not_rows(flight_logs, load):
    # holding every kept row until the end put the day's peak at 15.6 MB for
    # twelve records per vehicle-hour against 1.9 MB for one, and hour 9's
    # at 0.98 against 0.59 MB; here they are 1.17 against 1.15 MB and 0.68
    # against 0.58 MB
    one, twelve = flight_logs
    load(one)  # imports what the loader imports on its first call
    blocks, peak_one = peak_of(lambda: load(one))
    blocks12, peak_twelve = peak_of(lambda: load(twelve))
    kept = sum(map(len, blocks))
    assert kept == sum(map(len, blocks12)) and kept in (12_000, 500)
    assert peak_twelve < 1.25 * peak_one
    assert peak_twelve < 128 * kept + (1 << 20)


def test_association_peak_stays_below_112_bytes_per_terminal(tmp_path):
    # the 37-beam, pitch-0.2 pattern of the benchmark's M inputs, with 50,000
    # terminals spread over the grid; one boolean mask per beam held at once
    # would add 37 bytes per terminal and put the peak near 128
    path = tmp_path / "pattern.csv"
    synth_pattern(path, 1, beams=37, spacing_deg=1.5, radius3db_deg=1.0, pitch_deg=0.2)
    pattern = parse_pattern(path)
    footprints = all_footprints(pattern)
    n = 50_000
    rng = np.random.default_rng(7)
    block = TerminalBlock(
        [str(i) for i in range(n)],
        rng.uniform(pattern.lat_deg.min(), pattern.lat_deg.max(), n),
        rng.uniform(pattern.lon_deg.min(), pattern.lon_deg.max(), n),
        np.ones(n, dtype=np.int64), np.ones(n),
    )
    # no warm-up call: association imports no module on its first call, so
    # the first call's peak is its own
    T, peak = peak_of(lambda: build_traffic_matrix(footprints, pattern, block, (), ()))
    assert pattern.beams == 37 and T.n_users > n // 2
    assert peak < 112 * n


def test_sweep_peak_stays_below_three_times_its_result():
    # 20,000 users at 50 locations over 37 beams, every size 1..37: the
    # result is 5.9 MB; a second matrix of totals and a masked product per
    # beam on top of it would put the peak above 4 times it
    rng = np.random.default_rng(37)
    beams, locations, n = 37, 50, 20_000
    H = ChannelMatrix(
        magnitude=10.0 ** rng.uniform(-12.0, -3.0, size=(locations, beams)),
        phase_rad=rng.uniform(0.0, 2 * math.pi, locations),
        location=rng.integers(0, locations, n),
        serving=rng.integers(1, beams + 1, n),
        distance_m=np.zeros(n),
        path_loss_db=np.zeros(n),
        interp_gain_db=np.zeros(n),
        nearest_sample=np.zeros(n, dtype=np.int64),
    )
    sweep, peak = peak_of(lambda: interference_sweep(H, ScenarioConfig(), range(1, beams + 1)))
    assert sweep.watts.shape == (n, beams)
    assert peak < 3 * sweep.watts.nbytes


# (output, writer, bound in bytes). On these matrices the peaks are 0.38,
# 1.12 and 0.37 MiB (0.62, 1.05 and 0.37 MiB on the benchmark's M inputs);
# with blocks of 1 << 14 rows they are 1.47, 1.93 and 1.48 MiB, and a summary
# joined whole before it is written takes 1.86 MiB, and 3.73 for twice the users
WRITERS = (
    ("channel.csv", lambda T, H, path: write_channel_csv(H, path), 1 << 20),
    ("traffic.csv", lambda T, H, path: write_traffic_csv(T, path), 5 << 18),
    ("channel_summary.json", lambda T, H, path: channel_summary(H, T.excluded, path),
     1 << 20),
)


@pytest.fixture(scope="module")
def matrices(tmp_path_factory):
    """Traffic and channel matrices of about 7,000 users on the 37-beam,
    pitch-0.2 pattern of the benchmark's M inputs, and the same matrices
    with every user given twice, at the same locations.

    Like M's 6,803 users at 2,736 locations, runs of 1 to 4 neighbouring
    terminals share a location."""
    path = tmp_path_factory.mktemp("pattern") / "pattern.csv"
    synth_pattern(path, 1, beams=37, spacing_deg=1.5, radius3db_deg=1.0, pitch_deg=0.2)
    pattern = parse_pattern(path)
    rng = np.random.default_rng(11)
    m = 4_500
    repeats = rng.integers(1, 5, m)
    n = int(repeats.sum())
    block = TerminalBlock(
        [str(i) for i in range(n)],
        np.repeat(rng.uniform(pattern.lat_deg.min(), pattern.lat_deg.max(), m), repeats),
        np.repeat(rng.uniform(pattern.lon_deg.min(), pattern.lon_deg.max(), m), repeats),
        rng.integers(1, 4, n), rng.uniform(0.0, 50.0, n),
    )
    T = build_traffic_matrix(all_footprints(pattern), pattern, block, (), ())
    H = build_channel_matrix(T, pattern)

    def twice(obj, names):
        return dataclasses.replace(obj, **{
            name: np.concatenate([getattr(obj, name)] * 2) for name in names
        })

    T2 = twice(T, ("beam", "lat_deg", "lon_deg", "type", "demand_mbps", "row"))
    H2 = twice(H, ("location", "serving", "distance_m", "path_loss_db",
                   "interp_gain_db", "nearest_sample"))
    return (T, H), (T2, H2)


@pytest.mark.parametrize("name,write,bound", WRITERS, ids=[w[0] for w in WRITERS])
def test_output_stage_peak_is_one_block_whatever_the_user_count(
        matrices, tmp_path, name, write, bound):
    (T, H), (T2, H2) = matrices
    assert 6_000 < H.n_users < 8_000 and H2.n_users == 2 * H.n_users
    path = tmp_path / name
    write(T, H, path)  # imports what the writer imports on its first call
    _, peak = peak_of(lambda: write(T, H, path))
    _, peak2 = peak_of(lambda: write(T2, H2, path))
    assert peak < bound
    # a whole-text join or a block past the user count would double the peak
    assert peak2 < 1.25 * peak
