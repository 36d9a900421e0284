"""Peak memory of association and of the interference sweep, by tracemalloc.

Association holds the rows inside each footprint, not one mask per beam, so
its peak per terminal does not grow with the beam count. The sweep adds
every beam's terms into the array it returns through one scratch array of
the same shape, so it holds little beyond two copies of its result.
"""

import math
import tracemalloc

import numpy as np

from sattraffic.analysis import interference_sweep
from sattraffic.geo import ScenarioConfig
from sattraffic.ingest import TerminalBlock, synth_pattern
from sattraffic.linkbudget import ChannelMatrix
from sattraffic.pattern import all_footprints, parse_pattern
from sattraffic.traffic import build_traffic_matrix


def peak_of(call):
    tracemalloc.start()
    try:
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


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
        range(n),
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
    mags = 10.0 ** rng.uniform(-12.0, -3.0, size=(locations, beams))
    H = ChannelMatrix(
        rows=mags * np.exp(1j * rng.uniform(0.0, 2 * math.pi, mags.shape)),
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
