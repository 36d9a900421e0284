"""Acceptance checks for the full pipeline, one printed line per criterion.

Each criterion re-derives its expected values through an independent oracle
(vector geometry, exact rational arithmetic, straight-line reimplementation,
or plain group-by bookkeeping) and pins the tolerances stated with the
requirement. Lines print PASS or FAIL even under pytest's capture.
"""

import cmath
import json
import math
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from sattraffic import cli
from sattraffic.geo import (
    EARTH_RADIUS_M,
    GEO_ALTITUDE_M,
    SPEED_OF_LIGHT,
    GeoPoint,
    ScenarioConfig,
    great_circle_distance,
    path_loss_db,
    slant_range,
)
from sattraffic.geometry import convex_hull, delaunay, point_in_polygon
from sattraffic.ingest import (
    IngestConfig,
    Terminal,
    TrafficType,
    UrbanPolicy,
    load_aero,
    load_maritime,
    load_population,
    synth_aero,
    synth_maritime,
    synth_pattern,
)
from sattraffic.linkbudget import build_channel_matrix, interference
from sattraffic.pattern import all_footprints, parse_pattern
from sattraffic.traffic import build_traffic_matrix

import io


@contextmanager
def reported(capsys, num, detail):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"acceptance {num:>2}: FAIL  {detail}")
        raise
    with capsys.disabled():
        print(f"acceptance {num:>2}: PASS  {detail}")


def ecef(lat_deg, lon_deg, radius_m):
    lat = math.radians(lat_deg)
    lon = math.radians(lon_deg)
    return np.array([
        radius_m * math.cos(lat) * math.cos(lon),
        radius_m * math.cos(lat) * math.sin(lon),
        radius_m * math.sin(lat),
    ])


def test_criterion_1_slant_range(capsys):
    with reported(capsys, 1, "slant range: sub-satellite exact, 10^4 users vs ECEF oracle, < 1 s"):
        start = time.perf_counter()
        sub = slant_range(GeoPoint(0.0, 13.0), 0.0, 13.0)
        assert abs(sub - 35_786_000.0) <= 1e-9 * 35_786_000.0

        rng = np.random.default_rng(101)
        sat = ecef(0.0, 13.0, EARTH_RADIUS_M + GEO_ALTITUDE_M)
        for _ in range(10_000):
            lat = float(rng.uniform(25.0, 80.0))
            lon = float(rng.uniform(-40.0, 50.0))
            d = slant_range(GeoPoint(lat, lon), 0.0, 13.0)
            want = float(np.linalg.norm(ecef(lat, lon, EARTH_RADIUS_M) - sat))
            assert abs(d - want) <= 1e-9 * want
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"slant-range check took {elapsed:.2f} s"


def test_criterion_2_path_loss(capsys):
    with reported(capsys, 2, "path loss: zero point, doubling law to 1e-12, nadir oracle to 1e-9 dB"):
        lam = SPEED_OF_LIGHT / 19.5e9
        assert abs(path_loss_db(lam / (4.0 * math.pi), lam)) <= 1e-12

        rng = np.random.default_rng(7)
        gain = 20.0 * math.log10(2.0)
        for _ in range(200):
            d = float(rng.uniform(1.0, 1e8))
            assert abs(path_loss_db(2.0 * d, lam) - path_loss_db(d, lam) - gain) <= 1e-12

        nadir = 20.0 * math.log10(4.0 * math.pi * 35_786_000.0 / lam)
        assert abs(path_loss_db(35_786_000.0, lam) - nadir) <= 1e-9


def _incircle_exact(a, b, c, p):
    """Positive when p is strictly inside the circumcircle of CCW (a, b, c)."""
    adx, ady = Fraction(a[0]) - Fraction(p[0]), Fraction(a[1]) - Fraction(p[1])
    bdx, bdy = Fraction(b[0]) - Fraction(p[0]), Fraction(b[1]) - Fraction(p[1])
    cdx, cdy = Fraction(c[0]) - Fraction(p[0]), Fraction(c[1]) - Fraction(p[1])
    det = (
        (adx * adx + ady * ady) * (bdx * cdy - bdy * cdx)
        - (bdx * bdx + bdy * bdy) * (adx * cdy - ady * cdx)
        + (cdx * cdx + cdy * cdy) * (adx * bdy - ady * bdx)
    )
    return det > 0


def _delaunay_violations(pts, triangles):
    """Triangle/point pairs breaking the empty-circumcircle property.

    A vectorized float determinant prefilters; anything near zero is settled
    exactly in rational arithmetic, so the check has no false verdicts.
    """
    x, y = pts[:, 0], pts[:, 1]
    tri = np.asarray(triangles)
    ax, ay = x[tri[:, 0]], y[tri[:, 0]]
    bx, by = x[tri[:, 1]], y[tri[:, 1]]
    cx, cy = x[tri[:, 2]], y[tri[:, 2]]
    adx, ady = ax[:, None] - x, ay[:, None] - y
    bdx, bdy = bx[:, None] - x, by[:, None] - y
    cdx, cdy = cx[:, None] - x, cy[:, None] - y
    t1 = (adx * adx + ady * ady) * (bdx * cdy - bdy * cdx)
    t2 = (bdx * bdx + bdy * bdy) * (adx * cdy - ady * cdx)
    t3 = (cdx * cdx + cdy * cdy) * (adx * bdy - ady * bdx)
    det = t1 - t2 + t3
    band = 1e-12 * (np.abs(t1) + np.abs(t2) + np.abs(t3))
    suspect = det > -band
    suspect[np.arange(len(tri))[:, None], tri] = False
    violations = []
    for ti, pi in zip(*np.nonzero(suspect)):
        a, b, c = (pts[i] for i in tri[ti])
        if _incircle_exact(a, b, c, pts[pi]):
            violations.append((int(ti), int(pi)))
    return violations


def _hull_vertices_cubic(pts, chunk=64):
    """Hull vertex indices by the cubic definition: an edge is on the hull
    when every other point lies strictly to its left.

    The verdict on edge (i, j) is the float sign of one cross product per k.
    k is taken chunk points at a time, and a j leaves at its first k with a
    cross product <= 0, which changes no verdict.
    """
    n = len(pts)
    x, y = pts[:, 0], pts[:, 1]
    verts = set()
    for i in range(n):
        dx, dy = x - x[i], y - y[i]
        js = np.delete(np.arange(n), i)
        for lo in range(0, n, chunk):
            ks = np.arange(lo, min(lo + chunk, n))
            cross = np.outer(dx[js], dy[ks]) - np.outer(dy[js], dx[ks])
            cross[(ks == i) | (js[:, None] == ks)] = np.inf
            js = js[cross.min(axis=1) > 0.0]
            if not js.size:
                break
        if js.size:
            verts.add(i)
            verts.update(js.tolist())
    return verts


def test_criterion_3_geometry(capsys, tmp_path):
    with reported(capsys, 3, "triangulation empty-circle + cubic hull oracle + footprints, < 30 s"):
        start = time.perf_counter()
        rng = np.random.default_rng(33)
        for _ in range(100):
            n = int(rng.integers(10, 501))
            pts = rng.uniform(0.0, 10.0, size=(n, 2))
            tri = delaunay(pts)
            tpts = np.asarray(tri.points)
            assert not _delaunay_violations(tpts, tri.triangles)
            hull = convex_hull(pts)
            hull_set = {tuple(v) for v in hull.vertices}
            oracle = {tuple(tpts[i]) for i in _hull_vertices_cubic(tpts)}
            assert hull_set == oracle

        pattern_file = tmp_path / "pattern.csv"
        synth_pattern(pattern_file, seed=5, beams=7)
        pattern = parse_pattern(pattern_file)
        for fp in all_footprints(pattern):
            gains = pattern.gain_db[:, fp.beam_id - 1]
            qualifying = gains >= gains.max() - 3.0
            for s in np.nonzero(qualifying)[0]:
                assert point_in_polygon(
                    (pattern.lat_deg[s], pattern.lon_deg[s]), fp.border
                )
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"geometry checks took {elapsed:.2f} s"


def _random_terminals(rng, count):
    kinds = [
        (TrafficType.FSS, 2.0), (TrafficType.AERO, 10.0),
        (TrafficType.MARITIME, 8.0),
    ]
    groups = ([], [], [])
    for i in range(count):
        kind, demand = kinds[int(rng.integers(0, 3))]
        term = Terminal(
            f"t{i:04d}",
            GeoPoint(float(rng.uniform(47.5, 56.5)), float(rng.uniform(0.5, 9.5))),
            kind, demand,
        )
        groups[int(kind) - 1].append(term)
    return groups


def test_criterion_4_association(capsys, tmp_path):
    with reported(capsys, 4, "association: containment, N + excluded = K + L + M, shuffle-invariant"):
        pattern_file = tmp_path / "pattern.csv"
        synth_pattern(pattern_file, seed=21, beams=7, pitch_deg=0.5)
        pattern = parse_pattern(pattern_file)
        footprints = all_footprints(pattern)
        borders = {fp.beam_id: fp.border for fp in footprints}

        rng = np.random.default_rng(88)
        fss, aero, maritime = _random_terminals(rng, 1000)
        T = build_traffic_matrix(footprints, pattern, fss, aero, maritime)
        assert T.n_users + T.excluded == 1000
        assert T.n_users > 0
        for lat, lon, beam in zip(T.lat_deg.tolist(), T.lon_deg.tolist(), T.beam.tolist()):
            assert point_in_polygon((lat, lon), borders[beam])

        mapping = dict(zip(zip(T.lat_deg, T.lon_deg), T.beam))
        for seed in (1, 2):
            shuffler = np.random.default_rng(seed)
            shuffled = [list(g) for g in (fss, aero, maritime)]
            for g in shuffled:
                shuffler.shuffle(g)
            T2 = build_traffic_matrix(footprints, pattern, *shuffled)
            assert T2.n_users == T.n_users and T2.excluded == T.excluded
            assert mapping == dict(zip(zip(T2.lat_deg, T2.lon_deg), T2.beam))


def _straight_line_channel(T, pattern, cfg):
    R, h, lam = cfg.earth_radius_m, cfg.altitude_m, cfg.wavelength_m
    entries = np.zeros((T.n_users, pattern.beams), dtype=complex)
    nearest = np.zeros((T.n_users, pattern.beams), dtype=int)
    coeff = pattern.coefficients
    for n, (lat, lon) in enumerate(zip(T.lat_deg.tolist(), T.lon_deg.tolist())):
        user = GeoPoint(lat, lon)
        q = R / (R + h)
        t = (
            math.cos(math.radians(cfg.sat_lon_deg - user.lon_deg))
            * math.cos(math.radians(cfg.sat_lat_deg))
            * math.cos(math.radians(user.lat_deg))
            + math.sin(math.radians(cfg.sat_lat_deg))
            * math.sin(math.radians(user.lat_deg))
        )
        t = max(-1.0, min(1.0, t))
        d = (R + h) * math.sqrt(1.0 + q * q - 2.0 * q * t)
        pl = 20.0 * math.log10(4.0 * math.pi * d / lam)
        phase = 2.0 * math.pi * math.fmod(d, lam) / lam
        for j in range(pattern.beams):
            best_d, best_s = math.inf, -1
            for s in range(pattern.samples_per_beam):
                ds = great_circle_distance(
                    user, GeoPoint(pattern.lat_deg[s], pattern.lon_deg[s])
                )
                if ds < best_d:
                    best_d, best_s = ds, s
            nearest[n, j] = best_s
            gain = 10.0 * math.log10(abs(coeff[best_s, j]) ** 2)
            amp = 10.0 ** ((gain - pl + cfg.rx_gain_db) / 20.0)
            entries[n, j] = amp * cmath.exp(1j * phase)
    return entries, nearest


def _twenty_user_scenario(tmp_path, pitch_deg=0.5):
    pattern_file = tmp_path / "pattern.csv"
    synth_pattern(pattern_file, seed=77, beams=7, pitch_deg=pitch_deg)
    pattern = parse_pattern(pattern_file)
    footprints = all_footprints(pattern)
    rng = np.random.default_rng(55)
    fss = []
    while len(fss) < 20:
        loc = GeoPoint(float(rng.uniform(49.0, 55.0)), float(rng.uniform(2.0, 8.0)))
        if any(point_in_polygon((loc.lat_deg, loc.lon_deg), fp.border)
               for fp in footprints):
            fss.append(Terminal(f"u{len(fss)}", loc, TrafficType.FSS, 2.0))
    T = build_traffic_matrix(footprints, pattern, fss, [], [])
    assert T.n_users == 20
    return T, pattern


def test_criterion_5_channel_equivalence(capsys, tmp_path):
    with reported(capsys, 5, "channel entries match the straight-line oracle to 1e-9, nearest samples exact"):
        T, pattern = _twenty_user_scenario(tmp_path)
        cfg = ScenarioConfig()
        H = build_channel_matrix(T, pattern, cfg)
        want, nearest = _straight_line_channel(T, pattern, cfg)
        two_pi = 2.0 * math.pi
        for n in range(20):
            for j in range(7):
                a, b = H.entries[n, j], want[n, j]
                assert abs(abs(a) - abs(b)) <= 1e-9 * abs(b)
                pa = cmath.phase(a) % two_pi
                pb = cmath.phase(b) % two_pi
                diff = abs((pa - pb + math.pi) % two_pi - math.pi)
                assert diff <= 1e-9 * max(pb, 1.0)
                assert H.nearest_sample[n] == nearest[n, j]


def test_criterion_6_interference_monotone(capsys, tmp_path):
    with reported(capsys, 6, "interference monotone over all active sets at eta = 7, s = 1 gives 0 W"):
        T, pattern = _twenty_user_scenario(tmp_path)
        cfg = ScenarioConfig()
        H = build_channel_matrix(T, pattern, cfg)
        power = 100.0
        beams = range(1, 8)
        for n in range(1, 21):
            serving = int(H.serving[n - 1])
            assert interference(H, n, {serving}, power) == 0.0
            others = [j for j in beams if j != serving]
            for size in range(0, 7):
                for combo in combinations(others, size):
                    base = {serving, *combo}
                    val = interference(H, n, base, power)
                    for extra in others:
                        if extra in base:
                            continue
                        grown = interference(H, n, base | {extra}, power)
                        assert grown >= val


def _movement_oracle(records, hour):
    best = {}
    for idx, (ident, stamp, lat, lon) in enumerate(records):
        if stamp.hour != hour:
            continue
        key = (stamp, idx)
        if ident not in best or key < best[ident][0]:
            best[ident] = (key, lat, lon)
    return {ident: (lat, lon) for ident, (_, lat, lon) in best.items()}


def test_criterion_7_dedup(capsys):
    with reported(capsys, 7, "movement dedup: one terminal per id per hour at the earliest position"):
        from datetime import datetime, timezone

        rng = np.random.default_rng(70)
        for header, loader in (
            ("flight_id,timestamp_iso8601_utc,lat_deg,lon_deg", load_aero),
            ("ship_id,timestamp_iso8601_utc,lat_deg,lon_deg", load_maritime),
        ):
            records = []
            for k in range(60):
                for _ in range(int(rng.integers(2, 8))):
                    stamp = datetime(
                        2026, 1, 15, int(rng.integers(0, 24)),
                        int(rng.integers(0, 60)), int(rng.integers(0, 60)),
                        tzinfo=timezone.utc,
                    )
                    records.append((
                        f"v{k:03d}", stamp,
                        float(rng.uniform(30.0, 70.0)),
                        float(rng.uniform(-30.0, 40.0)),
                    ))
            # plant exact-timestamp duplicates at different positions
            for k in range(10):
                stamp = datetime(2026, 1, 15, 9, 30, tzinfo=timezone.utc)
                records.append((f"v{k:03d}", stamp, 45.0 + k, 5.0))
                records.append((f"v{k:03d}", stamp, 45.0 + k, 6.0))
            order = rng.permutation(len(records))
            shuffled = [records[i] for i in order]
            text = header + "\n" + "".join(
                f"{ident},{stamp.isoformat().replace('+00:00', 'Z')},{lat!r},{lon!r}\n"
                for ident, stamp, lat, lon in shuffled
            )
            for hour in range(24):
                terms = loader(io.StringIO(text), hour)
                expect = _movement_oracle(shuffled, hour)
                assert {t.id for t in terms} == set(expect)
                for t in terms:
                    assert (t.location.lat_deg, t.location.lon_deg) == expect[t.id]


def test_criterion_8_downscaling(capsys):
    with reported(capsys, 8, "population floor rule: 2500/1000 -> 2, 1000 random cells vs oracle"):
        header = "lat_deg,lon_deg,population"
        terms = load_population(
            io.StringIO(f"{header}\n50,10,2500\n"), IngestConfig(downscale=1000)
        )
        assert len(terms) == 2

        rng = np.random.default_rng(80)
        policy = UrbanPolicy(density_threshold=50_000.0, suppression_factor=0.5)
        lines = [header]
        expected = {}
        for i in range(1000):
            lat = 30.0 + 0.25 * (i // 50)
            lon = -20.0 + 0.25 * (i % 50)
            pop = int(rng.integers(0, 200_000))
            lines.append(f"{lat},{lon},{pop}")
            count = math.floor(pop / 1000)
            if pop > policy.density_threshold:
                count = math.floor(count * policy.suppression_factor)
            if count:
                expected[(lat, lon)] = count
        terms = load_population(
            io.StringIO("\n".join(lines) + "\n"), IngestConfig(downscale=1000, urban=policy)
        )
        got = {}
        for t in terms:
            key = (t.location.lat_deg, t.location.lon_deg)
            got[key] = got.get(key, 0) + 1
        assert got == expected


def test_criterion_9_end_to_end_determinism(capsys, tmp_path):
    with reported(capsys, 9, "simulate reruns byte-identical, 7 beams / 10^4 terminals < 60 s"):
        inputs = tmp_path / "inputs"
        inputs.mkdir()
        for kind, seed, params in (
            ("pattern", 91, []),
            ("population", 92, ["--param", "cells=1000", "--param", "urban_fraction=0.15"]),
            ("aero", 93, ["--param", "flights=800"]),
            ("maritime", 94, ["--param", "ships=600"]),
        ):
            assert cli.main(
                ["synth", kind, "--seed", str(seed), "--out-dir", str(inputs)]
                + params
            ) == 0
        argv = [
            "simulate",
            "--pattern", str(inputs / "pattern.csv"),
            "--population", str(inputs / "population.csv"),
            "--aero", str(inputs / "aero.csv"),
            "--maritime", str(inputs / "maritime.csv"),
            "--hour", "9",
        ]
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        start = time.perf_counter()
        assert cli.main(argv + ["--out-dir", str(out1)]) == 0
        elapsed = time.perf_counter() - start
        assert cli.main(argv + ["--out-dir", str(out2)]) == 0

        for name in ("traffic.csv", "channel.csv", "manifest.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

        summary = json.loads((out1 / "channel_summary.json").read_text())
        terminals = summary["users"] + summary["excluded_terminals"]
        assert terminals >= 10_000, f"scenario has only {terminals} terminals"
        assert elapsed < 60.0, f"simulate took {elapsed:.2f} s"


def test_criterion_10_generator_shapes(capsys, tmp_path):
    with reported(capsys, 10, "maritime peak in hours 6..11, aero profile has >= 2 local maxima"):
        ships = tmp_path / "ships.csv"
        synth_maritime(ships, seed=42)
        counts = [len(load_maritime(ships, h)) for h in range(24)]
        assert 6 <= counts.index(max(counts)) <= 11

        flights = tmp_path / "flights.csv"
        synth_aero(flights, seed=42)
        counts = [len(load_aero(flights, h)) for h in range(24)]
        maxima = [
            h for h in range(1, 23)
            if counts[h] > counts[h - 1] and counts[h] > counts[h + 1]
        ]
        assert len(maxima) >= 2
