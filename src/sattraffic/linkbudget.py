"""Per-user channel magnitudes and phases from beam gains and slant range.

Each user of the traffic matrix gets one magnitude per beam, from the gain
of the beam's nearest pattern sample, minus free-space loss over the slant
range, plus the receive antenna gain, all in dB; and one phase, the
sub-wavelength remainder of the slant range, shared by its beams. Users at
one location share one row of magnitudes and one phase. The pattern's own
phase reaches no output. All beams share one sample grid, so one
nearest-sample search per distinct location (NearestSamples) supplies the
rows and the interpolated-gain diagnostic; association in traffic.py runs
its own search over the contested terminals.
"""

import math
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from .errors import BelowHorizonError, MismatchedBeamsError, UnknownUserError
# slant_range is not called here; the benchmark tracer hooks it at this import site
from .geo import (ScenarioConfig, _path_loss_db, _slant_range, _subsatellite_cos,
                  slant_range)
from . import ioutil
from .ioutil import USER, format_rows, frozen, hold_columns, real, whole, write_by_location

_TWO_PI = 2.0 * math.pi

# angle-matrix elements per block when scanning the sample grid; the rows per
# block shrink as the grid grows, so memory stays flat in the grid size. A
# block makes about five temporaries of its size, ~0.6 MB at 1 << 14; at
# 1 << 16 association on the benchmark's M inputs peaked at 2.6 MB, not 1.7
_BLOCK_ELEMENTS = 1 << 14
# distinct query locations per latitude band
_BAND_ROWS = 64
# half-width of the first band, in median steps between the grid's distinct
# latitudes
_BAND_STEPS = 2.0
# radians by which a location's k-th distance must stay below the latitude gap
# to the nearest sample outside its band; well above the 1.5e-8 rad that the
# computed angle of a coincident pair can round to
_BAND_MARGIN = 1e-6


def _band_half_width(band_lat):
    """_BAND_STEPS median steps between the distinct latitudes of the sorted,
    finite band_lat, or 180.0 without two of them.

    The steps are the positive differences of band_lat, and their median is
    np.median's: the middle one, or the mean of the middle two. The median
    equals np.median(np.diff(np.unique(band_lat))) bit for bit; those calls
    would import numpy.ma (~1 MB) on a process's first search.
    """
    steps = np.diff(band_lat)
    steps = np.sort(steps[steps > 0.0])
    if not steps.size:
        return 180.0
    mid = steps.size // 2
    median = steps[mid] if steps.size % 2 else (steps[mid - 1] + steps[mid]) / 2.0
    return _BAND_STEPS * float(median)


def _cos_angles(lat_deg, lon_deg, grid_lat_deg, grid_lon_deg):
    """Clamped cosines of the central angles, one row per user.

    The spherical law of cosines gives distance as acos of this quantity;
    acos is strictly decreasing, so nearest-sample searches compare the
    cosines directly and ties land on the same samples either way.
    """
    u_lat = np.radians(np.asarray(lat_deg, dtype=float))[:, None]
    u_lon = np.radians(np.asarray(lon_deg, dtype=float))[:, None]
    g_lat = np.radians(np.asarray(grid_lat_deg, dtype=float))[None, :]
    g_lon = np.radians(np.asarray(grid_lon_deg, dtype=float))[None, :]
    t = np.sin(u_lat) * np.sin(g_lat) + np.cos(u_lat) * np.cos(g_lat) * np.cos(
        g_lon - u_lon
    )
    np.clip(t, -1.0, 1.0, out=t)
    return t


class NearestSamples:
    """Nearest pattern samples of query points, searched once per distinct point.

    Query rows are deduplicated on the exact bit patterns of (lat, lon), so
    no two distinct inputs merge. Each distinct point's samples are ranked
    once, by the cosine of the central angle, greatest first, an exact
    coordinate hit first of all (the computed cosine of a coincident pair is
    not reliably 1) and ties to the lower sample index. `top_k` holds the
    first k = min(3, samples) of that ranking and `nearest` its first
    column, the sample whose gains make the channel's magnitudes.

    The central angle between two points is at least their latitude
    difference, so each block of latitude-sorted locations scans only the
    samples within a latitude band around it, kept in sample-index order.
    A location is settled by that scan when its k-th distance plus
    _BAND_MARGIN is below the latitude gap to the nearest sample outside
    the band; the others are scanned again with the band twice as wide, up
    to the whole grid. The ranking is that of a scan of the whole grid.

    All beams share the grid, so one index serves every beam's gain.
    lat_deg and lon_deg hold the distinct query points, and inverse maps
    each query row to its point; gain() answers at the points it is given.
    """

    def __init__(self, lat_deg, lon_deg, grid_lat_deg, grid_lon_deg):
        lat = np.ascontiguousarray(lat_deg, dtype=float)
        lon = np.ascontiguousarray(lon_deg, dtype=float)
        grid_lat = np.asarray(grid_lat_deg, dtype=float)
        grid_lon = np.asarray(grid_lon_deg, dtype=float)
        if grid_lat.size == 0:
            raise ValueError("nearest-sample search needs at least one sample")
        bad = np.flatnonzero(~(np.isfinite(lat) & np.isfinite(lon)))
        if bad.size:
            i = bad[0]
            raise ValueError(f"query point {i} ({lat[i]}, {lon[i]}) is not finite")
        keys = np.stack([lat.view(np.int64), lon.view(np.int64)], axis=1)
        _, first, inverse = np.unique(
            keys, axis=0, return_index=True, return_inverse=True
        )
        self.inverse = inverse.reshape(-1)
        lat, lon = self.lat_deg, self.lon_deg = lat[first], lon[first]
        m = len(lat)
        k = min(3, grid_lat.size)
        self.top_k = np.empty((m, k), dtype=np.int64)
        dk = np.empty((m, k))

        by_lat = np.argsort(grid_lat, kind="stable")
        band_lat = grid_lat[by_lat]
        band_rad = np.radians(band_lat)
        # from at least the margin's width, 22 doublings reach 180 degrees, where
        # the band holds every sample, both gaps are infinite and all settle
        half_width = max(_band_half_width(band_lat), math.degrees(_BAND_MARGIN))
        pending = np.argsort(lat, kind="stable")
        while pending.size:
            unsettled = []
            for lo in range(0, pending.size, _BAND_ROWS):
                rows = pending[lo : lo + _BAND_ROWS]
                a = np.searchsorted(band_lat, lat[rows[0]] - half_width, "left")
                z = np.searchsorted(band_lat, lat[rows[-1]] + half_width, "right")
                if z - a < k:
                    unsettled.append(rows)
                    continue
                cand = np.sort(by_lat[a:z])
                self._scan(rows, cand, grid_lat, grid_lon, dk)
                r = np.radians(lat[rows])
                gap = np.minimum(
                    r - band_rad[a - 1] if a > 0 else np.inf,
                    band_rad[z] - r if z < band_rad.size else np.inf,
                )
                # an excluded sample is at least gap away, so it cannot tie
                # with or beat a kept one
                unsettled.append(rows[~(dk[rows, k - 1] + _BAND_MARGIN < gap)])
            pending = np.concatenate(unsettled)
            half_width *= 2.0
        self.nearest = self.top_k[:, 0]
        # weights normalized by the nearest distance so equal distances get
        # exactly equal weight and near-hits cannot overflow
        with np.errstate(divide="ignore", invalid="ignore"):
            self._w = (dk[:, :1] / dk) ** 2
        self._w_sum = np.sum(self._w, axis=1)
        # the first distance is zero at a coordinate hit and where the angle
        # to a distinct sample rounds to zero; either makes the normalized
        # weights 0/0, so the point takes its first-ranked sample's gain
        self._zero = dk[:, 0] == 0.0

    def _scan(self, rows, cand, grid_lat, grid_lon, dk):
        """Search the samples cand (ascending indices) for the locations rows."""
        k = dk.shape[1]
        glat, glon = grid_lat[cand], grid_lon[cand]
        step = max(1, _BLOCK_ELEMENTS // cand.size)
        for lo in range(0, rows.size, step):
            sub = rows[lo : lo + step]
            lat, lon = self.lat_deg[sub], self.lon_deg[sub]
            t = _cos_angles(lat, lon, glat, glon)
            t[(lat[:, None] == glat) & (lon[:, None] == glon)] = 2.0  # hits rank first
            kth = np.partition(t, t.shape[1] - k, axis=1)[:, -k, None]
            hits, cols = np.nonzero(t >= kth)
            tc = t[hits, cols]
            # nonzero lists columns in index order, so the stable sort by
            # (row, negated cosine) breaks ties toward the lower index
            order = np.lexsort((-tc, hits))
            counts = np.bincount(hits, minlength=sub.size)
            pick = order[(np.cumsum(counts) - counts)[:, None] + np.arange(k)]
            self.top_k[sub] = cand[cols[pick]]
            dk[sub] = np.arccos(np.minimum(tc[pick], 1.0))

    def gain(self, gains_db, beam, points):
        """Inverse-distance-squared gain over the k nearest samples, at each point.

        gains_db holds every beam's gain at every grid sample, as (samples,
        beams). points indexes the distinct points (inverse maps the query
        rows to theirs), and beam is one 0-based beam or one per point; each
        point blends its beam's gains. A point at distance zero from its
        first-ranked sample, as on a coordinate hit, takes that sample's gain.
        """
        gk = gains_db[self.top_k[points], np.expand_dims(beam, -1)]
        vals = np.sum(self._w[points] * gk, axis=1) / self._w_sum[points]
        zero = self._zero[points]
        vals[zero] = gk[zero, 0]
        return vals


@dataclass(frozen=True)
class ChannelMatrix:
    """Per-user, per-beam channel magnitudes and phases with link diagnostics.

    magnitude holds one row per distinct location, column j-1 for beam j,
    and phase_rad the one phase, in radians, that the entries of that row
    share; user n of the traffic matrix has location[n-1]. The diagnostics
    arrays run parallel to the users. nearest_sample holds the shared-grid
    sample index (0-based) that supplied every beam gain of the row.
    Every array is held through ioutil.frozen: one that is already read-only,
    C-ordered, of the field's dtype and owns its memory, as
    build_channel_matrix gives, is kept as it is, and any other is copied.
    location, serving and nearest_sample are int64 and reject values that
    are not whole numbers; each location indexes the rows, each serving beam
    lies in [1, beams] and each nearest sample is >= 0.
    """

    magnitude: np.ndarray
    phase_rad: np.ndarray
    location: np.ndarray
    serving: np.ndarray
    distance_m: np.ndarray
    path_loss_db: np.ndarray
    interp_gain_db: np.ndarray
    nearest_sample: np.ndarray

    def __post_init__(self):
        magnitude = frozen(self.magnitude, float, "magnitude")
        if magnitude.ndim != 2:
            raise ValueError("magnitude must be a 2-D array")
        object.__setattr__(self, "magnitude", magnitude)
        hold_columns(self, (("phase_rad", float, ()),), len(magnitude), "location")
        hold_columns(self, (
            ("location", np.int64, (0, len(magnitude) - 1)),
            ("serving", np.int64, (1, magnitude.shape[1])), ("distance_m", float, ()),
            ("path_loss_db", float, ()), ("interp_gain_db", float, ()),
            ("nearest_sample", np.int64, (0,)),
        ), np.size(self.location), "user")

    @property
    def entries(self):
        """The complex (users, beams) matrix of the rows magnitude *
        e^(i phase_rad) at each user's location, built on each access."""
        entries = (self.magnitude * np.exp(1j * self.phase_rad)[:, None])[self.location]
        entries.setflags(write=False)
        return entries

    @property
    def n_users(self):
        return self.location.shape[0]

    @property
    def beams(self):
        return self.magnitude.shape[1]

    def check_user(self, n):
        """Validate a 1-based user number and return its row index."""
        return whole(n, "user", 1, self.n_users, UnknownUserError) - 1


def _check_visible(index, cos, cfg):
    """Refuse the first user, in row order, whose location does not see the
    satellite above the horizon. The free-space model needs a line of sight:
    cos, the cosine of each location's central angle to the sub-satellite
    point, must exceed q = R/(R+h), which is elevation above 0."""
    q = cfg.earth_radius_m / (cfg.earth_radius_m + cfg.altitude_m)
    hidden = np.flatnonzero(~(cos > q)[index.inverse])
    if hidden.size:
        i = index.inverse[hidden[0]]
        c = float(cos[i])
        elevation = math.degrees(math.atan2(c - q, math.sqrt(1.0 - c * c)))
        raise BelowHorizonError(
            f"user {hidden[0]} at ({index.lat_deg[i]}, {index.lon_deg[i]}) does not see the "
            f"satellite: elevation {elevation:.2f} deg is not above the horizon")


def build_channel_matrix(T, pattern, cfg=ScenarioConfig()):
    """Assemble the channel matrix for every user of a traffic matrix.

    Per location: slant range to the satellite, free-space loss, and the
    phase, the sub-wavelength remainder of the slant range in [0, 2*pi);
    then one magnitude per beam, 10^((gain - loss + rx_gain_db) / 20), from
    the dB gain of the nearest sample. Range, loss and phase are functions
    of location, so each is one call of geo's unchecked array core on the
    nearest-sample search's distinct locations, whose sub-satellite cosines
    the horizon check reads too: ScenarioConfig has checked the satellite,
    and the TrafficMatrix has bounded the latitudes and wrapped the
    longitudes as a GeoPoint does. The finished arrays are frozen and handed
    to the ChannelMatrix without a copy. The per-user interpolated gain of
    the serving beam is carried along as a diagnostic and does not enter the
    magnitudes.
    """
    if T.beams != pattern.beams:
        raise MismatchedBeamsError(
            f"traffic matrix has {T.beams} beams, pattern has {pattern.beams}"
        )
    lam = cfg.wavelength_m

    index = NearestSamples(T.lat_deg, T.lon_deg, pattern.lat_deg, pattern.lon_deg)
    cos = _subsatellite_cos(index.lat_deg, index.lon_deg, cfg.sat_lat_deg, cfg.sat_lon_deg)
    _check_visible(index, cos, cfg)
    dist = _slant_range(cos, cfg.altitude_m, cfg.earth_radius_m)
    loss = _path_loss_db(dist, lam)
    # np.fmod is exact, as math.fmod is, and the product and quotient are
    # rounded as Python's are
    phase = _TWO_PI * np.fmod(dist, lam) / lam
    phase[phase >= _TWO_PI] = 0.0

    magnitude = pattern.gain_db[index.nearest]
    magnitude -= loss[:, None]
    magnitude += cfg.rx_gain_db
    magnitude /= 20.0
    np.power(10.0, magnitude, out=magnitude)

    gamma = index.gain(pattern.gain_db, T.beam - 1, index.inverse)

    # the finished arrays, frozen here, are handed to the ChannelMatrix uncopied
    inverse = index.inverse
    columns = dict(
        magnitude=magnitude,
        phase_rad=phase,
        location=inverse,
        serving=T.beam,
        distance_m=dist[inverse],
        path_loss_db=loss[inverse],
        interp_gain_db=gamma,
        nearest_sample=index.nearest[inverse],
    )
    for column in columns.values():
        column.setflags(write=False)
    return ChannelMatrix(**columns)


def interference(H, n, active, power):
    """Total co-channel power a user receives from other active beams.

    active is read as a set of integer beam ids (a bool is refused, not read
    as beam 0 or 1). power is either one wattage applied to every beam or a
    mapping from beam id to watts, which may omit the serving beam; every
    wattage given for an active beam goes through ioutil.real, >= 0. The
    serving beam never contributes. Beams are summed in id order so the
    result does not depend on set iteration order.
    """
    user = H.check_user(n)
    active = [whole(j, "active beam", 1, H.beams) for j in active]
    serving = int(H.serving[user])
    watts = {}
    for j in sorted(set(active)):
        if not isinstance(power, Mapping):
            watts[j] = real(power, f"beam {j} power", 0)
        elif j in power:
            watts[j] = real(power[j], f"beam {j} power", 0)
        elif j != serving:
            raise ValueError(f"no power given for beam {j}")
    total = 0.0
    for j, w in watts.items():
        if j != serving:
            total += w * H.magnitude[H.location[user], j - 1] ** 2
    return total


CHANNEL_HEADER = "user,beam,magnitude,phase_rad"


def write_channel_csv(H, path):
    """Long-format channel entries, one row per (user, beam), canonical floats,
    through ioutil.write_by_location: a location's phase is formatted once
    for all its beams, and an entry's magnitude is checked before its phase."""
    line = "".join(f"{USER},{b},%.9g,%s\n" for b in range(1, H.beams + 1))

    def values(rows):
        # each entry's magnitude, then its location's phase text; fmt_float's
        # form: adding 0.0 prints -0.0 as 0
        phases = format_rows((H.phase_rad[rows],)).split("\n")
        return chain.from_iterable(chain.from_iterable(
            map(zip, (H.magnitude[rows] + 0.0).tolist(), map(repeat, phases))))

    phase = np.broadcast_to(H.phase_rad[:, None], H.magnitude.shape)
    write_by_location(path, CHANNEL_HEADER, range(1, H.n_users + 1), H.location, line,
                      [H.magnitude, phase], values)


_SUMMARY_USER = (
    "    {\n"
    '      "distance_m": %.9g,\n'
    '      "interp_gain_db": %.9g,\n'
    '      "path_loss_db": %.9g,\n'
    '      "user": %d\n'
    "    },\n"
)


def channel_summary(H, excluded, path):
    """Write channel_summary.json: counts and the per-user link diagnostics.

    The bytes are those of ioutil.canonical_json over the plain summary data
    and a line end, with each user's object formatted by one % template. The
    users are formatted and written ioutil.BLOCK_ROWS lines of text at a
    time, so one block's text is held at once. A non-finite value raises
    fmt_float's ValueError for the first one in user order.
    """
    n = H.n_users
    step = max(1, ioutil.BLOCK_ROWS // _SUMMARY_USER.count("\n"))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f'{{\n  "beams": {H.beams},\n  "excluded_terminals": {excluded},\n'
                 '  "per_user": ' + ("[\n" if n else "[]"))
        for lo in range(0, n, step):
            hi = min(lo + step, n)
            text = format_rows([H.distance_m[lo:hi], H.interp_gain_db[lo:hi],
                                H.path_loss_db[lo:hi], np.arange(lo + 1, hi + 1)],
                               _SUMMARY_USER)
            fh.write(text if hi < n else text[:-2])  # no comma after the last user
        fh.write(("\n  ]" if n else "") + f',\n  "users": {n}\n}}\n')
