"""Per-user channel coefficients from beam gains, slant range, and phase.

Each user of the traffic matrix gets one complex entry per beam: the gain of
the beam's nearest pattern sample, minus free-space loss over the slant
range, plus the receive antenna gain, rotated by the sub-wavelength remainder
of the slant range. Users at one location share one row of entries. All beams
share one sample grid, so one nearest-sample search per distinct location
(NearestSamples) supplies the rows and the interpolated-gain diagnostic;
association in traffic.py runs its own search over the contested terminals.
"""

import math
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import MismatchedBeamsError, UnknownUserError
from .geo import GeoPoint, ScenarioConfig, path_loss_db, slant_range
from . import ioutil
from .ioutil import check_finite, format_rows, frozen, hold_columns, real, whole

_TWO_PI = 2.0 * math.pi

# angle-matrix elements per block when scanning the sample grid; the rows per
# block shrink as the grid grows, so memory stays flat in the grid size. A
# block makes about five temporaries of its size, ~0.6 MB at 1 << 14; at
# 1 << 16 association on the benchmark's M inputs peaked at 2.6 MB, not 1.7
_BLOCK_ELEMENTS = 1 << 14
# channel entries per block when building the rows; each makes a few complex
# temporaries, so memory stays flat in the locations beside the rows themselves
_ROW_ELEMENTS = 1 << 12
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
    no two distinct inputs merge. The search keeps two results per distinct
    point. `nearest` is the first sample of maximal cosine. `top_k` holds
    the k = min(3, samples) closest samples by central angle (after an exact
    coordinate hit is set to distance zero), ranked by (distance, sample
    index): every sample within the k-th smallest distance is a candidate,
    and a stable sort orders them.

    The central angle between two points is at least their latitude
    difference, so each block of latitude-sorted locations scans only the
    samples within a latitude band around it, kept in sample-index order.
    A location is settled by that scan when its k-th distance plus
    _BAND_MARGIN is below the latitude gap to the nearest sample outside
    the band; the others are scanned again with the band twice as wide, up
    to the whole grid. Both results are those of a scan of the whole grid.

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
        keys = np.stack([lat.view(np.int64), lon.view(np.int64)], axis=1)
        _, first, inverse = np.unique(
            keys, axis=0, return_index=True, return_inverse=True
        )
        self.inverse = inverse.reshape(-1)
        lat, lon = self.lat_deg, self.lon_deg = lat[first], lon[first]
        m = len(lat)
        k = min(3, grid_lat.size)
        self.nearest = np.empty(m, dtype=np.int64)
        self.top_k = np.empty((m, k), dtype=np.int64)
        dk = np.empty((m, k))
        self._eq_idx = np.empty(m, dtype=np.int64)
        self._has_eq = np.empty(m, dtype=bool)

        by_lat = np.argsort(grid_lat, kind="stable")
        band_lat = grid_lat[by_lat]
        band_rad = np.radians(band_lat)
        # from at least the margin's width, 22 doublings reach the whole grid
        half_width = max(_band_half_width(band_lat), math.degrees(_BAND_MARGIN))
        pending = np.argsort(lat, kind="stable")
        while pending.size:
            if not half_width < 180.0:
                self._scan(pending, np.arange(grid_lat.size), grid_lat, grid_lon, dk)
                break
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
                # with or beat a kept one; NaN rows fail and go to the full scan
                unsettled.append(rows[~(dk[rows, k - 1] + _BAND_MARGIN < gap)])
            pending = np.concatenate(unsettled)
            half_width *= 2.0
        # weights normalized by the nearest distance so equal distances get
        # exactly equal weight and near-hits cannot overflow
        with np.errstate(divide="ignore", invalid="ignore"):
            self._w = (dk[:, :1] / dk) ** 2
        self._w_sum = np.sum(self._w, axis=1)
        # the angle can also round to exactly zero for a non-identical pair,
        # which would make the normalized weights 0/0; both zero flavors take
        # the nearest sample's value, coordinate equality winning
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
            # max cosine = min distance; first occurrence keeps the lowest index
            self.nearest[sub] = cand[np.argmax(t, axis=1)]
            d = np.arccos(t, out=t)
            # an exact coordinate hit short-circuits; the rounded central angle
            # of a coincident pair is not reliably zero
            eq = (lat[:, None] == glat) & (lon[:, None] == glon)
            self._has_eq[sub] = eq.any(axis=1)
            self._eq_idx[sub] = cand[np.argmax(eq, axis=1)]
            d[eq] = 0.0
            kth = np.partition(d, k - 1, axis=1)[:, k - 1 : k]
            hits, cols = np.nonzero(d <= kth)
            dc = d[hits, cols]
            # nonzero lists columns in index order, so the stable sort by
            # (row, distance) breaks distance ties toward the lower index
            order = np.lexsort((dc, hits))
            counts = np.bincount(hits, minlength=sub.size)
            pick = order[(np.cumsum(counts) - counts)[:, None] + np.arange(k)]
            self.top_k[sub] = cand[cols[pick]]
            dk[sub] = dc[pick]

    def gain(self, gains_db, beam, points):
        """Inverse-distance-squared gain over the k nearest samples, at each point.

        gains_db holds every beam's gain at every grid sample, as (samples,
        beams). points indexes the distinct points (inverse maps the query
        rows to theirs), and beam is one 0-based beam or one per point; each
        point blends its beam's gains. A point sitting exactly on a sample
        takes that sample's gain.
        """
        gk = gains_db[self.top_k[points], np.expand_dims(beam, -1)]
        vals = np.sum(self._w[points] * gk, axis=1) / self._w_sum[points]
        zero, exact = self._zero[points], self._has_eq[points]
        vals[zero] = gk[zero, 0]
        vals[exact] = gains_db[self._eq_idx[points], beam][exact]
        return vals


@dataclass(frozen=True)
class ChannelMatrix:
    """Complex per-user, per-beam channel entries with link diagnostics.

    rows holds one row per distinct location, and user n of the traffic
    matrix has row location[n-1]; column j-1 belongs to beam j. The
    diagnostics arrays run parallel to the users. nearest_sample holds the
    shared-grid sample index (0-based) that supplied every beam gain of the row.
    Every array is held through ioutil.frozen: one that is already read-only,
    C-ordered, of the field's dtype and owns its memory, as
    build_channel_matrix gives, is kept as it is, and any other is copied.
    location, serving and nearest_sample are int64 and reject values that
    are not whole numbers; each location indexes rows, each serving beam
    lies in [1, beams] and each nearest sample is >= 0.
    """

    rows: np.ndarray
    location: np.ndarray
    serving: np.ndarray
    distance_m: np.ndarray
    path_loss_db: np.ndarray
    interp_gain_db: np.ndarray
    nearest_sample: np.ndarray

    def __post_init__(self):
        rows = frozen(self.rows, complex, "rows")
        if rows.ndim != 2:
            raise ValueError("rows must be a 2-D array")
        object.__setattr__(self, "rows", rows)
        hold_columns(self, (
            ("location", np.int64, (0, len(rows) - 1)),
            ("serving", np.int64, (1, rows.shape[1])), ("distance_m", float, ()),
            ("path_loss_db", float, ()), ("interp_gain_db", float, ()),
            ("nearest_sample", np.int64, (0,)),
        ), np.size(self.location), "user")

    @property
    def entries(self):
        """The (users, beams) matrix rows[location], built on each access."""
        entries = self.rows[self.location]
        entries.setflags(write=False)
        return entries

    @property
    def n_users(self):
        return self.location.shape[0]

    @property
    def beams(self):
        return self.rows.shape[1]

    def check_user(self, n):
        """Validate a 1-based user number and return its row index."""
        return whole(n, "user", 1, self.n_users, UnknownUserError) - 1


def build_channel_matrix(T, pattern, cfg=ScenarioConfig()):
    """Assemble the complex channel matrix for every user of a traffic matrix.

    Per user: slant range to the satellite, free-space loss, then one entry
    per beam from the gain of the nearest sample. The phase is set by the
    sub-wavelength remainder of the slant range, identical across the row.
    Range, loss and phase are functions of location, so they are computed
    once per distinct location of the nearest-sample search, and the rows
    are filled into one array a block of locations at a time; the finished
    arrays are frozen and handed to the ChannelMatrix without a copy.
    The per-user interpolated gain of the serving beam is carried along as a
    diagnostic and does not enter the entries.
    """
    if T.beams != pattern.beams:
        raise MismatchedBeamsError(
            f"traffic matrix has {T.beams} beams, pattern has {pattern.beams}"
        )
    lam = cfg.wavelength_m

    index = NearestSamples(T.lat_deg, T.lon_deg, pattern.lat_deg, pattern.lon_deg)
    m = len(index.lat_deg)
    dist = np.empty(m)
    loss = np.empty(m)
    phase = np.empty(m)
    for i, (lat, lon) in enumerate(zip(index.lat_deg.tolist(), index.lon_deg.tolist())):
        d = slant_range(
            GeoPoint(lat, lon), cfg.sat_lat_deg, cfg.sat_lon_deg,
            cfg.altitude_m, cfg.earth_radius_m,
        )
        dist[i] = d
        loss[i] = path_loss_db(d, lam)
        phase[i] = _TWO_PI * math.fmod(d, lam) / lam

    # BeamPattern.coefficients, then 10*log10(|c|**2), at the nearest samples:
    # every step is elementwise, so the bits are the whole grid's gathered,
    # whatever the block of locations
    rows = np.empty((m, pattern.beams), dtype=complex)
    rotation = np.exp(1j * phase)
    step = max(1, _ROW_ELEMENTS // pattern.beams)
    for lo in range(0, m, step):
        near = index.nearest[lo : lo + step]
        amp = np.abs(np.power(10.0, pattern.gain_db[near] / 20.0)
                     * np.exp(1j * pattern.phase_rad[near]))
        np.square(amp, out=amp)
        np.log10(amp, out=amp)
        amp *= 10.0
        amp -= loss[lo : lo + step, None]
        amp += cfg.rx_gain_db
        amp /= 20.0
        np.power(10.0, amp, out=amp)
        np.multiply(amp, rotation[lo : lo + step, None], out=rows[lo : lo + step])

    gamma = index.gain(pattern.gain_db, T.beam - 1, index.inverse)

    # the finished arrays, frozen here, are handed to the ChannelMatrix uncopied
    inverse = index.inverse
    columns = dict(
        rows=rows,
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
            total += w * abs(H.rows[H.location[user], j - 1]) ** 2
    return total


CHANNEL_HEADER = "user,beam,magnitude,phase_rad"
# stands for the user number in a formatted channel row
_USER = "@"


def _magnitude_phase(z):
    """abs(z) and the angle of z in [0, 2*pi), elementwise, as two arrays."""
    # not np.abs or np.arctan2: they can miss abs(complex) and math.atan2 by an ulp
    with np.errstate(over="ignore"):  # an overflow to inf fails as non-finite
        magnitude = np.hypot(z.real, z.imag)
    phase = np.fromiter(
        map(math.atan2, z.imag.tolist(), z.real.tolist()), float, z.size
    )
    phase[phase < 0.0] += _TWO_PI
    phase[phase >= _TWO_PI] = 0.0
    return magnitude, phase


def write_channel_csv(H, path):
    """Long-format channel entries, one row per (user, beam), canonical floats.

    In each block of users the row of each distinct location is formatted
    once, by one % over a template with the beam ids written in and each
    distinct phase formatted once; each user's text is its location's with
    the user number put in. A non-finite value still raises for the first
    one in user order.
    """
    beams = H.beams
    n_users = H.n_users if beams else 0
    step = max(1, ioutil.BLOCK_ROWS // max(beams, 1))
    # the lines of one location's row, then the separator between rows
    row = "".join(f"{_USER},{b},%.9g,%s\n" for b in range(1, beams + 1)) + "\0"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(CHANNEL_HEADER + "\n")
        for lo in range(0, n_users, step):
            locations, inverse = np.unique(H.location[lo : lo + step],
                                           return_inverse=True)
            magnitude, phase = _magnitude_phase(H.rows[locations].ravel())
            # the block's values in user order, for the first non-finite one
            check_finite([col.reshape(-1, beams)[inverse].ravel()
                          for col in (magnitude, phase)])
            # np.unique puts -0.0 with 0.0, and format_rows prints both as 0
            values, slot = np.unique(phase, return_inverse=True)
            texts = np.array(format_rows((values,)).split("\n"), dtype=object)
            # hypot is never -0.0, so %.9g prints the magnitude as fmt_float does
            rows = ((row * locations.size) % tuple(chain.from_iterable(
                zip(magnitude.tolist(), texts[slot].tolist())
            ))).split("\0")
            users = map(str, range(lo + 1, lo + inverse.size + 1))
            fh.write("".join([rows[r].replace(_USER, user)
                              for user, r in zip(users, inverse.tolist())]))


_SUMMARY_USER = (
    "    {\n"
    '      "distance_m": %.9g,\n'
    '      "interp_gain_db": %.9g,\n'
    '      "path_loss_db": %.9g,\n'
    '      "user": %d\n'
    "    },\n"
)


def channel_summary(H, excluded):
    """channel_summary.json's text: counts and the per-user link diagnostics.

    The bytes are those of ioutil.canonical_json over the plain summary data,
    with each user's object formatted by one % template. The users are
    formatted ioutil.BLOCK_ROWS lines of text at a time, and the text is
    joined once.
    """
    n = H.n_users
    columns = (H.distance_m, H.interp_gain_db, H.path_loss_db, np.arange(1, n + 1))
    step = max(1, ioutil.BLOCK_ROWS // _SUMMARY_USER.count("\n"))
    users = [format_rows([col[lo : lo + step] for col in columns], _SUMMARY_USER)
             for lo in range(0, n, step)]
    if users:
        users[-1] = users[-1][:-2]  # no comma after the last user
    return "".join([
        f'{{\n  "beams": {H.beams},\n  "excluded_terminals": {excluded},\n  "per_user": ',
        *(["[\n", *users, "\n  ]"] if users else ["[]"]),
        f',\n  "users": {n}\n}}',
    ])
