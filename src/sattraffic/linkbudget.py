"""Per-user channel coefficients from beam gains, slant range, and phase.

Each user of the traffic matrix gets one complex entry per beam: the gain of
the beam's nearest pattern sample, minus free-space loss over the slant
range, plus the receive antenna gain, rotated by the sub-wavelength remainder
of the slant range. All beams share one sample grid, so one nearest-sample
search per distinct user location (NearestSamples) supplies the entries of
every beam, the interpolated-gain diagnostic, and the association gains in
traffic.py.
"""

import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .errors import EmptyPatternError, MismatchedBeamsError, UnknownUserError
from .geo import GeoPoint, ScenarioConfig, path_loss_db, slant_range
from .ioutil import write_table

_TWO_PI = 2.0 * math.pi

# angle-matrix elements per block when scanning the sample grid; the rows per
# block shrink as the grid grows, so memory stays flat in the grid size
_BLOCK_ELEMENTS = 1 << 16


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
    no two distinct inputs merge, and the sample grid is scanned once per
    distinct location. The scan keeps two results. `nearest` is the first
    sample of maximal cosine. The k = min(3, samples) closest samples by
    central angle (after an exact coordinate hit is set to distance zero)
    are ranked by (distance, sample index): every sample within the k-th
    smallest distance is a candidate, and a stable sort orders them.

    All beams share the grid, so one index serves every beam's gain.
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
        lat, lon = lat[first], lon[first]
        m = len(lat)
        k = min(3, grid_lat.size)
        self._nearest = np.empty(m, dtype=np.int64)
        self._idx = np.empty((m, k), dtype=np.int64)
        dk = np.empty((m, k))
        self._eq_idx = np.empty(m, dtype=np.int64)
        self._has_eq = np.empty(m, dtype=bool)
        step = max(1, _BLOCK_ELEMENTS // grid_lat.size)
        for lo in range(0, m, step):
            hi = min(lo + step, m)
            t = _cos_angles(lat[lo:hi], lon[lo:hi], grid_lat, grid_lon)
            # max cosine = min distance; first occurrence keeps the lowest index
            self._nearest[lo:hi] = np.argmax(t, axis=1)
            d = np.arccos(t, out=t)
            # an exact coordinate hit short-circuits; the rounded central angle
            # of a coincident pair is not reliably zero
            eq = (lat[lo:hi, None] == grid_lat) & (lon[lo:hi, None] == grid_lon)
            self._has_eq[lo:hi] = eq.any(axis=1)
            self._eq_idx[lo:hi] = np.argmax(eq, axis=1)
            d[eq] = 0.0
            kth = np.partition(d, k - 1, axis=1)[:, k - 1 : k]
            rows, cols = np.nonzero(d <= kth)
            dc = d[rows, cols]
            # nonzero lists columns in index order, so the stable sort by
            # (row, distance) breaks distance ties toward the lower index
            order = np.lexsort((dc, rows))
            counts = np.bincount(rows, minlength=hi - lo)
            pick = order[(np.cumsum(counts) - counts)[:, None] + np.arange(k)]
            self._idx[lo:hi] = cols[pick]
            dk[lo:hi] = dc[pick]
        # weights normalized by the nearest distance so equal distances get
        # exactly equal weight and near-hits cannot overflow
        with np.errstate(divide="ignore", invalid="ignore"):
            self._w = (dk[:, :1] / dk) ** 2
        self._w_sum = np.sum(self._w, axis=1)
        # the angle can also round to exactly zero for a non-identical pair,
        # which would make the normalized weights 0/0; both zero flavors take
        # the nearest sample's value, coordinate equality winning
        self._zero = dk[:, 0] == 0.0

    @property
    def nearest(self):
        """Per query row, the index of the first sample of maximal cosine."""
        return self._nearest[self.inverse]

    @property
    def top_k(self):
        """Per query row, the k closest sample indices, nearest first."""
        return self._idx[self.inverse]

    def gain(self, gains_db):
        """Inverse-distance-squared gain over the k nearest samples, per row.

        gains_db holds one beam's gain at every grid sample. A point sitting
        exactly on a sample takes that sample's gain.
        """
        gains_db = np.asarray(gains_db, dtype=float)
        gk = gains_db[self._idx]
        vals = np.sum(self._w * gk, axis=1) / self._w_sum
        vals[self._zero] = gk[self._zero, 0]
        vals[self._has_eq] = gains_db[self._eq_idx[self._has_eq]]
        return vals[self.inverse]


@dataclass(frozen=True)
class ChannelMatrix:
    """Complex per-user, per-beam channel entries with link diagnostics.

    Row n-1 belongs to user n of the traffic matrix the entries were built
    from; column j-1 belongs to beam j. The diagnostics arrays run parallel
    to the rows. nearest_sample holds the shared-grid sample index (0-based)
    that supplied every beam gain of the row.
    """

    entries: np.ndarray
    serving: np.ndarray
    distance_m: np.ndarray
    path_loss_db: np.ndarray
    interp_gain_db: np.ndarray
    nearest_sample: np.ndarray

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=complex)
        object.__setattr__(self, "entries", entries)
        if entries.ndim != 2:
            raise ValueError("entries must be a 2-D array")
        n = entries.shape[0]
        for name in ("serving", "distance_m", "path_loss_db", "interp_gain_db",
                     "nearest_sample"):
            arr = np.asarray(getattr(self, name))
            if arr.shape != (n,):
                raise ValueError(f"{name} must have one value per user")
            object.__setattr__(self, name, arr)
            arr.setflags(write=False)
        entries.setflags(write=False)

    @property
    def n_users(self):
        return self.entries.shape[0]

    @property
    def beams(self):
        return self.entries.shape[1]


def build_channel_matrix(T, pattern, cfg=None, *, include_pattern_phase=False):
    """Assemble the complex channel matrix for every user of a traffic matrix.

    Per user: slant range to the satellite, free-space loss, then one entry
    per beam from the gain of the nearest sample. The phase is set by the
    sub-wavelength remainder of the slant range, identical across the row;
    include_pattern_phase additionally rotates each entry by the pattern's
    measured phase at the chosen sample (off by default, diagnostic only).
    The per-user interpolated gain of the serving beam is carried along as a
    diagnostic and does not enter the entries.
    """
    if pattern.beams == 0 or pattern.samples_per_beam == 0:
        raise EmptyPatternError("beam pattern has no samples")
    if T.beams != pattern.beams:
        raise MismatchedBeamsError(
            f"traffic matrix has {T.beams} beams, pattern has {pattern.beams}"
        )
    if cfg is None:
        cfg = ScenarioConfig()
    n = T.n_users
    lam = cfg.wavelength_m

    serving = T.beam
    dist = np.empty(n)
    loss = np.empty(n)
    phase = np.empty(n)
    for i, (lat, lon) in enumerate(zip(T.lat_deg.tolist(), T.lon_deg.tolist())):
        d = slant_range(
            GeoPoint(lat, lon), cfg.sat_lat_deg, cfg.sat_lon_deg,
            cfg.altitude_m, cfg.earth_radius_m,
        )
        dist[i] = d
        loss[i] = path_loss_db(d, lam)
        phase[i] = _TWO_PI * math.fmod(d, lam) / lam

    index = NearestSamples(T.lat_deg, T.lon_deg, pattern.lat_deg, pattern.lon_deg)
    nearest = index.nearest

    amp_db = 10.0 * np.log10(np.abs(pattern.coefficients[nearest, :]) ** 2)
    amp_db -= loss[:, None]
    amp_db += cfg.rx_gain_db
    entries = 10.0 ** (amp_db / 20.0) * np.exp(1j * phase)[:, None]
    if include_pattern_phase:
        entries = entries * np.exp(1j * pattern.phase_rad[nearest, :])

    gamma = np.empty(n)
    for j in np.unique(serving):
        sel = serving == j
        gamma[sel] = index.gain(pattern.gain_db[:, j - 1])[sel]

    return ChannelMatrix(
        entries=entries,
        serving=serving,
        distance_m=dist,
        path_loss_db=loss,
        interp_gain_db=gamma,
        nearest_sample=nearest,
    )


def interference(H, n, active, power):
    """Total co-channel power a user receives from other active beams.

    power is either one wattage applied to every beam or a mapping from
    beam id to watts. The serving beam never contributes. Beams are summed
    in id order so the result does not depend on set iteration order.
    """
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise UnknownUserError(f"user index must be an integer, got {n!r}")
    if not 1 <= n <= H.n_users:
        raise UnknownUserError(f"user {n} is not a row of the channel matrix")
    beams = sorted(active)
    for j in beams:
        if not isinstance(j, (int, np.integer)) or not 1 <= j <= H.beams:
            raise ValueError(f"active set contains unknown beam {j!r}")
    serving = int(H.serving[n - 1])
    total = 0.0
    for j in beams:
        if j == serving:
            continue
        if isinstance(power, Mapping):
            try:
                watts = float(power[j])
            except KeyError:
                raise ValueError(f"no power given for beam {j}") from None
        else:
            watts = float(power)
        if watts < 0.0:
            raise ValueError("beam power must be non-negative")
        total += watts * abs(H.entries[n - 1, j - 1]) ** 2
    return total


CHANNEL_HEADER = "user,beam,magnitude,phase_rad"


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
    """Long-format channel entries, one row per (user, beam), canonical floats."""
    beams = H.beams

    def block(lo, hi):
        user, beam = np.divmod(np.arange(lo, hi), beams)
        return (user + 1, beam + 1, *_magnitude_phase(H.entries[user, beam]))

    write_table(path, CHANNEL_HEADER, H.n_users * beams, block)


def channel_summary(H):
    """Plain-data summary with the per-user link diagnostics."""
    return {
        "users": int(H.n_users),
        "beams": int(H.beams),
        "per_user": [
            {
                "user": i + 1,
                "distance_m": float(H.distance_m[i]),
                "path_loss_db": float(H.path_loss_db[i]),
                "interp_gain_db": float(H.interp_gain_db[i]),
            }
            for i in range(H.n_users)
        ],
    }
