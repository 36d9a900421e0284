"""Hourly demand profiles, beam load classes, and interference sweeps.

Everything here reduces to the traffic and channel primitives: profiles
take the hour-independent FSS block and 24 hourly mover blocks and make two
associations, one of the FSS block and one of the movers of every hour;
classification thresholds cut the per-beam mean demand, and the sweep
gives the exact mean interference over every active-beam set that splits
the total power equally, in closed form.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadThresholdsError
from .ingest import TerminalBlock
from .ioutil import frozen, real, whole, write_table
from .linkbudget import interference  # noqa: F401  bench/tracer.py hooks it here
from .traffic import build_traffic_matrix, per_beam_demand

HOURS = 24


@dataclass(frozen=True)
class HourlyProfile:
    """Demand totals per (beam, hour, type) with per-series normalization.

    A series is one (beam, type) pair across the 24 hours. normalized holds
    each series divided by its daily maximum; series that never carry demand
    are flagged in all_zero and left at zero instead of dividing by zero.
    """

    demand_mbps: np.ndarray

    def __post_init__(self):
        demand = frozen(self.demand_mbps, float, "demand_mbps", 0)
        if demand.ndim != 3 or demand.shape[1] != HOURS or demand.shape[2] != 3:
            raise ValueError("profile must have shape (beams, 24, 3)")
        peaks = demand.max(axis=1)
        zero = peaks == 0.0
        scale = np.where(zero, 1.0, peaks)
        normalized = demand / scale[:, None, :]
        normalized.setflags(write=False)
        zero.setflags(write=False)
        object.__setattr__(self, "demand_mbps", demand)
        object.__setattr__(self, "normalized", normalized)
        object.__setattr__(self, "all_zero", zero)

    @property
    def beams(self):
        return self.demand_mbps.shape[0]

    def beam_means(self):
        """Mean hourly demand per beam, all types combined."""
        return self.demand_mbps.sum(axis=2).mean(axis=1)


@dataclass(frozen=True)
class BeamClassification:
    beam_id: int
    label: str
    mean_demand_mbps: float


def hourly_profiles(fss, aero_by_hour, maritime_by_hour, footprints, pattern):
    """Aggregate one day of demand into a per-beam hourly profile.

    fss is the hour-independent FSS block; aero_by_hour and maritime_by_hour
    are sequences holding the movers of hours 0..23 in order. The FSS block
    is associated once, and the movers of all hours together in a second
    call, aeronautical hours 0..23 then maritime hours 0..23. Association is
    a pure function of location, and each (beam, hour, type) total adds its
    own rows in input order, so the result equals associating every hour's
    terminals together.
    """
    if len(aero_by_hour) != HOURS or len(maritime_by_hour) != HOURS:
        raise ValueError("profiles need movers for each hour 0..23")
    fss_demand = per_beam_demand(build_traffic_matrix(footprints, pattern, fss, (), ()))
    hour_of_row = np.repeat(
        np.tile(np.arange(HOURS), 2),
        [len(block) for block in (*aero_by_hour, *maritime_by_hour)],
    )
    # the movers cross one concatenation and go in whole as the aeronautical
    # block; association reads each row's traffic type from its type column
    movers = TerminalBlock.concat(*aero_by_hour, *maritime_by_hour)
    T = build_traffic_matrix(footprints, pattern, (), movers, ())
    demand = np.zeros((pattern.beams, HOURS, 3))
    # unbuffered, so each total is added in row order
    np.add.at(demand, (T.beam - 1, hour_of_row[T.row], T.type - 1), T.demand_mbps)
    demand[:, :, 0] = fss_demand[:, :1]
    return HourlyProfile(demand_mbps=demand)


def classify_beams(profile, thresholds=None):
    """Split beams into hot, warm, and cold by mean hourly demand.

    thresholds is (lower, upper) with upper > lower >= 0; a beam is hot when
    its mean exceeds upper, cold when it falls below lower, warm otherwise.
    Without thresholds the 25th and 75th percentiles of the per-beam means
    are used; if those coincide (flat load) every beam is warm.
    """
    means = profile.beam_means()
    if thresholds is None:
        lower, upper = _percentile(means, 25), _percentile(means, 75)
    else:
        lower = real(thresholds[0], "lower", 0, error=BadThresholdsError)
        upper = real(thresholds[1], "upper", error=BadThresholdsError)
        if upper <= lower:
            raise BadThresholdsError(
                f"thresholds must satisfy upper > lower >= 0, got ({lower}, {upper})"
            )
    out = []
    for i, mean in enumerate(means):
        if mean > upper:
            label = "hot"
        elif mean < lower:
            label = "cold"
        else:
            label = "warm"
        out.append(BeamClassification(i + 1, label, float(mean)))
    return out


def _percentile(values, q):
    """float(np.percentile(values, q)) of non-NaN values, written out.

    numpy's linear method: partition where numpy does (first, last, and the
    floor of the virtual index (n - 1) * (q / 100) and the next), as a sort
    can put equal values such as 0.0 and -0.0 elsewhere, then interpolate
    from the nearer neighbour as numpy's _lerp does. np.percentile itself
    imports numpy.ma (~1 MB).
    """
    virtual = (len(values) - 1) * (q / 100)
    below = math.floor(virtual)
    if below >= len(values) - 1:
        return float(np.partition(values, [-1, 0])[-1])
    ordered = np.partition(values, sorted({-1, 0, below, below + 1}))
    a, b = float(ordered[below]), float(ordered[below + 1])
    t = virtual - below
    if t >= 0.5:
        return b - (b - a) * (1 - t)
    return a + (b - a) * t


@dataclass(frozen=True)
class SweepResult:
    """Interference means, one row per swept user, one column per set size."""

    users: tuple
    sizes: tuple
    watts: np.ndarray

    def __post_init__(self):
        watts = frozen(self.watts, float, "watts")
        if watts.shape != (len(self.users), len(self.sizes)):
            raise ValueError("watts must be users x sizes")
        object.__setattr__(self, "watts", watts)


def interference_sweep(H, cfg, sizes, users=None):
    """Mean interference per user for each active-set size.

    Active sets always contain the user's serving beam and share the total
    power equally, P/s per beam. Beam j reaches the user with |h_j|**2, the
    square of its location's magnitude at j; the channel's phases do not
    enter. The mean is over every such set of size s.
    Each other beam lies in (s-1)/(B-1) of those sets, so the mean is the
    full-set interference scaled by that fraction: exact, O(B) per (user,
    size), and 0 at s = 1. It adds the beams' terms for all users and sizes
    at once, one beam at a time in id order, as interference() adds them
    for one.
    """
    if users is None:
        users = range(1, H.n_users + 1)
    rows = np.array([H.check_user(n) for n in users], dtype=np.int64)
    sizes = [whole(s, "active-set size", 1, H.beams) for s in sizes]

    watts = np.zeros((len(rows), len(sizes)))
    location = H.location[rows]
    # |h|**2 per location through libm pow, as magnitude ** 2 in
    # interference(); squaring by multiplication differs in the last bit
    gains = np.float_power(H.magnitude, 2.0)
    serving = H.serving[rows][:, None]
    split = cfg.total_power_w / np.array(sizes, dtype=float)
    # interference() of every beam at P/s, the same additions in id order
    term = np.empty_like(watts)
    for j in range(1, H.beams + 1):
        gain = gains[location, j - 1][:, None]
        gain[serving == j] = 0.0
        watts += np.multiply(gain, split, out=term)
    for si, s in enumerate(sizes):
        # exactly 1.0 at s = B; 0 at s = 1 even where the total overflowed
        watts[:, si] = watts[:, si] * ((s - 1) / (H.beams - 1)) if s > 1 else 0.0
    watts.setflags(write=False)
    return SweepResult(users=tuple((rows + 1).tolist()), sizes=tuple(sizes), watts=watts)


PROFILE_HEADER = "beam,hour,type,demand_mbps,normalized"
BEAM_CLASS_HEADER = "beam,class,mean_demand_mbps"
INTERFERENCE_HEADER = "user,active_beams,interference_w"


def write_profile_csv(profile, path):
    def block(lo, hi):
        beam, rest = np.divmod(np.arange(lo, hi), HOURS * 3)
        hour, kind = np.divmod(rest, 3)
        return (
            beam + 1, hour, kind + 1,
            profile.demand_mbps[beam, hour, kind],
            profile.normalized[beam, hour, kind],
        )

    write_table(path, PROFILE_HEADER, profile.beams * HOURS * 3, block)


def write_beam_class_csv(classes, path):
    def block(lo, hi):
        rows = classes[lo:hi]
        return (
            np.array([c.beam_id for c in rows], dtype=np.int64),
            np.array([c.label for c in rows], dtype=str),
            np.array([c.mean_demand_mbps for c in rows], dtype=float),
        )

    write_table(path, BEAM_CLASS_HEADER, len(classes), block)


def write_interference_csv(sweep, path):
    users = np.array(sweep.users, dtype=np.int64)
    sizes = np.array(sweep.sizes, dtype=np.int64)

    def block(lo, hi):
        user, size = np.divmod(np.arange(lo, hi), len(sizes))
        return users[user], sizes[size], sweep.watts[user, size]

    write_table(path, INTERFERENCE_HEADER, len(users) * len(sizes), block)
