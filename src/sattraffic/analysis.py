"""Hourly demand profiles, beam load classes, and interference sweeps.

Everything here reduces to the traffic and channel primitives: profiles
associate the hour-independent FSS block once and the movers once per hour,
classification thresholds cut the per-beam mean demand, and the sweep
averages interference over random or exhaustive active-beam sets with the
total power split equally across a set.
"""

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import BadThresholdsError
from .ioutil import fmt_float, write_csv
from .linkbudget import interference
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
        demand = np.asarray(self.demand_mbps, dtype=float)
        if demand.ndim != 3 or demand.shape[1] != HOURS or demand.shape[2] != 3:
            raise ValueError("profile must have shape (beams, 24, 3)")
        if (demand < 0.0).any() or not np.isfinite(demand).all():
            raise ValueError("demand totals must be finite and non-negative")
        peaks = demand.max(axis=1)
        zero = peaks == 0.0
        scale = np.where(zero, 1.0, peaks)
        normalized = demand / scale[:, None, :]
        for arr in (demand, normalized, zero):
            arr.setflags(write=False)
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


def hourly_profiles(snapshots, footprints, pattern):
    """Aggregate 24 hourly snapshots into a per-beam demand profile.

    The hour labels must cover 0..23 exactly once, in any order. The FSS
    block is associated apart from the movers, and again only when it
    differs from the block associated last, so snapshots that share one
    FSS block (as the CLI builds them) associate it once. Association is a
    pure function of location and each (beam, type) total sums its own
    rows in order, so the result equals associating every snapshot whole.
    """
    snapshots = list(snapshots)
    if sorted(s.hour for s in snapshots) != list(range(HOURS)):
        raise ValueError("profiles need exactly one snapshot per hour 0..23")
    demand = np.zeros((pattern.beams, HOURS, 3))
    fss = fss_demand = None
    for snap in snapshots:
        if fss_demand is None or snap.fss != fss:
            fss = snap.fss
            fss_demand = per_beam_demand(
                build_traffic_matrix(footprints, pattern, fss, (), ())
            )
        movers = per_beam_demand(
            build_traffic_matrix(footprints, pattern, (), snap.aero, snap.maritime)
        )
        demand[:, snap.hour, 0] = fss_demand[:, 0]
        demand[:, snap.hour, 1:] = movers[:, 1:]
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
        lower = float(np.percentile(means, 25))
        upper = float(np.percentile(means, 75))
    else:
        lower, upper = float(thresholds[0]), float(thresholds[1])
        if not (math.isfinite(lower) and math.isfinite(upper)):
            raise BadThresholdsError("thresholds must be finite")
        if lower < 0.0 or upper <= lower:
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


@dataclass(frozen=True)
class SweepResult:
    """Interference means, one row per swept user, one column per set size."""

    users: tuple
    sizes: tuple
    watts: np.ndarray

    def __post_init__(self):
        watts = np.asarray(self.watts, dtype=float)
        if watts.shape != (len(self.users), len(self.sizes)):
            raise ValueError("watts must be users x sizes")
        watts.setflags(write=False)
        object.__setattr__(self, "watts", watts)


def interference_sweep(
    H, T, cfg, sizes, policy="uniform", trials=100, seed=0, users=None
):
    """Mean interference per user for each active-set size.

    Active sets always contain the user's serving beam and share the total
    power equally. The uniform policy averages over seeded random sets; the
    exhaustive policy averages over every set of the size, which is exact
    and has no sampling variance.
    """
    if len(T.rows) != H.n_users:
        raise ValueError("traffic and channel matrices disagree on user count")
    if users is None:
        users = range(1, H.n_users + 1)
    users = [int(u) for u in users]
    sizes = [int(s) for s in sizes]
    for s in sizes:
        if not 1 <= s <= H.beams:
            raise ValueError(f"active-set size {s} outside [1, {H.beams}]")
    if policy not in ("uniform", "exhaustive"):
        raise ValueError(f"unknown selection policy {policy!r}")
    if trials < 1:
        raise ValueError("trials must be >= 1")

    rng = np.random.default_rng(seed)
    watts = np.zeros((len(users), len(sizes)))
    for ui, n in enumerate(users):
        serving = int(H.serving[n - 1])
        others = [j for j in range(1, H.beams + 1) if j != serving]
        for si, s in enumerate(sizes):
            split = cfg.total_power_w / s
            if policy == "exhaustive":
                sets = [
                    {serving, *combo} for combo in combinations(others, s - 1)
                ]
            else:
                sets = []
                for _ in range(trials):
                    picked = rng.choice(len(others), size=s - 1, replace=False)
                    sets.append({serving, *(others[int(i)] for i in picked)})
            total = math.fsum(
                interference(H, n, active, split) for active in sets
            )
            watts[ui, si] = total / len(sets)
    return SweepResult(users=tuple(users), sizes=tuple(sizes), watts=watts)


PROFILE_HEADER = "beam,hour,type,demand_mbps,normalized"
BEAM_CLASS_HEADER = "beam,class,mean_demand_mbps"
INTERFERENCE_HEADER = "user,active_beams,interference_w"


def write_profile_csv(profile, path):
    def rows():
        for b in range(profile.beams):
            for hour in range(HOURS):
                for k in range(3):
                    yield (
                        str(b + 1),
                        str(hour),
                        str(k + 1),
                        fmt_float(profile.demand_mbps[b, hour, k]),
                        fmt_float(profile.normalized[b, hour, k]),
                    )

    write_csv(path, PROFILE_HEADER.split(","), rows())


def write_beam_class_csv(classes, path):
    def rows():
        for c in classes:
            yield (str(c.beam_id), c.label, fmt_float(c.mean_demand_mbps))

    write_csv(path, BEAM_CLASS_HEADER.split(","), rows())


def write_interference_csv(sweep, path):
    def rows():
        for ui, user in enumerate(sweep.users):
            for si, size in enumerate(sweep.sizes):
                yield (str(user), str(size), fmt_float(sweep.watts[ui, si]))

    write_csv(path, INTERFERENCE_HEADER.split(","), rows())
