"""The serving workloads: seeded inputs, frozen offered load, shape checks.

Every input comes from ``--seed``: the same seed gives the same specs in
the same order and the same open-loop arrival schedule.  The daemon sees
only the generated JSON payloads.

The open-loop offered rates are frozen here and never recomputed per
run, so a faster daemon is measured at the same load.  They sit at about
40% of the parent daemon's closed-loop ``capacity_rps`` on a 2-core
x86-64 host: 18 of 45.5 rps for ``hot_replay`` and 5 of 10-14 rps for
``fresh_digg``.  At 18 rps about a fifth of the replayed answers meet
the response stall, so the open-loop median and p90 fall on either side
of it rather than on the boundary between the two modes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

#: The 848-group Digg network answered as a 61-sample trajectory.
DIGG_TRAJECTORY: dict[str, object] = {
    "network": "digg2009", "t_final": 60.0, "n_samples": 61,
    "method": "dopri45",
}

#: The paper's Fig. 4 control problem, a 20-group power law calibrated to
#: r0 = 4, on a 1-day horizon and a 5-point grid: a solve then takes 18
#: FBSM sweeps and about a third of a second for every cost pair, so a
#: run holds dozens.  A 30-day horizon takes 46-101 sweeps and seconds
#: each: a handful of uneven solves per run, whose figures spread wider
#: across seeds than any bound the benchmark may set.
FIG4_CONTROL: dict[str, object] = {
    "network": {"kind": "power_law", "k_min": 1, "k_max": 20,
                "exponent": 2.0},
    "alpha": 0.01, "eps1": 0.2, "eps2": 0.05, "t_final": 1.0,
    "n_samples": 5, "initial_infected": 0.05,
    "calibration": {"eps1": 0.2, "eps2": 0.05, "r0": 4.0},
}

#: Policy ranges that straddle the extinction/persistence boundary.
EPS1_RANGE = (0.05, 0.5)
EPS2_RANGE = (0.01, 0.15)

#: Unit-cost ranges of the control requests.
C1_RANGE = (3.0, 7.0)
C2_RANGE = (7.0, 13.0)
CONTROL_GRID = 5

#: Distinct specs in the replay pool and its Zipf popularity exponent.
HOT_POOL = 128
ZIPF_EXPONENT = 1.0

#: Distinct control requests per run; more than the parent solves in a
#: run, so a faster daemon still never repeats one (a repeat would hit).
CONTROL_POOL = 256

#: Length of the fresh and replay request sequences: far more than any
#: run sends, so the closed loop never runs out.
SEQUENCE_LENGTH = 200_000

# Independent random streams per input kind, keyed with the seed.
_POOL, _ORDER, _ARRIVALS, _CONTROL, _FRESH = 1, 2, 3, 4, 5


@dataclass(frozen=True)
class Workload:
    """One traffic mix.

    ``offered_rps`` is the frozen open-loop Poisson rate (``0`` means the
    workload runs the closed-loop phase only), ``open_share`` the part
    of the measured seconds given to the open-loop phase, ``tail`` the
    latency quantile reported as the tail (the highest one a parent run
    supports with ten samples beyond it), ``recompute`` how many
    answers are recomputed in-process afterwards and ``control_probe``
    how many control plans a traced run solves after its timed phases,
    so that the control layer is measured on this workload too.
    """

    name: str
    offered_rps: float
    open_share: float
    tail: float
    expect: str  # "hit", "miss_stacked" or "miss_solo"; see check_shape
    recompute: int
    control_probe: int = 0


WORKLOADS: dict[str, Workload] = {
    "hot_replay": Workload("hot_replay", 18.0, 1 / 3, 0.9, "hit", 8),
    "fresh_digg": Workload("fresh_digg", 5.0, 1 / 3, 0.9, "miss_stacked", 8,
                           control_probe=8),
    "control_plans": Workload("control_plans", 0.0, 0.0, 0.75, "miss_solo",
                              1),
}


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([stream, seed])


def _policy(eps1: float, eps2: float) -> dict[str, object]:
    return {**DIGG_TRAJECTORY, "eps1": float(eps1), "eps2": float(eps2)}


def _halton(n: int, base: int) -> np.ndarray:
    """The first ``n`` points of the van der Corput sequence in ``base``."""
    out = np.zeros(n)
    index = np.arange(1, n + 1)
    scale = 1.0
    while np.any(index > 0):
        scale /= base
        out += scale * (index % base)
        index //= base
    return out


def spread_pairs(seed: int, stream: int, n: int,
                 first: tuple[float, float], second: tuple[float, float],
                 ) -> tuple[np.ndarray, np.ndarray]:
    """``n`` distinct pairs covering the box evenly, shifted by the seed.

    A Halton sequence under a seeded Cranley-Patterson rotation: every
    prefix covers the box about as evenly as every other seed's, so
    which pairs a run gets changes with the seed while the mix of cheap
    and costly requests stays the same.
    """
    shift = _rng(seed, stream).random(2)
    u = (_halton(n, 2) + shift[0]) % 1.0
    v = (_halton(n, 3) + shift[1]) % 1.0
    return (first[0] + u * (first[1] - first[0]),
            second[0] + v * (second[1] - second[0]))


def hot_pool(seed: int) -> list[dict[str, object]]:
    """The 128 distinct Digg trajectory specs the replay draws from."""
    eps1, eps2 = spread_pairs(seed, _POOL, HOT_POOL, EPS1_RANGE, EPS2_RANGE)
    return [_policy(a, b) for a, b in zip(eps1, eps2)]


def zipf_order(seed: int, n: int) -> np.ndarray:
    """``n`` pool indices drawn with Zipf popularity over a seeded ranking."""
    rng = _rng(seed, _ORDER)
    weights = 1.0 / np.arange(1, HOT_POOL + 1) ** ZIPF_EXPONENT
    ranking = rng.permutation(HOT_POOL)
    return ranking[rng.choice(HOT_POOL, size=n, p=weights / weights.sum())]


def control_specs(seed: int) -> list[dict[str, object]]:
    """Distinct Pontryagin/FBSM requests on the Fig. 4 network."""
    c1, c2 = spread_pairs(seed, _CONTROL, CONTROL_POOL, C1_RANGE, C2_RANGE)
    return [{**FIG4_CONTROL,
             "control": {"c1": float(a), "c2": float(b),
                         "n_grid": CONTROL_GRID}}
            for a, b in zip(c1, c2)]


def arrival_schedule(seed: int, rate: float, seconds: float) -> list[float]:
    """Poisson due times (seconds from phase start) within ``seconds``.

    The count is fixed at ``rate * seconds``: given its count, a Poisson
    process places its arrivals as sorted independent uniform times.
    Fixing it keeps every run's sample count the same, while the bursts
    that queue requests still vary with the seed.
    """
    count = round(rate * seconds)
    if count <= 0:
        return []
    times = np.sort(_rng(seed, _ARRIVALS).uniform(0.0, seconds, count))
    return [float(t) for t in times]


def probe_spec(name: str) -> dict[str, object]:
    """A trajectory spec on the workload's network, outside its inputs.

    Answering it makes the daemon synthesize and calibrate the network,
    which is part of set-up, not of any timed request.
    """
    if name == "control_plans":
        return {key: value for key, value in FIG4_CONTROL.items()}
    return _policy(0.2, 0.05)


@dataclass(frozen=True)
class Inputs:
    """What the generator sends: warm-up specs, then one timed sequence.

    The open-loop phase sends ``request(i)`` at ``schedule[i]``; the
    closed-loop phase continues the same sequence from where it stopped.
    """

    warm: Sequence[dict[str, object]]
    schedule: Sequence[float]
    request: Callable[[int], dict[str, object]]
    length: int


def inputs(workload: Workload, seed: int, seconds: float) -> Inputs:
    """The seeded inputs of one run of ``workload``."""
    schedule = arrival_schedule(seed, workload.offered_rps,
                                workload.open_share * seconds)
    if workload.name == "hot_replay":
        pool = hot_pool(seed)
        order = zipf_order(seed, SEQUENCE_LENGTH)
        return Inputs(pool, schedule, lambda i: pool[order[i]],
                      SEQUENCE_LENGTH)
    if workload.name == "fresh_digg":
        eps1, eps2 = spread_pairs(seed, _FRESH, SEQUENCE_LENGTH,
                                  EPS1_RANGE, EPS2_RANGE)
        return Inputs((), schedule, lambda i: _policy(eps1[i], eps2[i]),
                      SEQUENCE_LENGTH)
    if workload.name == "control_plans":
        specs = control_specs(seed)
        return Inputs((), schedule, specs.__getitem__, len(specs))
    raise KeyError(f"unknown workload {workload.name!r}; "
                   f"choose from {sorted(WORKLOADS)}")


def check_shape(workload: Workload,
                answers: Sequence[dict[str, object]]) -> list[str]:
    """Problems that mean the run did not exercise what it claims.

    ``answers`` are the timed 200 responses.  Each workload measures
    what its reason says only if the cache and batcher behaved as
    planned: every replay is a completed-cache hit; every fresh request
    misses and at least one integration stacks; control requests miss
    and never stack.
    """
    if not answers:
        return ["no timed request was answered"]
    statuses = [str(answer.get("cache")) for answer in answers]
    stacked = sum(1 for answer in answers if answer.get("stacked"))
    problems: list[str] = []
    if workload.expect == "hit":
        hits = sum(1 for status in statuses if status == "hit")
        if hits < len(statuses):
            problems.append(f"timed hit ratio {hits}/{len(statuses)} "
                            f"is below 1.0")
    else:
        not_missed = sum(1 for status in statuses if status != "miss")
        if not_missed:
            problems.append(f"{not_missed} timed answers came from the "
                            f"cache or a coalesced integration")
        if workload.expect == "miss_stacked" and not stacked:
            problems.append("no timed request was answered by a stacked "
                            "integration")
        if workload.expect == "miss_solo" and stacked:
            problems.append(f"{stacked} control answers came from a "
                            f"stacked integration")
    return problems
