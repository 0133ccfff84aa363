"""Seeded inputs for the three workloads.

Everything the program receives is made here from the benchmark's seed: the
same seed gives the same configs, profiles and games. ``sample`` and
``gsa_loop`` draw their units from a fixed pool of entries whose simulated
outputs are pinned in ``pins.json``; the seed picks where in the pool a run
starts. ``analyze`` builds a fresh synthetic game per unit and checks it
against invariants and an independent oracle instead of pins.
"""

from __future__ import annotations

import numpy as np

SIZES = ("full", "smoke")
POOL_SIZE = 12

# first-iteration profile (row, column strategy of the 16-strategy plan)
# whose payoff spread takes the value-of-information top-up to the cap of
# 500 replications on every pool entry; pool entries differ only in their
# master seed, so every unit does the same work
SAMPLE_PROFILE = (4, 11)

_FIRST_PLAN = {"g": 1, "factors": [
    {"name": "manufacturing", "levels": ["L", "H"]},
    {"name": "logistics", "levels": ["L", "H"]},
    {"name": "pricing", "levels": ["L", "H"]},
    {"name": "marketing", "levels": ["L", "H"]}]}
_SECOND_PLAN = {"g": 1, "factors": [
    {"name": "rm_inventory_cov", "levels": ["L", "H"]},
    {"name": "safety_stock_cov", "levels": ["L", "H"]},
    {"name": "rm_lead_time", "levels": ["L", "H"]},
    {"name": "inv_fulfillment_time", "levels": ["L", "H"]},
    {"name": "promotion_depth", "levels": ["L", "H"]},
    {"name": "advertising_intensity", "levels": ["L", "H"]}]}
_SMOKE_PLANS = [
    {"g": 1, "factors": [{"name": "pricing", "levels": ["L", "H"]},
                         {"name": "marketing", "levels": ["L", "H"]}]},
    {"g": 1, "factors": [{"name": "promotion_depth", "levels": ["L", "H"]},
                         {"name": "rm_lead_time", "levels": ["L", "H"]}]},
]
# a small model for the smoke size: fewer agents, days and samples
_SMOKE_MODEL = {"run_length_days": 12, "warmup_days": 4, "agents": 30}

GSA_JOBS = 2


def pool_index(seed: int, unit: int) -> int:
    return (seed + unit) % POOL_SIZE


def sample_entry(index: int) -> dict:
    return {"profile": SAMPLE_PROFILE, "master_seed": 7000 + index}


def gsa_entry(index: int) -> dict:
    return {"master_seed": 8000 + index}


def sample_config(size: str) -> dict:
    """Paper sampling policy: 100-day replications at 200 agents, 70 initial
    samples trimmed by 10 per tail, value-of-information top-up to 500."""
    config = {"schedule": [_FIRST_PLAN],
              "sampling": {"initial_n": 70, "trim_per_tail": 10, "cap": 500,
                           "batch": 10}}
    if size == "smoke":
        config.update(_SMOKE_MODEL)
        config["sampling"] = {"initial_n": 6, "trim_per_tail": 1, "cap": 10,
                              "batch": 2, "ecvi_floor": 0.0}
    return config


def analyze_config(size: str) -> dict:
    """The first plan and the default analysis settings (13-point tolerance
    grid, stability at epsilon 1500 with resampling over 2000 steps)."""
    config = {"schedule": [_FIRST_PLAN]}
    if size == "smoke":
        config.update(_SMOKE_MODEL)
        config["gsa"] = {"stability_steps": 20}
    return config


def gsa_config(size: str) -> dict:
    """Two two-level plans of 16 strategies (136 profiles each), two
    replications per profile with no top-up and no trim, 200 stability
    steps."""
    config = {"schedule": [_FIRST_PLAN, _SECOND_PLAN],
              "sampling": {"initial_n": 2, "trim_per_tail": 0, "cap": 2},
              "gsa": {"stability_steps": 200}}
    if size == "smoke":
        config.update(_SMOKE_MODEL)
        config["schedule"] = _SMOKE_PLANS
        config["gsa"] = {"stability_steps": 20}
    return config


CONFIGS = {"sample": sample_config, "analyze": analyze_config,
           "gsa_loop": gsa_config}


def synthetic_game(seed: int, unit: int, size: str, n: int = 16):
    """Sample sets of a symmetric n-strategy game with a few planted
    equilibria.

    Own-level and opponent-level main effects shape the mean payoffs, so
    factor screening has effects to find. Kept-sample counts follow what
    trimming by 10 per tail leaves after a 70-sample start and top-ups in
    steps of 10 to 500: about half the profiles keep 50 samples, the rest
    spread up to 480, and one profile always keeps 480, because the
    resampling bank of the stability analysis is padded to the largest count.

    Returns ``(samples, planted)``: canonical profile ``(a, b)`` with
    ``a <= b`` -> (row player's samples, column player's samples), and the
    strategies ``s`` whose profile ``(s, s)`` is a planted equilibrium.
    """
    rng = np.random.default_rng([seed, unit])
    levels = np.array([[(s >> (3 - c)) & 1 for c in range(4)]
                       for s in range(n)], dtype=float)
    own = rng.normal(0.0, 800.0, 4)
    opponent = rng.normal(0.0, 400.0, 4)
    u = (rng.uniform(2000.0, 8000.0) + levels @ own
         + (levels @ opponent)[None, :] + rng.normal(0.0, 600.0, (n, n)))
    planted = sorted(int(s) for s in rng.choice(n, size=int(rng.integers(2, 4)),
                                                replace=False))
    for s in planted:
        u[s, s] = u[:, s].max() + 1500.0

    profiles = [(a, b) for a in range(n) for b in range(a, n)]
    if size == "smoke":
        counts = rng.integers(3, 9, len(profiles))
    else:
        totals = np.where(rng.random(len(profiles)) < 0.5, 70,
                          10 * rng.integers(8, 51, len(profiles)))
        totals[rng.integers(len(profiles))] = 500
        counts = totals - 20
    samples = {}
    for (a, b), k in zip(profiles, counts):
        sd = rng.uniform(300.0, 1500.0)
        samples[(a, b)] = (rng.normal(u[a, b], sd, k), rng.normal(u[b, a], sd, k))
    return samples, planted
