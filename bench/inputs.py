"""Seeded inputs of the four workloads.

The benchmark generates every input from ``--seed`` before any child
process starts; the program only ever sees the generated JSON documents.
This module needs numpy but not the package under test.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("table1_rk4", "large_market", "verify_battery", "solve_sweep")

TABLE1 = "table1.json"

# Ranges of the verify battery's algebraic checks (verification.WIDE_RANGES),
# with N up to 64, and of its simulation checks (SIM_RANGES) for N = 1000.
WIDE = dict(n_max=64, q=(0.1, 20.0), c0=(-100.0, 0.0), a=(0.0, 50.0))
SIM = dict(q=(0.5, 4.0), c0=(-30.0, 0.0), a=(0.0, 20.0))
CAP_RANGE = (-10.0, 30.0)


@dataclass(frozen=True)
class Sizes:
    large_n: int
    large_t_end: float
    sweep_markets: int
    sweep_caps: int
    verify_instances: int


FULL = Sizes(large_n=1000, large_t_end=0.5, sweep_markets=1024, sweep_caps=64,
             verify_instances=200)
# Self-check sizes: every code path of the full run, in a few seconds.
TINY = Sizes(large_n=20, large_t_end=0.2, sweep_markets=64, sweep_caps=8,
             verify_instances=5)


def ce_price(q, c0, a) -> float:
    """Market-clearing price of the uncapped market, from its definition."""
    return float(-((c0 / q).sum() + a.sum()) / (1.0 / q).sum())


def _config_text(q, c0, a, cap, sim=None, seed=0) -> str:
    doc = {
        "agents": [{"q": float(x), "c0": float(y), "a": float(z)} for x, y, z in zip(q, c0, a)],
        "lambda_max": float(cap),
        "seed": int(seed),
    }
    if sim is not None:
        doc["sim"] = sim
    return json.dumps(doc)


def large_market(seed: int, sizes: Sizes) -> str:
    """One N-agent market with the cap below its CE price (controller active)."""
    rng = np.random.default_rng([seed, 1])
    n = sizes.large_n
    q = rng.uniform(*SIM["q"], n)
    c0 = rng.uniform(*SIM["c0"], n)
    a = rng.uniform(*SIM["a"], n)
    cap = ce_price(q, c0, a) - rng.uniform(1.0, 5.0)
    sim = {"h": 0.02, "t_end": sizes.large_t_end, "method": "rk4", "record_stride": 1,
           "init": "zero"}
    return _config_text(q, c0, a, cap, sim, seed)


def solve_sweep(seed: int, sizes: Sizes) -> list[dict]:
    """Random markets, each with its own cap and an ascending list of sweep caps.

    N runs through 1..64 equally often in a seeded order, so the total work
    of a pass barely depends on the seed while every market is random.
    """
    rng = np.random.default_rng([seed, 2])
    n_max = WIDE["n_max"]
    sizes_n = np.resize(np.arange(1, n_max + 1), sizes.sweep_markets)
    rng.shuffle(sizes_n)
    markets = []
    for n in sizes_n:
        q = rng.uniform(*WIDE["q"], n)
        c0 = rng.uniform(*WIDE["c0"], n)
        a = rng.uniform(*WIDE["a"], n)
        cap = rng.uniform(*CAP_RANGE)
        caps = np.sort(rng.uniform(*CAP_RANGE, sizes.sweep_caps))
        markets.append({"config": _config_text(q, c0, a, cap), "caps": caps.tolist()})
    return markets
