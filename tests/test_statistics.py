"""The two modes are one law: Monte Carlo against the deterministic recursion.

Fixed chain.  Under the fixed Metropolis-Hastings chain every agent is placed by its own
draw and moves by its own draws through one matrix P, so the agents are
i.i.d. and the count in bin b after k steps is Binomial(n, p_b) with
p = P^k x_0, the deterministic run's density.  Over S seeds the seed-mean
Monte Carlo density then has mean p_b and variance p_b (1 - p_b) / (n S) in
each bin.  The per-bin z-scores on the bins with p_b > 0 have mean square
about chi-square with as many degrees of freedom as bins, over the bins,
and each |z| is about a standard normal's.

The seeds are fixed, so the test always passes or always fails.  Its
bands come from those laws, not from its own seeds.  At a fresh set of
seeds, with 200 bins at step 0 and 92 at each later step:
- mean z^2 outside [0.5, 1.75]: chi-square tails of 6e-10 at 200 bins and
  2.7e-5 at 92, so 8.2e-5 over the four steps;
- a |z| of 5 or more: a Bonferroni bound of 2.7e-4 over the 476 z-scores;
- so one false alarm in about 2800 fresh seed sets.
Over 300 fresh sets of 40 seeds (seeds 10 000 to 21 999), none failed:
mean z^2 read 0.57 to 1.63, the largest |z| 4.56.

Density feedback.  Under ``dsmc`` each column depends on the whole swarm's
density, so the agents are not independent; as n grows the empirical
density tends to the deterministic recursion (the mean-field limit), and
its gap shrinks about like n^-1/2.  The test takes D = max_k |TV_MC(k) -
TV_det(k)| over 60 steps of letter-E without its removal, averaged over 16
seeds at 5 000 agents and over 2 seeds at 500 000, and asks the ratio to be
below ``CUT`` = 0.25 for the hundredfold n: n^-1/2 gives 0.1, n^-1/4 0.32.
On seeds the test does not use (1000 to 1199 at 5 000 agents, 1000 to 1039
at 500 000), D read 0.0030 to 0.0228 and 0.00053 to 0.00238, and the ratio
of their means 0.109.  With D log-normal as fitted there, a fresh seed set
fails about once in 2000.  A move stream that gives every agent of a round
one draw keeps D near 0.7 at either n, a ratio near 1.
"""
from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import numpy as np

from swarmguide import iter_run, load_scenario, run_scenario

LETTER_E = Path(__file__).resolve().parent.parent / "scenarios" / "letter_e.txt"

SEEDS = range(40)
STEPS = (0, 10, 30, 60)
MEAN_SQUARE_BAND = (0.5, 1.75)
MAX_ABS_Z = 5.0

# (agents, seeds) of the two dsmc sizes, and the most the larger may keep of
# the smaller's mean deviation.
DSMC_SIZES = ((5_000, range(16)), (500_000, range(2)))
CUT = 0.25


def test_monte_carlo_mh_is_the_deterministic_density_in_law():
    # Letter-E without its removal, started from an initial map over the
    # left half, so a placement that ignored the map would show.
    init = tuple(tuple(1 + (r + c) % 3 if c < 10 else 0 for c in range(20)) for r in range(20))
    scenario = replace(load_scenario(LETTER_E), algorithm="mh", agents=2000, steps=60, events=(), init_weights=init)
    exact = run_scenario(replace(scenario, mode="deterministic"), snapshot_steps=STEPS)[1]
    runs = [run_scenario(replace(scenario, seed=seed), snapshot_steps=STEPS)[1] for seed in SEEDS]
    for k in STEPS:
        p = exact[k].density
        mean = np.mean([snapshots[k].density for snapshots in runs], axis=0)
        on = p > 0
        # A fixed chain never reaches a bin the recursion gives no mass.
        assert not mean[~on].any(), f"step {k}: agents where the deterministic density is 0"
        z = (mean[on] - p[on]) / np.sqrt(p[on] * (1.0 - p[on]) / (scenario.agents * len(SEEDS)))
        lo, hi = MEAN_SQUARE_BAND
        assert lo <= np.mean(z**2) <= hi, f"step {k}: mean z^2 {np.mean(z**2)} over {on.sum()} bins"
        assert np.abs(z).max() < MAX_ABS_Z, f"step {k}: max |z| {np.abs(z).max()}"


def test_monte_carlo_dsmc_tends_to_the_deterministic_run_like_root_n():
    scenario = replace(load_scenario(LETTER_E), steps=60, events=())
    exact = np.array([rec.total_variation for rec in iter_run(replace(scenario, mode="deterministic"))])

    def deviation(agents, seed):
        tv = [rec.total_variation for rec in iter_run(replace(scenario, agents=agents, seed=seed))]
        return np.abs(np.array(tv) - exact).max()

    small, large = (np.mean([deviation(n, seed) for seed in seeds]) for n, seeds in DSMC_SIZES)
    assert large < CUT * small, f"mean deviation {small} at 5e3 agents, {large} at 5e5: ratio {large / small}"
