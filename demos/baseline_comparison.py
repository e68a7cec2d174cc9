"""
Why the coefficient paths need to move both ways
================================================

Three restricted competitors for the time-varying additive fit:

* constant additive -- one level per feature, no time variation;
* monotone paths    -- levels may only ratchet upward over time;
* proportional      -- exp(x'w) times a constant base rate, so every
  feature scales the same temporal profile.

The simulated campaign switches effects on at different times and
switches one of them off again, so each restriction is wrong in its
own way.  All models are fit on the same training split and compared
by held-out mean negative log-likelihood.
"""

import numpy as np

from tvhazard import (
    PenaltyConfig,
    SolverConfig,
    build_knot_set,
    default_scenario,
    fit,
    fit_constant_additive,
    fit_proportional,
    generate,
    nll_dataset,
    proportional_nll,
)

# ------------------------------------------------------------------
# Same simulation and 70/30 split as the sweep demo.
spec = default_scenario(seed=0)
_, observations = generate(spec)

rng = np.random.default_rng(np.random.SeedSequence((spec.seed, 3)))
perm = rng.permutation(len(observations))
n_train = int(0.7 * len(observations))
train = [observations[i] for i in perm[:n_train]]
val = [observations[i] for i in perm[n_train:]]
knots = build_knot_set(train, horizon=spec.horizon)

# ------------------------------------------------------------------
# The full model at the validation-chosen gamma, and the same fit with
# the monotone restriction added.
config = SolverConfig(penalty=PenaltyConfig(gamma=1.0),
                      max_iterations=4000, tolerance=1e-8)
tv_fit = fit(train, config, knots=knots)

mono_config = SolverConfig(penalty=PenaltyConfig(gamma=1.0, monotone=True),
                           max_iterations=4000, tolerance=1e-8)
mono_fit = fit(train, mono_config, knots=knots)

# ------------------------------------------------------------------
# Baselines.  The constant additive model is the gamma -> infinity
# limit; the proportional model is the classic multiplicative one.
const_model = fit_constant_additive(train).to_hazard_model(spec.horizon)
prop_model = fit_proportional(train)

scores = [
    ("time-varying additive", nll_dataset(tv_fit.model, val) / len(val)),
    ("monotone paths", nll_dataset(mono_fit.model, val) / len(val)),
    ("constant additive", nll_dataset(const_model, val) / len(val)),
    ("proportional", proportional_nll(prop_model, val) / len(val)),
]

print(f"held-out mean nll on {len(val)} validation sites")
for name, score in sorted(scores, key=lambda s: s[1]):
    print(f"  {name:<22} {score:.4f}")
print()

# ------------------------------------------------------------------
# Where the restrictions bite.  Feature 19's effect ends at t=4.2 in
# the truth; the free fit can bring it back to zero, the monotone fit
# is stuck at whatever level it reached.
probe = 19
# Row j + 1 of a model's W is feature j, one level per knot interval.
free_path = tv_fit.model.W[probe + 1]
mono_path = mono_fit.model.W[probe + 1]
for t in (2.5, 6.5):
    k = knots.interval_index(t)
    print(f"feature {probe} at t={t}: free fit {free_path[k]:.2f}, "
          f"monotone fit {mono_path[k]:.2f}")
print("(the true effect is 0.8 until t=4.2 and zero afterwards)")
print()

# The constant fit has to average the on and off phases; its single
# level for feature 19 lands in between.
level = const_model.W[probe + 1, 0]
print(f"constant additive assigns feature {probe} the single level "
      f"{level:.2f} for the whole window")
