"""Deterministic random-stream derivation.

Every stochastic quantity in the package draws from a Generator derived from
``(master_seed, *integer_key)`` via :class:`numpy.random.SeedSequence`, so
results are reproducible and independent of evaluation order or thread
scheduling.  The tag constants below keep unrelated consumers in disjoint
stream families.
"""

from __future__ import annotations

import numpy as np

# domain-separation tags (arbitrary distinct 32-bit constants)
NODE_TAG = 0x6E6F6465   # per-grid-node contour evaluations
THETA_TAG = 0x74686574  # per-theta pointwise contour evaluations
# the one reference sample of a lookup contour (bootstrap resamples,
# Dirichlet draws), drawn once per contour on key (REF_TAG,)
REF_TAG = 0x72656673
# stochastic-approximation iteration t: key (t,) draws the family's points;
# (t, 0) seeds one batch evaluation of all of them.  The credal-mass
# criterion's decision loop reads (t, 0) chunk by chunk of datasets, for the
# points still undecided, so its streams differ by design from a full-m
# batch evaluation (decision risk: README, "Determinism")
SA_TAG = 0x73617069
CAL_TAG = 0x63616C69    # calibration replications
CLI_TAG = 0x636C6970    # command-line front-end streams


def derive_rng(master_seed: int, *key: int) -> np.random.Generator:
    """Generator seeded by the master seed plus an integer key path."""
    entropy = (int(master_seed),) + tuple(int(k) for k in key)
    return np.random.default_rng(np.random.SeedSequence(entropy))


def theta_key(theta) -> tuple[int, ...]:
    """Stable integer key encoding a parameter point's float64 bit patterns."""
    arr = np.ascontiguousarray(np.asarray(theta, dtype=np.float64))
    return tuple(int(v) for v in arr.view(np.uint64).ravel())
