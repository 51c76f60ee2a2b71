"""
Local rates for a field with no global slope bound
==================================================

1/t on a sampled piece of the open ray has no global Lipschitz
constant, but every sample owns a ball on which a finite rate works.
Those local rates are enough to rebuild a lot of global structure: a
dyadic slice decomposition into bounded Lipschitz members, a two-point
modulus controlling every pair at once, and an extension from a band
of the ray to all of it that stays positive.
"""

import numpy as np

from lipkit import (Coordinate, Interval, LocalWitness, Subset, Transported,
                    certify_local_witness, check_k_lipschitz, decompose,
                    generate_local_witness, local_extend, modulus_witness)
from lipkit.metric_space import MetricSpace

ts = np.geomspace(0.1, 4.0, 36)
space = MetricSpace.from_points(ts[:, None])
f = Transported("reciprocal", Coordinate(space))

# one (ball, rate) entry per sample; rates blow up toward the origin
witness = generate_local_witness(f)
print("local witness entries (every sample gets a ball and a rate)")
print(f"{'t':>8} {'delta':>8} {'K':>10}")
for p, delta, K in zip(witness.points[::12], witness.deltas[::12],
                       witness.constants[::12]):
    print(f"{ts[p]:>8.3f} {delta:>8.3f} {K:>10.2f}")
print(certify_local_witness(f, witness).summary_line())

# dyadic slices |f| < 2^j, each carrying a bounded Lipschitz member
dec = decompose(f, witness)
print(f"\ndecomposition into {len(dec.members)} members across slices "
      f"{sorted(set(dec.slice_exponents))}")
print(f"reconstruction residual: {dec.residual():.3e}")
bound_ok = all(
    float(np.abs(m.values()).max()) <= 2.0 ** j + 1e-9
    for m, j in zip(dec.members, dec.slice_exponents))
print(f"every member under its dyadic bound: {bound_ok}")

# a single modulus L(x, y) that dominates every pair of samples
mod = modulus_witness(f, witness)
v = f.values()
D = space.pairwise()
L = mod.matrix()
off = D > 0.0
worst = float((np.abs(v[:, None] - v[None, :])[off] / (L * D)[off]).max())
print(f"\ntwo-point modulus: worst ratio |f(x)-f(y)| / (L d) = {worst:.6f}")
print(f"its level function is {mod.envelope_constant:.2f}-Lipschitz: "
      f"{check_k_lipschitz(mod.level_field, mod.envelope_constant).passed}")

# data on the band [1, 2] extends to the whole ray without leaving (0, inf)
band = np.flatnonzero((ts >= 1.0) & (ts <= 2.0))
A = Subset(space, band)
on_band = np.isin(witness.points, band)
band_witness = LocalWitness(witness.points[on_band], witness.deltas[on_band],
                            witness.constants[on_band])
out = local_extend(A, v[band], band_witness,
                   Interval.at_least(0.0, open_end=True))
w = out.values()
print(f"\nband extension: agrees on the band to "
      f"{np.abs(w[band] - v[band]).max():.1e}, "
      f"stays positive: {bool((w > 0).all())}")
print(f"output witness certified: "
      f"{certify_local_witness(out, out.local_witness).passed}")
