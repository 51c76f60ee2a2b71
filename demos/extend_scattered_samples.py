"""
Extending scattered samples without overshoot
=============================================

Twelve readings on a random street map, a known bound K on how fast
the field can vary, and the job of filling in the remaining crossings.
The two extremal extensions bracket every admissible completion, and
averaging their clamps lands inside a prescribed range with a margin
that grows with the distance to the data.  The certificates at the end
are the ones `lipkit extend` writes for the same completion.
"""

import numpy as np

from lipkit import DistanceTo, Interval, MetricSpace, Subset, extend_to_interval
from lipkit.verdicts import certify_extend

rng = np.random.default_rng(3)

# forty crossings with Euclidean distances; readings live on twelve
space = MetricSpace.from_points(rng.uniform(0.0, 10.0, size=(40, 2)))
A = Subset(space, rng.choice(40, size=12, replace=False))

# the hidden truth is affine, so any K at least its slope is honest
truth = 1.0 + 0.3 * space.coords[:, 0] + 0.2 * space.coords[:, 1]
K = 0.5
phi = truth[A.members]

# a target range [0, 6] holds the data, so the clamped average of the
# two envelopes stays inside it
target = Interval.closed(0.0, 6.0)
g = extend_to_interval(A, phi, K, target)
lower, upper = g.envelopes.lower.values(), g.envelopes.upper.values()

print("bracketing the unknown field")
print(f"{'id':>4} {'d(p,A)':>8} {'lower':>8} {'truth':>8} {'upper':>8}")
dA = DistanceTo(space, A.members).values()
for p in np.argsort(dA)[::-8]:
    print(f"{p:>4} {dA[p]:>8.3f} {lower[p]:>8.3f} {truth[p]:>8.3f} "
          f"{upper[p]:>8.3f}")

# the lower envelope, the upper envelope and the completion keep the
# slope bound; the completion pins the data exactly; the envelopes
# mirror each other with no rounding gap; three seeded random
# completions thread the bracket; the completion stays in [0, 6] with
# min(K d(p,A), 6)/2 of clearance off the data
print()
print("what lipkit extend certifies about this completion")
for cert in certify_extend(A, phi, K, target, g, seed=0):
    print(cert.summary_line())
