"""The four starter families, and what happens when a starter is bad.

The Neumann construction converges from any admissible starting guess of
the short-time kernel.  We build on a triangle with unequal weights using
each family, check them all land on the same answer, and then feed the
builder a deliberately truncated starter to watch validation reject it.
"""

import numpy as np

from heatkern import (
    build_space,
    dirac_parametrix,
    spectral_parametrix,
    profile_parametrix,
    rkhs_parametrix,
    validate,
    build_heat_kernel,
    eigh_weighted,
    generator,
    spectral_heat,
)
from heatkern.errors import InvalidParametrix

points = ["x", "y", "z"]
edges = [("x", "y", 1.0), ("y", "z", 2.0), ("x", "z", 0.5)]
space, cond, _ = build_space(points, None, edges)

# independent reference: diagonalize the generator directly
A, mu = generator(space, cond, "combinatorial")
spec = eigh_weighted(A, mu)
K_ref = spectral_heat(spec, 1.0)

# the rkhs family wants a reproducing kernel; a diagonally dominant Gram
# matrix adapted to the graph works fine
gram = np.eye(3) + 0.3 * cond.matrix

starters = [
    ("dirac", dirac_parametrix(space, cond)),
    ("spectral", spectral_parametrix(space, cond, n_modes=3)),
    ("profile", profile_parametrix(space, cond, profile="epanechnikov")),
    ("rkhs", rkhs_parametrix(space, gram, cond)),
]

print("family     valid  terms  certificate     dev from oracle at t=1")
print("-" * 64)
for name, par in starters:
    report = validate(par)
    # a profile starter is not analytic at t = 0, so one default grid
    # resolves it more coarsely; the certificate shows what the built
    # kernel misses, so ask each family for what it can deliver
    tol = 1e-5 if name == "profile" else 1e-9
    res = build_heat_kernel(par, T=2.0, tol=tol)
    # the Hilbert-paired family converges to exp(-tA) G, the semigroup
    # applied to the reproducing kernel, not to the density itself
    want = K_ref @ (mu[:, None] * gram) if name == "rkhs" else K_ref
    dev = np.max(np.abs(res.K.at(1.0) - want))
    print(f"{name:9s}  {report.passed!s:5s}  {res.terms_used:5d}  "
          f"{res.truncation_bound:11.3e}   {dev:.3e}")

# a spectral starter cut down to one mode misses the identity at t = 0;
# validation catches this before any series is summed
broken = spectral_parametrix(space, cond, n_modes=1)
report = validate(broken)
print(f"\ntruncated starter: passed={report.passed}, "
      f"dirac residual {report.dirac_residual:.3e}")
try:
    build_heat_kernel(broken, T=2.0, tol=1e-9)
except InvalidParametrix as e:
    print(f"builder refused it: {e}")

# a finished build is itself an admissible starter for nearby data: nudge
# every weight and rebuild on the perturbed graph without starting over
from heatkern import cross_parametrix_build, Conductance

rng = np.random.default_rng(3)
Wp = cond.matrix * rng.uniform(0.8, 1.25, cond.matrix.shape)
Wp = (Wp + Wp.T) / 2.0
base = build_heat_kernel(dirac_parametrix(space, cond), T=2.0, tol=1e-9)
moved = cross_parametrix_build(base, conductance=Conductance(Wp), tol=1e-8)
Ap, mup = generator(space, moved.conductance, "combinatorial")
dev = np.max(np.abs(moved.K.at(1.0) - spectral_heat(eigh_weighted(Ap, mup), 1.0)))
print(f"\ntransplanted build on perturbed weights: {moved.terms_used} terms, "
      f"certificate {moved.truncation_bound:.3e}, oracle dev {dev:.3e}")
