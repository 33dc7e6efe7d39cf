"""Everything downstream of the kernel: Green, resolvent, resistance,
entropy, and the subordinated Poisson kernel.

A path on three points is small enough to reason about by hand and rich
enough that none of the quantities below are trivial.
"""

import math

import numpy as np

from heatkern import (
    build_space,
    dirac_parametrix,
    build_heat_kernel,
    green_regularized,
    resolvent,
    resistance,
    resistance_by_current,
    entropy,
    poisson_kernel,
    eigh_weighted,
    generator,
)

space, cond, _ = build_space(
    ["a", "b", "c"], None, [("a", "b", 1.0), ("b", "c", 1.0)])
A, mu = generator(space, cond, "combinatorial")
spec = eigh_weighted(A, mu)

# ---- regularized Green's function --------------------------------------
# the zero mode is projected out, then the heat kernel is integrated over
# all time; a spectral sum and the semigroup doubling must agree
g = green_regularized(space, cond, spec)
print("G* (ground mode removed):")
print(np.array_str(g.G_star, precision=6, suppress_small=True))
print(f"route agreement {g.agreement:.3e}  "
      f"(certified <= {g.budget:.3e})")

# G* inverts the generator on mean-zero functions
f = np.array([1.0, 0.0, -1.0])
u = g.G_star @ (f * mu)
print(f"A (G* f) - f  ->  {np.max(np.abs(A @ u - f)):.3e}  (mean-zero f)")

# ---- resolvent ---------------------------------------------------------
s = 0.5
R = resolvent(spec, s)
lhs = (A + s * np.eye(3)) @ R
print(f"\nresolvent at s={s}: (A + s)R recovers the identity kernel, "
      f"defect {np.max(np.abs(lhs - np.diag(1.0 / mu))):.3e}")

# ---- resistance metric -------------------------------------------------
# on a path the effective resistances just add up
R_eff = resistance(space, cond, spec)
print(f"\nR(a,b) = {R_eff[0, 1]:.6f}   R(b,c) = {R_eff[1, 2]:.6f}   "
      f"R(a,c) = {R_eff[0, 2]:.6f}")
r_cur = resistance_by_current(space, cond, "a", "c")
print(f"current-flow cross-check on (a,c): {abs(R_eff[0, 2] - r_cur):.3e}")

# ---- entropy along the flow --------------------------------------------
res = build_heat_kernel(dirac_parametrix(space, cond), T=5.0, tol=1e-10)
print("\n   t      E(t)        (decreasing toward -log of total measure)")
prev = None
for t in (0.05, 0.2, 0.5, 1.0, 2.0, 5.0):
    e = entropy(res, "a", t)
    marker = "" if prev is None or e <= prev + 1e-12 else "  <- not monotone?"
    print(f"  {t:4.2f}  {e:10.6f}{marker}")
    prev = e
print(f"  limit {-math.log(3.0):10.6f}  (uniform over 3 unit masses)")

# ---- Poisson kernel by subordination -----------------------------------
# integrate the heat kernel against the stable-1/2 density and compare to
# the direct spectral formula exp(-w sqrt(A))
p = poisson_kernel(spec, K=res, w=1.0)
print(f"\nPoisson at w=1: route deviation {p.deviation:.3e} from {p.nodes} "
      f"kernel reads (certified budget {p.budget:.3e})")
print(np.array_str(p.subordinated, precision=6, suppress_small=True))
