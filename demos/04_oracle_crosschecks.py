"""Cross-checking every specialized formula against the numeric oracle.

The tensorlab oracle knows nothing about rotational symmetry: it computes
Christoffel symbols and the Ricci tensor of an arbitrary metric field by
central differences (the Christoffel form of the curvature formula).  This
script uses it to adjudicate:

  * the graph-hypersurface curvature formulas,
  * the forward map (alpha, beta) of a metric profile, including which
    reading of the profile-metric bracket the forward map actually matches,
  * rotation equivariance.

Run:  python3 demos/04_oracle_crosschecks.py
"""

import numpy as np

from riccisym import GraphEmbedding, MetricProfile, parse
from riccisym.hypersurface import cartesian_field, frame_diagonal
from riccisym.rotsym import forward_oracle_report
from riccisym.tensorlab import (
    frame_ratios,
    metric_at,
    ricci_numeric,
    scalar_curvature,
)

H = 2.5e-4  # differencing step for the oracle

print("== graph hypersurface vs numeric oracle (unit sphere, n = 3) ==")
sphere = GraphEmbedding(3, parse("sqrt(1 - t)"), 0.9)
mf = cartesian_field(sphere)
for r in (0.3, 0.5, 0.7):
    x = np.array([0.6 * r, 0.8 * r, 0.0])
    ric = ricci_numeric(mf, x, h=H)
    rad, tan = frame_ratios(ric, metric_at(mf, x), x)
    frad, ftan = frame_diagonal(sphere, r)
    print(
        f"r = {r}: oracle frame Ricci ({rad:.6f}, {tan:.6f}), "
        f"closed form ({frad:.6f}, {ftan:.6f})"
    )
print(f"oracle scalar curvature at |x| = 0.44: "
      f"{scalar_curvature(mf, [0.3, 0.25, 0.2], h=H):.6f} (exact 6)")
print()

print("== which metric bracket does the forward map describe? ==")
profile = MetricProfile.from_exprs(3, parse("-t^2"), parse("t"), 0.5)
rep = forward_oracle_report(profile, ts=[0.4, 0.6], h=H)
print("ratios of numeric Ricci to forward (alpha (r')^2, r^2 beta / t^2):")
print("  conformal reading e^{2f}[r'^2 dt^2 + r^2 dTheta^2]:")
for t, rr, tt in rep.conformal:
    print(f"    t = {t}: radial {rr:.6f}, tangential {tt:.6f}")
print("  bracket as printed 2e^f[r' dt^2 + r^2 dTheta^2]:")
for t, rr, tt in rep.verbatim:
    print(f"    t = {t}: radial {rr:.6f}, tangential {tt:.6f}")
print("the forward map is the Ricci tensor of the conformal reading.")
print()

print("== rotation equivariance of the oracle ==")
rng = np.random.default_rng(1)
q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
x = np.array([0.28, 0.21, 0.14])
ric_x = ricci_numeric(mf, x, h=H)
ric_qx = ricci_numeric(mf, q @ x, h=H)
print(f"max |Ric(Qx) - Q Ric(x) Q^T| = {np.max(np.abs(ric_qx - q @ ric_x @ q.T)):.2e}")
