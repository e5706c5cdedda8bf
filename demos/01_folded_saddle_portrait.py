"""Phase portrait of the folded saddle behind a prescribed-curvature solve.

The target tensor T = phi dt^2 + t^2 psi dTheta^2 turns into an implicit ODE
for the Ricci potential w(t).  Lifting it to (t, w, p)-space gives a smooth
vector field whose origin is a hyperbolic saddle sitting on the fold curve
{F = F_p = 0}; the physical solution is the branch leaving the origin
quadratically.  This script prints the linearization data and dumps the
separatrix plus both fold branches to CSV for plotting.

Run:  python3 demos/01_folded_saddle_portrait.py
"""

import csv

import numpy as np

from riccisym import RotSymTensor, fold_curve, parse, solve_branch, surface_eval

# the closed-form family: exact potential w = 2 t^2
T = RotSymTensor(n=3, phi=parse("8"), psi=parse("8 - 4*t^2"), t_max=0.5)

# classify the saddle, seed the branch and integrate it
rep, curve = solve_branch(T, step=1e-3)
print("linearization at the origin")
print("  DX(0) =")
for row in rep.DX0:
    print("   ", np.array2string(row, precision=6))
print(f"  eigenvalues: {rep.lam1:.6g} (unstable), {rep.lam2:.6g} (stable)")
print(f"  branch curvature w2 = {rep.w2:.6g}  (exact potential here is w = 2 t^2)")
print(f"  branch eigenvalue -2 w2 = {rep.lam_seed:.6g}")
print()

print(f"integrated branch: {curve.t.size} samples, halt = {curve.halt_reason}")
print(f"max |F| along the curve: {curve.constraint_max:.3e}")
print(f"w(0.5) = {curve.w[-1]:.12f}   (exact 0.5)")
print()

rows = []
for t, w, p in zip(curve.t, curve.w, curve.p):
    rows.append(("separatrix", t, w, p, surface_eval(T, t, w, p)[0]))
for t in np.linspace(0.0, T.t_max, 201):
    branches = fold_curve(T, t)
    if branches.size == 2:
        rows.append(("fold_lower", t, branches[0], 0.0, surface_eval(T, t, branches[0], 0.0)[0]))
        rows.append(("fold_upper", t, branches[1], 0.0, surface_eval(T, t, branches[1], 0.0)[0]))

with open("portrait_gold.csv", "w", newline="\n") as fh:
    writer = csv.writer(fh)
    writer.writerow(("branch", "t", "w", "p", "F"))
    writer.writerows(rows)
print("wrote portrait_gold.csv (separatrix + fold branches, columns branch,t,w,p,F)")
print("the separatrix (w = 2 t^2) runs below the lower fold branch (w = 4 t^2 + ...),")
print("touching it quadratically at the origin.")
