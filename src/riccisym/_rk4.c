/* The uniform RK4 steps of integrate_separatrix (potential.py), compiled.

   rk4_run mirrors a whole step of potential.py's rk4, the projection of p
   onto F = 0 included (_project_p's accept test, then at most 20
   Babylonian updates), statement for statement and in the same order of
   operations, so that a step it takes has the bits rk4's would; it must
   be built without fused multiply-adds (-ffp-contract=off) and without
   -ffast-math.  grid holds the addresses of a block's abscissae P, of
   their A, B, C and D _coeffs values, and of phi and psi there.  From row
   i (t = P[i]) it steps towards row stop and returns the row it stopped
   at: stop, or the start of the first step that the general path halves,
   halts on or raises on, which it hands back untaken: a stage meets the
   fold test or has F_p == 0, Q is not positive, the Newton iteration does
   not converge (a NaN residual never does), p changes sign or the
   residual is infinite.  It writes each step's t, w, p, phi and psi to
   the curve at out[0] to out[4] and after.  s holds (t, w, p, drift,
   newton_projections, counted as rk4 counts it), read on entry and
   written on return, then n - 1, fold_tol, PROJECTION_TOL and the float64
   epsilon. */
#include <math.h>

#define STAGE(k, j, W, PP)                                                   \
    do {                                                                     \
        double ww_ = W * W - 2.0 * W, F_p_ = -2.0 * PP;                      \
        if ((-fold_tol < F_p_ && F_p_ < fold_tol) || F_p_ == 0.0)            \
            goto done;                                                       \
        k = -((c[j] * ww_ + d[j]) / n1 + PP * (a[j] * (2.0 * W - 2.0) / n1)) \
            / F_p_;                                                          \
    } while (0)

long rk4_run(const double *const *grid, double *const *out, long i, long stop, double *s)
{
    const double *P = grid[0], *a = grid[1], *b = grid[2], *c = grid[3], *d = grid[4];
    const double *phi = grid[5], *psi = grid[6];
    double *ts = out[0], *ws = out[1], *ps = out[2], *phis = out[3], *psis = out[4];
    double t = s[0], w = s[1], p = s[2], drift = s[3], newtons = s[4];
    const double n1 = s[5], fold_tol = s[6], tol = s[7], eps = s[8];
    while (i < stop) {
        double h = P[i + 2] - t, hh = h / 2, k1, k2, k3, k4;
        STAGE(k1, i, w, p);
        double w2 = w + hh * p, p2 = p + hh * k1;
        STAGE(k2, i + 1, w2, p2);
        double w3 = w + hh * p2, p3 = p + hh * k2;
        STAGE(k3, i + 1, w3, p3);
        double w4 = w + h * p3, p4 = p + h * k3;
        STAGE(k4, i + 2, w4, p4);
        double h6 = h / 6;
        double w_try = w + h6 * (p + 2.0 * p2 + 2.0 * p3 + p4);
        double p_try = p + h6 * (k1 + 2.0 * k2 + 2.0 * k3 + k4);
        double Q = (a[i + 2] * (w_try * w_try - 2.0 * w_try) + b[i + 2]) / n1;
        if (!(Q > 0.0))
            break;
        /* _project_p: its accept test, then at most 20 Newton updates */
        double pp = p_try * p_try, resid = fabs(Q - pp), rel = 8.0 * eps * (fabs(Q) + pp + 1e-300);
        int k = 0;
        for (; k < 20 && !(resid <= tol || resid <= rel) && p_try != 0.0; k++) {
            p_try = p_try + (Q - p_try * p_try) / (2.0 * p_try);
            resid = fabs(Q - p_try * p_try);
        }
        if (k == 20 || !(resid <= tol || resid <= rel))
            break;
        newtons += k > 0; /* counted as rk4 counts it: also if handed back below */
        if (!(p_try * p > 0.0))
            break;
        if (resid > drift) {
            if (resid == INFINITY)
                break;
            drift = resid;
        }
        t += h;
        w = w_try;
        p = p_try;
        i += 2;
        *ts++ = t;
        *ws++ = w;
        *ps++ = p;
        *phis++ = phi[i];
        *psis++ = psi[i];
    }
done:
    s[0] = t;
    s[1] = w;
    s[2] = p;
    s[3] = drift;
    s[4] = newtons;
    return i;
}
