/* The uniform RK4 steps of integrate_separatrix (potential.py), compiled.

   rk4_run mirrors a step of potential.py's rk4 statement for statement, in
   the same order of operations, so that a step it takes has the bits rk4's
   would; it must be built without fused multiply-adds (-ffp-contract=off)
   and without -ffast-math.  grid holds the addresses of a block's
   abscissae P and of their A, B, C and D _coeffs values.  From row i
   (t = P[i]) it steps towards row stop and returns the row it stopped at:
   stop, or the start of the first step it leaves to rk4, one where a stage
   fails the fold test or has F_p == 0, Q is not positive, the trial needs
   a Newton iteration, p changes sign or the residual is infinite.  It
   writes each step's t, w and p to the curve at out[0], out[1], out[2]
   and after.  s holds (t, w, p, drift), read on entry and written on
   return, then n - 1, fold_tol, PROJECTION_TOL and the float64 epsilon. */
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
    double *ts = out[0], *ws = out[1], *ps = out[2];
    double t = s[0], w = s[1], p = s[2], drift = s[3];
    const double n1 = s[4], fold_tol = s[5], tol = s[6], eps = s[7];
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
        double pp = p_try * p_try, resid = fabs(Q - pp);
        if (!(resid <= tol || resid <= 8.0 * eps * (fabs(Q) + pp + 1e-300)))
            break;
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
    }
done:
    s[0] = t;
    s[1] = w;
    s[2] = p;
    s[3] = drift;
    return i;
}
