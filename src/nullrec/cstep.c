/* The Euler drift step of nullrec, a block at a time, with numpy's bits.
 *
 * Each step does the operations of the guarded numpy step
 * (simulate._DriftStep._numpy over the basis psis), one lane at a time and in
 * the same order, so with -ffp-contract=off and a libm whose sin and cos are
 * numpy's it gives the same bits:
 *
 *   f1     d = 1 + x*x, then x / d
 *   sinc   y = pi * (x / pi), DBL_EPSILON where y is 0, then sin(y) / y
 *   f1sin  f1 * sin(k*x);  f1cos  f1 * cos(k*x)
 *
 * then the drift sum of model._drift_sum, c_0*psi_0, + c_1*psi_1, ..., times
 * dt, plus x, and last the scaled noise z*sigma*sqrt(dt) plus that.
 *
 * Lanes advance GROUP at a time, step by step, so that the CPU overlaps their
 * sin and division chains.  Steps run in tiles: before a tile the noise it
 * will overwrite is saved, and after it the floating-point flags and the
 * states are tested.  A tile with a flag or a non-finite state gets its noise
 * back and ends the call, so the caller can run it again on the numpy path,
 * where numpy shows its warnings.
 */
#include <fenv.h>
#include <float.h>
#include <math.h>
#include <stdint.h>
#include <string.h>

enum { F1 = 0, SINC = 1, F1_SIN = 2, F1_COS = 3 };

#define GROUP 8
#define FLAGS (FE_DIVBYZERO | FE_OVERFLOW | FE_UNDERFLOW | FE_INVALID)

static const double PI = 3.141592653589793;

struct block {
    int64_t lanes, row;     /* lanes, and the row stride of blk */
    double *blk;            /* blk[l*row + n]: the state before step n; at n + 1 its noise */
    double sig_sqdt, dt;
    int64_t nterms;
    const int32_t *kind;    /* per drift term, in slot order */
    const double *freq;     /* k of f1sin and f1cos */
    const double *coef;
    const int64_t *keep;    /* per term, its index in kept, or -1 */
    double *kept;           /* kept[keep*kept_term + l*kept_row + n]: psi before step n */
    int64_t kept_term, kept_row;
    int need_f1;
};

/* steps [lo, hi) of lanes [l0, l0 + g), g <= GROUP */
static void group_steps(const struct block *a, int64_t l0, int64_t g, int64_t lo,
                        int64_t hi)
{
    double x[GROUP], f1[GROUP], v[GROUP], acc[GROUP];
    double *rows[GROUP];
    for (int64_t j = 0; j < g; j++) {
        rows[j] = a->blk + (l0 + j) * a->row;
        x[j] = rows[j][lo];
    }
    for (int64_t n = lo; n < hi; n++) {
        if (a->need_f1)
            for (int64_t j = 0; j < g; j++) {
                double d = 1.0 + x[j] * x[j];
                f1[j] = x[j] / d;
            }
        for (int64_t t = 0; t < a->nterms; t++) {
            switch (a->kind[t]) {
            case F1:
                for (int64_t j = 0; j < g; j++)
                    v[j] = f1[j];
                break;
            case SINC:
                for (int64_t j = 0; j < g; j++) {
                    double y = PI * (x[j] / PI);
                    if (y == 0.0)
                        y = DBL_EPSILON;
                    v[j] = sin(y) / y;
                }
                break;
            case F1_SIN:
                for (int64_t j = 0; j < g; j++)
                    v[j] = f1[j] * sin(a->freq[t] * x[j]);
                break;
            default: /* F1_COS */
                for (int64_t j = 0; j < g; j++)
                    v[j] = f1[j] * cos(a->freq[t] * x[j]);
                break;
            }
            if (a->keep[t] >= 0) {
                double *k = a->kept + a->keep[t] * a->kept_term + l0 * a->kept_row + n;
                for (int64_t j = 0; j < g; j++)
                    k[j * a->kept_row] = v[j];
            }
            double c = a->coef[t];
            if (t == 0)
                for (int64_t j = 0; j < g; j++)
                    acc[j] = c * v[j];
            else
                for (int64_t j = 0; j < g; j++)
                    acc[j] = acc[j] + c * v[j];
        }
        for (int64_t j = 0; j < g; j++) {
            double next = rows[j][n + 1] * a->sig_sqdt + (acc[j] * a->dt + x[j]);
            rows[j][n + 1] = next;
            x[j] = next;
        }
    }
}

/* Run steps [0, steps) of the block; save holds lanes * tile doubles.
 * Returns steps when every tile was clean, else the first step of the first
 * tile that was not: that tile and the ones after it still hold their noise,
 * and the states before it are done. */
int64_t nullrec_euler_block(int64_t lanes, int64_t steps, double *blk, int64_t row,
                            double sig_sqdt, double dt, int64_t nterms,
                            const int32_t *kind, const double *freq, const double *coef,
                            const int64_t *keep, double *kept, int64_t kept_term,
                            int64_t kept_row, double *save, int64_t tile)
{
    struct block a = {lanes, row, blk, sig_sqdt, dt, nterms, kind, freq, coef, keep,
                      kept, kept_term, kept_row, 0};
    for (int64_t t = 0; t < nterms; t++)
        a.need_f1 |= kind[t] != SINC;
    for (int64_t lo = 0; lo < steps; lo += tile) {
        int64_t hi = steps - lo < tile ? steps : lo + tile;
        size_t bytes = (size_t)(hi - lo) * sizeof(double);
        for (int64_t l = 0; l < lanes; l++)
            memcpy(save + l * tile, blk + l * row + lo + 1, bytes);
        feclearexcept(FE_ALL_EXCEPT);
        for (int64_t l0 = 0; l0 < lanes; l0 += GROUP)
            group_steps(&a, l0, lanes - l0 < GROUP ? lanes - l0 : GROUP, lo, hi);
        int bad = fetestexcept(FLAGS) != 0;
        for (int64_t l = 0; l < lanes && !bad; l++)
            bad = !isfinite(blk[l * row + hi]);
        if (bad) {
            for (int64_t l = 0; l < lanes; l++)
                memcpy(blk + l * row + lo + 1, save + l * tile, bytes);
            return lo;
        }
    }
    return steps;
}
