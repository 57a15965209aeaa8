/* The compiled kernels of nullrec, with numpy's bits: the Euler drift step,
 * and (with NULLREC_NORMALS) each lane's Philox normals and the driftless
 * block.
 *
 * The drift step does the operations of the guarded numpy step
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

#ifdef NULLREC_NORMALS
/* Each lane's normals are those of numpy's Generator(Philox((seed, lane)))
 * .standard_normal, and its stream ends where numpy's would.  A stream is an
 * (11,) uint64 row: key[2], counter[4], buffer[4] and buffer_pos, numpy's
 * Philox state, whose counter is that of the block in the buffer.
 *
 * Philox4x64-10 (Salmon et al., SC11) makes the 4-word block of each counter;
 * numpy adds 1 to the counter before it makes a block.  Here a stream makes
 * BATCH blocks of consecutive counters at once, which are independent, and
 * keeps the block that holds its last word used when it is stored.
 *
 * The normals are numpy's ziggurat (Marsaglia & Tsang 2000) on each word r:
 * level idx = r & 0xff, the sign in bit 8 and rabs = (r >> 9) & (2^52 - 1);
 * x = rabs * wi[idx], negated if the sign is set, is the draw if
 * rabs < ki[idx].  That fast path runs inline here.  The tables are numpy's
 * own, probed at load from its random_standard_normal (nullrec_normals_init);
 * the rest, about 0.7% of the words, goes to that same function on a bitgen_t
 * that reads the stream again from r, so numpy's own wedge and tail code
 * runs on the same words.
 */
#include <numpy/random/bitgen.h>

/* numpy's, from libnpyrandom.a; it reads only next_uint64 and next_double */
double random_standard_normal(bitgen_t *bitgen_state);

#define BATCH 4
#define WORDS (4 * BATCH)
#define STATE 11
#define MASK52 0x000fffffffffffffULL

static const uint64_t M0 = 0xD2E7470EE14C6C93ULL, M1 = 0xCA5A826395121157ULL;
static const uint64_t W0 = 0x9E3779B97F4A7C15ULL, W1 = 0xBB67AE8584CAA73BULL;

/* numpy's ziggurat tables: wi[idx] is the width of level idx, and a word of
 * that level takes the fast path when rabs < ki[idx] (0: never) */
static double wi[256];
static uint64_t ki[256];

struct stream {
    uint64_t key[2];
    uint64_t ctr[4];        /* the counter of buf's first block */
    uint64_t buf[WORDS];
    int64_t n, pos;         /* words in buf, and the next one to use */
};

/* c += k, with carry through all 256 bits */
static void ctr_add(uint64_t c[4], uint64_t k)
{
    c[0] += k;
    if (c[0] < k && ++c[1] == 0 && ++c[2] == 0)
        ++c[3];
}

/* BATCH blocks, of the counters ctr, ctr + 1, ..., into out */
static void philox_blocks(const uint64_t key[2], const uint64_t ctr[4], uint64_t *out)
{
    uint64_t v0[BATCH], v1[BATCH], v2[BATCH], v3[BATCH];
    uint64_t c[4] = {ctr[0], ctr[1], ctr[2], ctr[3]};
    for (int j = 0; j < BATCH; j++) {
        v0[j] = c[0], v1[j] = c[1], v2[j] = c[2], v3[j] = c[3];
        ctr_add(c, 1);
    }
    uint64_t k0 = key[0], k1 = key[1];
    for (int round = 0; round < 10; round++) {
        if (round > 0)
            k0 += W0, k1 += W1;
        for (int j = 0; j < BATCH; j++) {
            __uint128_t p0 = (__uint128_t)M0 * v0[j], p1 = (__uint128_t)M1 * v2[j];
            uint64_t hi0 = (uint64_t)(p0 >> 64), hi1 = (uint64_t)(p1 >> 64);
            v0[j] = hi1 ^ v1[j] ^ k0;
            v1[j] = (uint64_t)p1;
            v2[j] = hi0 ^ v3[j] ^ k1;
            v3[j] = (uint64_t)p0;
        }
    }
    for (int j = 0; j < BATCH; j++) {
        out[4 * j] = v0[j], out[4 * j + 1] = v1[j];
        out[4 * j + 2] = v2[j], out[4 * j + 3] = v3[j];
    }
}

static void stream_load(struct stream *s, const uint64_t *st)
{
    memcpy(s->key, st, sizeof s->key);
    memcpy(s->ctr, st + 2, sizeof s->ctr);
    memcpy(s->buf, st + 6, 4 * sizeof(uint64_t));
    s->n = 4;
    s->pos = (int64_t)st[10];
}

static void stream_store(const struct stream *s, uint64_t *st)
{
    int64_t blk = s->pos > 0 ? (s->pos - 1) / 4 : 0;
    memcpy(st + 2, s->ctr, sizeof s->ctr);
    ctr_add(st + 2, (uint64_t)blk);
    memcpy(st + 6, s->buf + 4 * blk, 4 * sizeof(uint64_t));
    st[10] = (uint64_t)(s->pos - 4 * blk);
}

static void refill(struct stream *s)
{
    ctr_add(s->ctr, (uint64_t)(s->n / 4));
    philox_blocks(s->key, s->ctr, s->buf);
    s->n = WORDS;
    s->pos = 0;
}

static uint64_t next_uint64(void *st)
{
    struct stream *s = st;
    if (s->pos == s->n)
        refill(s);
    return s->buf[s->pos++];
}

static uint32_t next_uint32(void *st)
{
    return (uint32_t)next_uint64(st);
}

static double next_double(void *st)
{
    return (double)(next_uint64(st) >> 11) * (1.0 / 9007199254740992.0);
}

/* numpy's draw from the word at pos on */
static double slow_normal(struct stream *s)
{
    bitgen_t g = {s, next_uint64, next_uint32, next_double, next_uint64};
    return random_standard_normal(&g);
}

static inline double normal(struct stream *s)
{
    if (s->pos == s->n)
        refill(s);
    uint64_t r = s->buf[s->pos], rabs = (r >> 9) & MASK52;
    unsigned idx = (unsigned)(r & 0xff);
    if (rabs < ki[idx]) {
        s->pos++;
        double x = (double)rabs * wi[idx];
        uint64_t bits;
        memcpy(&bits, &x, sizeof x);
        bits ^= (r & 0x100) << 55;   /* the sign, bit 8, to bit 63 */
        memcpy(&x, &bits, sizeof x);
        return x;
    }
    return slow_normal(s);
}

/* A bitgen_t whose first word is `first` and every later one 2^63: that
 * makes numpy's wedge and tail loops end (a draw of level 0 with rabs 0, and
 * uniforms of 1/2). */
struct probe {
    uint64_t first;
    int calls;
};

static uint64_t probe_uint64(void *st)
{
    struct probe *p = st;
    return p->calls++ ? 1ULL << 63 : p->first;
}

static uint32_t probe_uint32(void *st)
{
    return (uint32_t)probe_uint64(st);
}

static double probe_double(void *st)
{
    return (double)(probe_uint64(st) >> 11) * (1.0 / 9007199254740992.0);
}

/* numpy's draw for the word r, and how many words it read */
static double probe(uint64_t r, int *calls)
{
    struct probe p = {r, 0};
    bitgen_t g = {&p, probe_uint64, probe_uint32, probe_double, probe_uint64};
    double x = random_standard_normal(&g);
    *calls = p.calls;
    return x;
}

/* Probe numpy's tables: ki[idx] is the least rabs whose draw reads more than
 * one word (a binary search), and wi[idx] the draw of rabs 1.  A level with
 * ki <= 1 takes numpy's own path for every word.  Returns 0, or -1 where a
 * probe does not give a positive width in one word. */
int nullrec_normals_init(void)
{
    double w[256];
    uint64_t k[256];
    for (unsigned idx = 0; idx < 256; idx++) {
        uint64_t lo = 0, hi = MASK52 + 1;
        int calls;
        while (lo < hi) {
            uint64_t mid = lo + (hi - lo) / 2;
            probe(mid << 9 | idx, &calls);
            if (calls > 1)
                hi = mid;
            else
                lo = mid + 1;
        }
        k[idx] = lo > 1 ? lo : 0;
        w[idx] = 0.0;
        if (k[idx]) {
            w[idx] = probe(1ULL << 9 | idx, &calls);
            if (calls != 1 || !(w[idx] > 0.0))
                return -1;
        }
    }
    memcpy(wi, w, sizeof wi);
    memcpy(ki, k, sizeof ki);
    return 0;
}

/* n normals of each lane's stream state[l*STATE...] into out[l*row + i] */
void nullrec_normals(int64_t lanes, uint64_t *state, int64_t n, double *out, int64_t row)
{
    for (int64_t l = 0; l < lanes; l++) {
        struct stream s;
        stream_load(&s, state + l * STATE);
        double *o = out + l * row;
        for (int64_t i = 0; i < n; i++)
            o[i] = normal(&s);
        stream_store(&s, state + l * STATE);
    }
}

/* The driftless block: blk[l*row + n + 1] = x0 + the cumulative sum of
 * z_k * sig_sqdt over k <= n, x0 = blk[l*row], with the bits of numpy's
 * multiply, cumsum and add.  With scan, the crossing scan of
 * simulate._scan_crossings runs on: mode[l] 0 awaits a state above
 * threshold, 1 one below 0, whose step it records in hits[l*hits_row ...]
 * and counts in nhits[l].  Returns 1 if a floating-point flag was raised:
 * then the caller runs the block again on numpy from saved streams. */
int nullrec_driftless_block(int64_t lanes, uint64_t *state, int64_t steps, double *blk,
                            int64_t row, double sig_sqdt, int scan, double threshold,
                            int32_t *mode, int32_t *hits, int64_t hits_row, int64_t *nhits)
{
    feclearexcept(FE_ALL_EXCEPT);
    for (int64_t l = 0; l < lanes; l++) {
        struct stream s;
        stream_load(&s, state + l * STATE);
        double *x = blk + l * row;
        double x0 = x[0], sum = 0.0;
        for (int64_t n = 0; n < steps; n++) {
            double v = normal(&s) * sig_sqdt;
            sum = n ? sum + v : v;
            x[n + 1] = sum + x0;
        }
        stream_store(&s, state + l * STATE);
        if (!scan)
            continue;
        int32_t m = mode[l], *h = hits + l * hits_row;
        int64_t count = 0;
        for (int64_t n = 0; n < steps; n++) {
            if (m == 0)
                m = x[n + 1] > threshold;
            else if (x[n + 1] < 0.0) {
                h[count++] = (int32_t)n;
                m = 0;
            }
        }
        mode[l] = m;
        nhits[l] = count;
    }
    return fetestexcept(FLAGS) != 0;
}
#endif
