/* The compiled functions of pafit, built together by
   pafit.simulator._build_urn: urn_grow, the growth loop, and below it
   quantile_replay_variant, the fitness inverse CDF. Where this source
   cannot be built, urn_grow's Python twin runs instead, and the inverse
   CDF's definition, 80 plain bisection passes in numpy: the same results.

   The token-urn growth loop of pafit.simulator._grow for the built-in models.

   Step s of a call draws counts[s] edge targets and then appends the token
   of its own vertex, first + s. A draw takes tries of two uniforms: the
   first picks token (long)(u * size) of the `size` tokens present when the
   step began, the second keeps the token's owner i unless it is >= its
   fitness. Each target's token is appended at once. These are the Python
   loop's operations in its order, one IEEE double multiply, truncation and
   compare each, so the results are the same bits; build with
   -ffp-contract=off and without -ffast-math to keep them so.

   Each appended token also counts one unit of its owner's impact (the
   step's own vertex starts at 1) and adds the owner's fitness to the
   running total weight *weight, in the order the tokens are appended: the
   additions of a sequential sum over them, so the same bits. Resampling a
   frozen state runs one step on copies of its arrays.

   The loop stops at a try boundary when fewer than two of the nu uniforms
   are left. pos holds (step, edge, token count) on entry and exit, and
   *weight the running sum, so the caller can pass the next uniforms and
   resume. Returns the uniforms read. */

#include <stdint.h>

long urn_grow(int32_t *tokens, const double *fitness, int64_t *impact, double *weight,
              const int64_t *counts, long steps, long first, const double *u, long nu,
              long *pos)
{
    long step = pos[0], edge = pos[1], ntok = pos[2], k = 0;
    double w = *weight;
    for (; step < steps; step++, edge = 0) {
        long size = ntok - edge;
        for (; edge < counts[step]; edge++) {
            int32_t i;
            do {
                if (nu - k < 2)
                    goto out;
                i = tokens[(long)(u[k] * (double)size)];
                k += 2;
            } while (u[k - 1] >= fitness[i]);
            tokens[ntok++] = i;
            impact[i]++;
            w += fitness[i];
        }
        long v = first + step;
        tokens[ntok++] = (int32_t)v;
        impact[v] = 1;
        w += fitness[v];
    }
out:
    pos[0] = step;
    pos[1] = edge;
    pos[2] = ntok;
    *weight = w;
    return k;
}



/* The inverse-CDF bisection of pafit.quantile_replay.BisectionReplay, whose
   __call__ runs its definition, 80 plain passes, where this source cannot
   be built. This replay reaches the same bits in fewer passes, by the steps
   that module's docstring derives: the table descent, the certified jump
   and plain passes. The table and the passes make the definition's
   floating-point operations in its order (mid = lo + hi; mid *= 0.5; the
   CDF by Horner's rule); the jump skips only passes whose outcome its
   certificate proves.

   Draws go through in lanes of LANE, each step over the whole lane before
   the next: the CPU then overlaps independent draws instead of waiting on
   one draw's chain of dependent loads, multiplies and divides. Selects are
   branch-free: a compare on a random target is a coin flip that a branch
   predictor loses half the time, so each select takes a 64-bit mask,
   -(cdf(mid) < t), over the doubles' bits. Vector arithmetic is per
   element, the same IEEE operations as the scalar code.

   The source holds three variants of the lane. quantile_replay_variant
   runs a named one, and quantile_replay_supported tells which ones the
   CPU runs; pafit.simulator._build_urn asks once and the replay then
   runs the widest:

   - baseline: the descent and the jump one draw at a time, then passes
     over two draws at a time in a vector of two doubles. Each pass
     compacts the lane in place and keeps a draw unless it reached a fixed
     point (mid == lo or mid == hi) or its last pass.
   - avx2 and avx512f, on x86-64 only: the descent, the jump and the passes
     over V = 4 or 8 draws at a time. Their functions are compiled for
     those instruction sets by target attributes, so the build needs no
     -march. A pass freezes a finished draw by mask instead of dropping
     it: its lo, hi and passes left stay as they are. The lane runs BLOCK
     passes over all its draws, and only then is it compacted. So a draw
     makes exactly the passes, and gets exactly the bits, that the baseline
     gives it.

   On the density 3(1-f)^2, 2e5 draws take about 8-11 ms with avx512f,
   12-17 ms with avx2 and 24-30 ms with the baseline, against 0.24 s
   through the 80 numpy passes (2-CPU Xeon, gcc 12 -O2). */

#include <math.h>
#include <string.h>

#define LANE 256
#define BLOCK 8 /* passes between two compactions of a wide variant's lane */

typedef double v2d __attribute__((vector_size(16)));
typedef int64_t v2i __attribute__((vector_size(16)));

struct law {
    const double *heap;       /* cdf at the table's nodes, in heap order */
    const double *bounds;     /* the table's leaves, 2^levels + 1 nodes */
    const double *bounds_cdf; /* cdf at the leaves */
    const double *anti;       /* antiderivative coefficients: row k, x^k of each piece */
    const double *dens;       /* density coefficients, the same layout */
    const double *edges;      /* the pieces + 1 piece edges */
    const double *cum;        /* body mass below each piece */
    const double *base;       /* each piece's antiderivative at its left edge */
    long pieces, anti_rows, dens_rows, levels, passes, jumps, kmax;
    double lo, hi, total, margin, level_scale, width;
};

static inline uint64_t bits_of(double x)
{
    uint64_t b;
    memcpy(&b, &x, sizeof b);
    return b;
}

static inline double power_of_two(long k) /* 2^k for a normal result, exactly */
{
    uint64_t b = (uint64_t)(1023 + k) << 52;
    double x;
    memcpy(&x, &b, sizeof x);
    return x;
}

/* numpy's searchsorted(edges, x, "right") - 1, clipped to a piece, for
   every x but NaN, which never reaches it */
static inline long piece(const struct law *w, double x)
{
    long j = 0;
    for (long k = 1; k < w->pieces; k++)
        j += x >= w->edges[k];
    return j;
}

/* BisectionReplay.cdf starts from x * 0.0 + c[top] where this starts from
   c[top]: they can differ only in the sign of a zero, which no compare
   sees. */
static inline double horner(const double *c, long rows, long stride, double x)
{
    double acc = c[(rows - 1) * stride];
    for (long k = rows - 2; k >= 0; k--) {
        acc *= x;
        acc += c[k * stride];
    }
    return acc;
}

static inline double cdf(const struct law *w, double x)
{
    long j = piece(w, x);
    double acc = horner(w->anti + j, w->anti_rows, w->pieces, x);
    acc += w->cum[j];
    acc -= w->base[j];
    return x <= w->lo ? 0.0 : x >= w->hi ? w->total : acc;
}

static inline v2d cdf2(const struct law *w, v2d x) /* cdf of each element */
{
    v2i j = {0, 0};
    for (long k = 1; k < w->pieces; k++)
        j -= (v2i)(x >= w->edges[k]);
    const double *a = w->anti;
    long rows = w->anti_rows, stride = w->pieces;
    v2d acc = {a[(rows - 1) * stride + j[0]], a[(rows - 1) * stride + j[1]]};
    for (long k = rows - 2; k >= 0; k--) {
        acc *= x;
        acc += (v2d){a[k * stride + j[0]], a[k * stride + j[1]]};
    }
    acc += (v2d){w->cum[j[0]], w->cum[j[1]]};
    acc -= (v2d){w->base[j[0]], w->base[j[1]]};
    v2i low = (v2i)(x <= w->lo), high = (v2i)(x >= w->hi);
    v2d total = {w->total, w->total};
    return (v2d)(((v2i)acc & ~low & ~high) | ((v2i)total & high));
}

static void lane(const struct law *w, const double *restrict t, double *restrict out, long size)
{
    const struct law law = *w; /* loads that the stores to out cannot alias */
    double lo[LANE + 1], hi[LANE + 1], ts[LANE + 1], lo_k[LANE], hi_k[LANE];
    int64_t left[LANE + 1];
    long at[LANE + 1], node[LANE], level[LANE];

    /* the table descent, level by level */
    for (long i = 0; i < size; i++) {
        ts[i] = t[i];
        at[i] = i;
        node[i] = 0;
    }
    for (long k = 0; k < law.levels; k++)
        for (long i = 0; i < size; i++)
            node[i] = 2 * node[i] + 1 + (law.heap[node[i]] < ts[i]);
    for (long i = 0; i < size; i++) {
        node[i] -= (1L << law.levels) - 1; /* the leaf's index at the last level */
        lo[i] = law.bounds[node[i]];
        hi[i] = law.bounds[node[i] + 1];
        left[i] = law.passes - law.levels;
    }

    /* the jump to the level-k bracket of a secant and a Newton step, where
       the certificate holds; level[i] is 0 where the draw stays. frexp's
       exponent, ldexp and floor are made from the bits, which is exact on
       the positive normal doubles involved. */
    for (long i = 0; law.jumps && i < size; i++) {
        double c_lo = law.bounds_cdf[node[i]], c_hi = law.bounds_cdf[node[i] + 1];
        double frac = (ts[i] - c_lo) / (c_hi - c_lo);
        frac = isnan(frac) ? 0.5 : frac < 0.0 ? 0.0 : frac > 1.0 ? 1.0 : frac;
        double x = lo[i] + frac * (hi[i] - lo[i]);
        double p = horner(law.dens + piece(&law, x), law.dens_rows, law.pieces, x);
        x -= (cdf(&law, x) - ts[i]) / p;
        /* floor(log2(pdf * width / (span * M))): frexp's exponent less 1,
           where a zero, subnormal, infinite or NaN product gives one <= 0 */
        long e = (long)(bits_of(p * law.level_scale) >> 52 & 0x7ff);
        long k = e && e < 0x7ff ? e - 1023 : -1;
        k = k < law.kmax ? k : law.kmax;
        level[i] = k > law.levels && p > 0.0 && isfinite(x) ? k : 0;
        if (!level[i])
            continue;
        double step = law.width * power_of_two(-k); /* ldexp(width, -k) */
        x = x < law.lo ? law.lo : x > law.hi ? law.hi : x;
        double j = (double)(int64_t)((x - law.lo) / step); /* floor of a value in [0, 2^k] */
        double top = power_of_two(k) - 1.0;
        j = j > top ? top : j;
        lo_k[i] = j * step;
        lo_k[i] += law.lo;
        hi_k[i] = lo_k[i] + step;
    }
    for (long i = 0; law.jumps && i < size; i++) {
        if (level[i] && (lo_k[i] == law.lo || cdf(&law, lo_k[i]) + law.margin < ts[i])
            && (hi_k[i] == law.hi || ts[i] <= cdf(&law, hi_k[i]) - law.margin)) {
            lo[i] = lo_k[i];
            hi[i] = hi_k[i];
            left[i] = law.passes - level[i];
        }
    }

    /* the plain passes, two draws at a time */
    while (size > 0) {
        lo[size] = lo[size - 1]; /* an odd count's last vector repeats its draw */
        hi[size] = hi[size - 1];
        ts[size] = ts[size - 1];
        left[size] = left[size - 1];
        at[size] = at[size - 1];
        long kept = 0;
        for (long i = 0; i < size; i += 2) {
            v2d l, h, target;
            v2i rest;
            memcpy(&l, lo + i, sizeof l);
            memcpy(&h, hi + i, sizeof h);
            memcpy(&target, ts + i, sizeof target);
            memcpy(&rest, left + i, sizeof rest);
            v2d mid = l + h;
            mid *= 0.5;
            v2i below = (v2i)(cdf2(&law, mid) < target);
            rest -= 1;
            v2i done = (v2i)(mid == l) | (v2i)(mid == h) | (rest <= 0);
            l = (v2d)(((v2i)mid & below) | ((v2i)l & ~below));
            h = (v2d)(((v2i)h & below) | ((v2i)mid & ~below));
            long a0 = at[i], a1 = at[i + 1];
            out[a0] = h[0];
            out[a1] = h[1];
            lo[kept] = l[0];
            hi[kept] = h[0];
            ts[kept] = target[0];
            left[kept] = rest[0];
            at[kept] = a0;
            kept += !done[0];
            lo[kept] = l[1];
            hi[kept] = h[1];
            ts[kept] = target[1];
            left[kept] = rest[1];
            at[kept] = a1;
            kept += !done[1] & (i + 1 < size);
        }
        size = kept;
    }
}

#if defined(__x86_64__) && defined(__GNUC__)
/* The wide variant NAME: the baseline's lane over V draws at a time, in
   functions compiled for the instruction set ISA. */
#define WIDE_REPLAY(NAME, ISA, V)                                                                  \
typedef double NAME##_vd __attribute__((vector_size(8 * V)));                                      \
typedef int64_t NAME##_vi __attribute__((vector_size(8 * V)));                                     \
                                                                                                   \
static inline __attribute__((always_inline, target(ISA)))                                          \
NAME##_vd NAME##_splat(double c) /* c in every element, its bits unchanged */                      \
{                                                                                                  \
    NAME##_vd r = {0};                                                                             \
    for (int e = 0; e < V; e++)                                                                    \
        r[e] = c;                                                                                  \
    return r;                                                                                      \
}                                                                                                  \
                                                                                                   \
static inline __attribute__((always_inline, target(ISA)))                                          \
NAME##_vd NAME##_pick(NAME##_vi mask, NAME##_vd a, NAME##_vd b) /* mask ? a : b */                 \
{                                                                                                  \
    return (NAME##_vd)((mask & (NAME##_vi)a) | (~mask & (NAME##_vi)b));                            \
}                                                                                                  \
                                                                                                   \
static inline __attribute__((always_inline, target(ISA)))                                          \
NAME##_vd NAME##_gather(const double *c, NAME##_vi j) /* c[j] of each element */                   \
{                                                                                                  \
    NAME##_vd r = {0};                                                                             \
    for (int e = 0; e < V; e++)                                                                    \
        r[e] = c[j[e]];                                                                            \
    return r;                                                                                      \
}                                                                                                  \
                                                                                                   \
/* row c of a per-piece table at each element's piece, c[piece(x)]: a                              \
   select per piece edge */                                                                        \
static inline __attribute__((always_inline, target(ISA)))                                          \
NAME##_vd NAME##_row(const struct law *w, const double *c, NAME##_vd x)                            \
{                                                                                                  \
    NAME##_vd r = NAME##_splat(c[0]);                                                              \
    for (long k = 1; k < w->pieces; k++)                                                           \
        r = NAME##_pick((NAME##_vi)(x >= w->edges[k]), NAME##_splat(c[k]), r);                     \
    return r;                                                                                      \
}                                                                                                  \
                                                                                                   \
static inline __attribute__((always_inline, target(ISA)))                                          \
NAME##_vd NAME##_horner(const struct law *w, const double *c, long rows, NAME##_vd x)              \
{                                                                                                  \
    NAME##_vd acc = NAME##_row(w, c + (rows - 1) * w->pieces, x);                                  \
    for (long k = rows - 2; k >= 0; k--) {                                                         \
        acc *= x;                                                                                  \
        acc += NAME##_row(w, c + k * w->pieces, x);                                                \
    }                                                                                              \
    return acc;                                                                                    \
}                                                                                                  \
                                                                                                   \
static inline __attribute__((always_inline, target(ISA)))                                          \
NAME##_vd NAME##_cdf(const struct law *w, NAME##_vd x) /* cdf() of each element */                 \
{                                                                                                  \
    NAME##_vd acc = NAME##_horner(w, w->anti, w->anti_rows, x);                                    \
    acc += NAME##_row(w, w->cum, x);                                                               \
    acc -= NAME##_row(w, w->base, x);                                                              \
    acc = NAME##_pick((NAME##_vi)(x >= w->hi), NAME##_splat(w->total), acc);                       \
    return NAME##_pick((NAME##_vi)(x <= w->lo), NAME##_splat(0.0), acc);                           \
}                                                                                                  \
                                                                                                   \
static inline __attribute__((always_inline, target(ISA)))                                          \
NAME##_vd NAME##_power_of_two(NAME##_vi k) /* 2^k of each element, for a normal result */          \
{                                                                                                  \
    return (NAME##_vd)((k + 1023) << 52);                                                          \
}                                                                                                  \
                                                                                                   \
static __attribute__((target(ISA))) void                                                           \
NAME##_lane(const struct law *w, const double *restrict t, double *restrict out, long size)        \
{                                                                                                  \
    const struct law law = *w; /* loads that the stores to out cannot alias */                     \
    double lo[LANE + V], hi[LANE + V], ts[LANE + V];                                               \
    int64_t left[LANE + V], at[LANE + V], node[LANE + V];                                          \
                                                                                                   \
    /* the table descent, level by level; the last vector's spare elements                         \
       repeat the last draw */                                                                     \
    long full = (size + V - 1) / V * V; /* the elements that whole vectors cover */                \
    for (long i = 0; i < full; i++) {                                                              \
        ts[i] = t[i < size ? i : size - 1];                                                        \
        at[i] = i;                                                                                 \
        node[i] = 0;                                                                               \
    }                                                                                              \
    for (long k = 0; k < law.levels; k++)                                                          \
        for (long i = 0; i < size; i += V) {                                                       \
            NAME##_vd target;                                                                      \
            NAME##_vi leaf;                                                                        \
            memcpy(&target, ts + i, sizeof target);                                                \
            memcpy(&leaf, node + i, sizeof leaf);                                                  \
            leaf = 2 * leaf + 1 - (NAME##_vi)(NAME##_gather(law.heap, leaf) < target);             \
            memcpy(node + i, &leaf, sizeof leaf);                                                  \
        }                                                                                          \
    for (long i = 0; i < full; i++) {                                                              \
        node[i] -= (1L << law.levels) - 1; /* the leaf's index at the last level */                \
        lo[i] = law.bounds[node[i]];                                                               \
        hi[i] = law.bounds[node[i] + 1];                                                           \
        left[i] = law.passes - law.levels;                                                         \
    }                                                                                              \
                                                                                                   \
    /* the baseline's jump, element by element, its branches made selects;                         \
       the certificate's CDFs are evaluated, and ignored, where the                                \
       baseline skips them */                                                                      \
    for (long i = 0; law.jumps && i < size; i += V) {                                              \
        NAME##_vd target, l, h;                                                                    \
        NAME##_vi leaf, rest;                                                                      \
        memcpy(&target, ts + i, sizeof target);                                                    \
        memcpy(&l, lo + i, sizeof l);                                                              \
        memcpy(&h, hi + i, sizeof h);                                                              \
        memcpy(&leaf, node + i, sizeof leaf);                                                      \
        memcpy(&rest, left + i, sizeof rest);                                                      \
        NAME##_vd c_lo = NAME##_gather(law.bounds_cdf, leaf);                                      \
        NAME##_vd frac = (target - c_lo) / (NAME##_gather(law.bounds_cdf + 1, leaf) - c_lo);       \
        frac = NAME##_pick((NAME##_vi)(frac > 1.0), NAME##_splat(1.0), frac);                      \
        frac = NAME##_pick((NAME##_vi)(frac < 0.0), NAME##_splat(0.0), frac);                      \
        frac = NAME##_pick((NAME##_vi)(frac != frac), NAME##_splat(0.5), frac);                    \
        NAME##_vd x = l + frac * (h - l);                                                          \
        NAME##_vd p = NAME##_horner(&law, law.dens, law.dens_rows, x);                             \
        x -= (NAME##_cdf(&law, x) - target) / p;                                                   \
        NAME##_vi e = (NAME##_vi)(p * law.level_scale) >> 52 & 0x7ff;                              \
        NAME##_vi normal = (e != 0) & (e < 0x7ff), k = ((e - 1023) & normal) | ~normal;            \
        NAME##_vi deep = k >= law.kmax;                                                            \
        k = (k & ~deep) | (law.kmax & deep);                                                       \
        NAME##_vi jump = (k > law.levels) & (NAME##_vi)(p > 0.0)                                   \
                         & (((NAME##_vi)x >> 52 & 0x7ff) != 0x7ff); /* isfinite(x) */              \
        NAME##_vd step = law.width * NAME##_power_of_two(-k);                                      \
        x = NAME##_pick((NAME##_vi)(x > law.hi), NAME##_splat(law.hi), x);                         \
        x = NAME##_pick((NAME##_vi)(x < law.lo), NAME##_splat(law.lo), x);                         \
        /* the floor of y in [0, 2^k]: y itself from 2^52 up, where every                          \
           double is an integer; below, y rounded to an integer by adding and                      \
           subtracting 2^52, less 1 where that rounded up */                                       \
        NAME##_vd y = (x - law.lo) / step, j = y + 0x1p52;                                         \
        j -= 0x1p52;                                                                               \
        j = NAME##_pick((NAME##_vi)(j > y), j - 1.0, j);                                           \
        j = NAME##_pick((NAME##_vi)(y >= 0x1p52), y, j);                                           \
        NAME##_vd top = NAME##_power_of_two(k) - 1.0;                                              \
        j = NAME##_pick((NAME##_vi)(j > top), top, j);                                             \
        NAME##_vd lo_k = j * step;                                                                 \
        lo_k += law.lo;                                                                            \
        NAME##_vd hi_k = lo_k + step;                                                              \
        NAME##_vd c_lo_k = NAME##_cdf(&law, lo_k), c_hi_k = NAME##_cdf(&law, hi_k);                \
        jump &= (NAME##_vi)(lo_k == law.lo) | (NAME##_vi)(c_lo_k + law.margin < target);           \
        jump &= (NAME##_vi)(hi_k == law.hi) | (NAME##_vi)(target <= c_hi_k - law.margin);          \
        l = NAME##_pick(jump, lo_k, l);                                                            \
        h = NAME##_pick(jump, hi_k, h);                                                            \
        rest = ((law.passes - k) & jump) | (rest & ~jump);                                         \
        memcpy(lo + i, &l, sizeof l);                                                              \
        memcpy(hi + i, &h, sizeof h);                                                              \
        memcpy(left + i, &rest, sizeof rest);                                                      \
    }                                                                                              \
                                                                                                   \
    /* the plain passes: BLOCK passes over the lane, then the lane compacted */                    \
    while (size > 0) {                                                                             \
        for (long i = size; i < size + V; i++) { /* spare elements, frozen */                      \
            lo[i] = lo[size - 1];                                                                  \
            hi[i] = hi[size - 1];                                                                  \
            ts[i] = ts[size - 1];                                                                  \
            left[i] = 0;                                                                           \
        }                                                                                          \
        for (int pass = 0; pass < BLOCK; pass++)                                                   \
            for (long i = 0; i < size; i += V) {                                                   \
                NAME##_vd l, h, target;                                                            \
                NAME##_vi rest;                                                                    \
                memcpy(&l, lo + i, sizeof l);                                                      \
                memcpy(&h, hi + i, sizeof h);                                                      \
                memcpy(&target, ts + i, sizeof target);                                            \
                memcpy(&rest, left + i, sizeof rest);                                              \
                NAME##_vi live = rest > 0;                                                         \
                NAME##_vd mid = l + h;                                                             \
                mid *= 0.5;                                                                        \
                NAME##_vi below = (NAME##_vi)(NAME##_cdf(&law, mid) < target);                     \
                NAME##_vi fixed = (NAME##_vi)(mid == l) | (NAME##_vi)(mid == h);                   \
                l = NAME##_pick(below & live, mid, l);                                             \
                h = NAME##_pick(~below & live, mid, h);                                            \
                rest = (rest - 1) & live & ~fixed;                                                 \
                memcpy(lo + i, &l, sizeof l);                                                      \
                memcpy(hi + i, &h, sizeof h);                                                      \
                memcpy(left + i, &rest, sizeof rest);                                              \
            }                                                                                      \
        long kept = 0;                                                                             \
        for (long i = 0; i < size; i++) {                                                          \
            out[at[i]] = hi[i];                                                                    \
            lo[kept] = lo[i];                                                                      \
            hi[kept] = hi[i];                                                                      \
            ts[kept] = ts[i];                                                                      \
            left[kept] = left[i];                                                                  \
            at[kept] = at[i];                                                                      \
            kept += left[i] > 0;                                                                   \
        }                                                                                          \
        size = kept;                                                                               \
    }                                                                                              \
}

WIDE_REPLAY(avx2, "avx2", 4)
WIDE_REPLAY(avx512f, "avx512f", 8)
#endif

enum { BASELINE, AVX2, AVX512F, VARIANTS }; /* the variants, narrowest first */

/* 1 where this CPU and this build run variant v, else 0. */
int quantile_replay_supported(int v)
{
#ifdef WIDE_REPLAY
    __builtin_cpu_init();
    if (v == AVX2)
        return __builtin_cpu_supports("avx2");
    if (v == AVX512F)
        return __builtin_cpu_supports("avx512f");
#endif
    return v == BASELINE;
}

/* The replay through variant v (BASELINE, AVX2 or AVX512F); -1, with
   nothing drawn, where this CPU or this build lacks it. The caller picks
   the variant once, from quantile_replay_supported. The lanes are called
   directly: through a function pointer the baseline's lane ran about 3%
   slower. */
int quantile_replay_variant(const struct law *w, const double *t, double *out, long n, int v)
{
    if (v < 0 || v >= VARIANTS || !quantile_replay_supported(v))
        return -1;
    for (long start = 0; start < n; start += LANE) {
        long size = n - start < LANE ? n - start : LANE;
#ifdef WIDE_REPLAY
        if (v == AVX512F)
            avx512f_lane(w, t + start, out + start, size);
        else if (v == AVX2)
            avx2_lane(w, t + start, out + start, size);
        else
#endif
            lane(w, t + start, out + start, size);
    }
    return 0;
}
