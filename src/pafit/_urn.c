/* The two compiled functions of pafit, built together by
   pafit.simulator._build_urn: urn_grow, the growth loop, and below it
   quantile_replay, the fitness inverse CDF. Where this source cannot be
   built, their Python and numpy twins run instead, with the same results.

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




/* The inverse-CDF bisection of pafit.quantile_replay.BisectionReplay: the
   table descent, the certified jump and the plain passes of its numpy twin
   (_solve, _jump, _finish), with the same floating-point operations in the
   same order, so the same bits.

   Draws go through in lanes of LANE, each step over the whole lane before
   the next: the CPU then overlaps independent draws instead of waiting on
   one draw's chain of dependent loads, multiplies and divides. The passes
   take two draws at a time in a vector of two doubles and select without
   branches: a compare on a random target is a coin flip that a branch
   predictor loses half the time, so each select takes a 64-bit mask,
   -(cdf(mid) < t), over the doubles' bits. A pass keeps a draw, compacted
   in place, unless it reached a fixed point (mid == lo or mid == hi) or its
   last pass. Vector arithmetic is per element, the same IEEE operations as
   the scalar code.

   On the density 3(1-f)^2, 2e5 draws take about 40-60 ms here against
   110-140 ms through the numpy twin (2-CPU Xeon, gcc 12 -O2), with a few
   hundred minor page faults against 6-10 thousand. */

#include <math.h>
#include <string.h>

#define LANE 256

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

/* The twin starts from x * 0.0 + c[top] where this starts from c[top]:
   they can differ only in the sign of a zero, which no compare sees. */
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

void quantile_replay(const struct law *w, const double *t, double *out, long n)
{
    for (long start = 0; start < n; start += LANE)
        lane(w, t + start, out + start, n - start < LANE ? n - start : LANE);
}
