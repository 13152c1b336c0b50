/* The token-urn growth loop of pafit.simulator._grow for the built-in models.

   Step s of a call draws counts[s] edge targets and then appends the token
   of its own vertex, first + s. A draw takes tries of two uniforms: the
   first picks token (long)(u * size) of the `size` tokens present when the
   step began, the second keeps the token's owner i unless it is >= its
   fitness. Each target's token is appended at once. These are the Python
   loop's operations in its order, one IEEE double multiply, truncation and
   compare each, so the results are the same bits; build with
   -ffp-contract=off and without -ffast-math to keep them so.

   The loop stops at a try boundary when fewer than two of the nu uniforms
   are left. pos holds (step, edge, token count) on entry and exit, so the
   caller can pass the next uniforms and resume. Returns the uniforms read. */

#include <stdint.h>

long urn_grow(int32_t *tokens, const double *fitness, const int64_t *counts,
              long steps, long first, const double *u, long nu, long *pos)
{
    long step = pos[0], edge = pos[1], ntok = pos[2], k = 0;
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
        }
        tokens[ntok++] = (int32_t)(first + step);
    }
out:
    pos[0] = step;
    pos[1] = edge;
    pos[2] = ntok;
    return k;
}
