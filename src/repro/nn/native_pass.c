/* Whole-pass attention + GRU kernel for the compiled propagation path.
 *
 * One call runs a whole block-layout pass (or one window of it) over the
 * target-sorted CSR arrays of a compiled schedule:
 *
 *   repro_attn_gru_forward   written nodes in schedule order: gather the
 *                            source rows, additive-attention scores, the
 *                            segment softmax and weighted sum, the message
 *                            share of the GRU input transform and the GRU
 *                            gates; the new row is written in place.
 *   repro_attn_gru_backward  the reverse walk: gate-input gradients and
 *                            the attention backward land in the caller's
 *                            pass-wide sinks, and each source row's
 *                            gradient is added to the gradient matrix row
 *                            of the same index.
 *
 * Pass-wide GEMMs (h @ W_hh, x @ W_ih[d:], the parameter contractions)
 * stay with the caller's BLAS.  Matrices are row-major float32, index
 * arrays int64.  The GRU follows the repo's convention
 *
 *   r = sig(gi_r + gh_r)   z = sig(gi_z + gh_z)
 *   n = tanh(gi_n + r * gh_n)   h' = (h - n) * z + n.
 *
 * Floating point: built without -ffast-math (which would link
 * crtfastmath.o and switch the whole process to flush-to-zero) and
 * without -ffinite-math-only (non-finite values must propagate).  exp,
 * sigmoid and tanh use one fixed polynomial in GCC vector extensions, and
 * every reduction has a fixed accumulator layout, so a node's result
 * depends only on its inputs -- never on where a group, window or batch
 * boundary falls.
 */

#include <stdint.h>
#include <string.h>

typedef float v8f __attribute__((vector_size(32)));
typedef int32_t v8i __attribute__((vector_size(32)));

#define LANES 8

static inline v8f ld8(const float *p) {
    v8f v;
    memcpy(&v, p, sizeof v);
    return v;
}

static inline void st8(float *p, v8f v) { memcpy(p, &v, sizeof v); }

static inline v8f splat(float x) { return (v8f){x, x, x, x, x, x, x, x}; }

/* mask ? a : b, lane-wise (mask lanes are all-ones or zero) */
static inline v8f select8(v8i mask, v8f a, v8f b) {
    return (v8f)(((v8i)a & mask) | ((v8i)b & ~mask));
}

/* exp on 8 lanes: Cody-Waite reduction x = n ln2 + r, a degree-7
 * polynomial in r (Cephes expf coefficients), then scaling by 2^n built
 * from exponent bits.  Saturates at exp(88.37) just below the float
 * overflow threshold, returns +inf above it, 0 below the smallest normal,
 * and passes NaN through. */
static inline v8f vexp8(v8f x) {
    const v8f hi = splat(88.37f), lo = splat(-87.33654475f);
    v8i over = x > splat(88.72283936f);
    v8i under = x < lo;
    v8i nan = x != x;
    v8f xc = select8(x > hi, hi, x);
    xc = select8(xc < lo, lo, xc);
    /* round-to-nearest via the 1.5 * 2^23 shifter */
    v8f shift = splat(12582912.0f);
    v8f nf = (xc * splat(1.44269504088896341f) + shift) - shift;
    v8f r = xc - nf * splat(0.693359375f);
    r = r - nf * splat(-2.12194440e-4f);
    v8f y = splat(1.9875691500e-4f);
    y = y * r + splat(1.3981999507e-3f);
    y = y * r + splat(8.3334519073e-3f);
    y = y * r + splat(4.1665795894e-2f);
    y = y * r + splat(1.6666665459e-1f);
    y = y * r + splat(5.0000001201e-1f);
    y = y * (r * r) + r + splat(1.0f);
    v8i ni = __builtin_convertvector(nf, v8i);
    v8i bits = (ni + 127) << 23;
    y = y * (v8f)bits;
    y = select8(over, splat(__builtin_inff()), y);
    y = select8(under, splat(0.0f), y);
    return select8(nan, x, y);
}

/* In place exp over n floats.  The tail goes through a zero-padded
 * vector, so every element takes exactly the same code path. */
static void exp_inplace(float *x, int64_t n) {
    int64_t i = 0;
    for (; i + LANES <= n; i += LANES) st8(x + i, vexp8(ld8(x + i)));
    if (i < n) {
        float pad[LANES] = {0};
        memcpy(pad, x + i, (size_t)(n - i) * sizeof(float));
        st8(pad, vexp8(ld8(pad)));
        memcpy(x + i, pad, (size_t)(n - i) * sizeof(float));
    }
}

/* dot product with a fixed accumulator layout: 8 lane partial sums, a
 * fixed horizontal tree, then the scalar tail in order */
static inline float dot(const float *a, const float *b, int64_t n) {
    v8f acc = splat(0.0f);
    int64_t i = 0;
    for (; i + LANES <= n; i += LANES) acc += ld8(a + i) * ld8(b + i);
    float s = ((acc[0] + acc[4]) + (acc[2] + acc[6]))
              + ((acc[1] + acc[5]) + (acc[3] + acc[7]));
    for (; i < n; i++) s += a[i] * b[i];
    return s;
}

/* Row-blocked GEMV: out_i[c] = sum_j v_i[j] * w[j * ld + c] for the nb
 * (<= NB) row vectors v_i = v + i * vs and c < ncols, j ascending.  Each
 * output element is one multiply-add chain over j whatever block or lane
 * holds it, so its bits do not depend on nb.  A full block of NB rows
 * reads each weight vector once for all of them: W_ih (d x 3d) is too
 * big to stay in L1 between nodes, so sharing its loads is what counts. */
#define NB 4
static void gemv_rows(const float *v, int64_t vs, int nb, const float *w,
                      int64_t nrows, int64_t ld, float *out, int64_t os,
                      int64_t ncols) {
    int64_t c = 0;
    if (nb == NB) {
        for (; c + 2 * LANES <= ncols; c += 2 * LANES) {
            v8f a00 = splat(0.0f), a01 = a00, a10 = a00, a11 = a00;
            v8f a20 = a00, a21 = a00, a30 = a00, a31 = a00;
            for (int64_t j = 0; j < nrows; j++) {
                const float *wj = w + j * ld + c;
                const v8f w0 = ld8(wj), w1 = ld8(wj + LANES);
                const v8f s0 = splat(v[j]), s1 = splat(v[vs + j]);
                const v8f s2 = splat(v[2 * vs + j]), s3 = splat(v[3 * vs + j]);
                a00 += s0 * w0; a01 += s0 * w1;
                a10 += s1 * w0; a11 += s1 * w1;
                a20 += s2 * w0; a21 += s2 * w1;
                a30 += s3 * w0; a31 += s3 * w1;
            }
            st8(out + c, a00); st8(out + c + LANES, a01);
            st8(out + os + c, a10); st8(out + os + c + LANES, a11);
            st8(out + 2 * os + c, a20); st8(out + 2 * os + c + LANES, a21);
            st8(out + 3 * os + c, a30); st8(out + 3 * os + c + LANES, a31);
        }
    }
    for (int i = 0; i < nb; i++) {
        const float *vi = v + i * vs;
        float *oi = out + i * os;
        int64_t ci = c;
        for (; ci + 2 * LANES <= ncols; ci += 2 * LANES) {
            v8f a0 = splat(0.0f), a1 = a0;
            for (int64_t j = 0; j < nrows; j++) {
                const v8f s = splat(vi[j]);
                const float *wj = w + j * ld + ci;
                a0 += s * ld8(wj);
                a1 += s * ld8(wj + LANES);
            }
            st8(oi + ci, a0);
            st8(oi + ci + LANES, a1);
        }
        for (; ci + LANES <= ncols; ci += LANES) {
            v8f a0 = splat(0.0f);
            for (int64_t j = 0; j < nrows; j++)
                a0 += splat(vi[j]) * ld8(w + j * ld + ci);
            st8(oi + ci, a0);
        }
        for (; ci < ncols; ci++) {
            float a = 0.0f;
            for (int64_t j = 0; j < nrows; j++) a += vi[j] * w[j * ld + ci];
            oi[ci] = a;
        }
    }
}

int repro_native_abi(void) { return 3; }

/* Attention for position p: scores, segment softmax (alpha, in place)
 * and the weighted sum m of the source rows. */
static void attend(int64_t p, int64_t d, int64_t pa, const float *work,
                   const int64_t *starts, const int64_t *src,
                   const float *attr, const float *we, const float *qs,
                   const float *wk, float *alpha, float *m) {
    const int64_t e0 = starts[p], e1 = starts[p + 1], k = e1 - e0;
    float *a = alpha + e0;
    float mx = -__builtin_inff();
    for (int64_t e = e0; e < e1; e++) {
        float s = qs[p] + dot(work + src[e] * d, wk, d);
        if (pa) s += dot(attr + e * pa, we, pa);
        a[e - e0] = s;
        if (s > mx || s != s) mx = s;
    }
    for (int64_t i = 0; i < k; i++) a[i] -= mx;
    exp_inplace(a, k);
    float denom = 0.0f;
    for (int64_t i = 0; i < k; i++) denom += a[i];
    for (int64_t i = 0; i < k; i++) a[i] = a[i] / denom;
    for (int64_t j = 0; j < d; j++) m[j] = 0.0f;
    for (int64_t e = e0; e < e1; e++) {
        const float *x = work + src[e] * d;
        const float ae = a[e - e0];
        for (int64_t j = 0; j < d; j++) m[j] += x[j] * ae;
    }
}

/* Forward pass over n_w written nodes (pass positions 0..n_w-1).
 *
 * groups    (n_g + 1,)  position offsets of the level groups; no node
 *                       reads a row written in its own or a later group
 * work      (R, d)      rows sources are read from; node p's new row is
 *                       written to row dst[p]
 * starts    (n_w + 1,)  edge range of position p: [starts[p], starts[p+1])
 * src       (n_e,)      source row per edge, target-sorted
 * attr, we  (n_e, pa), (pa,)   edge attributes and their score weights
 *                       (both NULL when pa == 0)
 * qs        (n_w,)      query score h_v @ w_query per position
 * wk        (d,)        key score weights
 * q         (n_w, d)    pass-input row of each written node
 * gh        (n_w, 3d)   h @ W_hh + b_hh per position
 * gi_static (n_w, 3d)   static input-transform share incl. b_ih, or NULL
 * b_ih      (3d,)       input bias, used when gi_static is NULL
 * w_ih      (d, 3d)     message rows of W_ih
 * alpha     (n_e,)      out: attention weights (also the softmax scratch)
 * m_out     (n_w, d)    out: messages, or NULL
 * gates     (n_w, 3d)   out: r, z, n per position, or NULL
 */
void repro_attn_gru_forward(
    int64_t n_g, int64_t d, int64_t pa, const int64_t *groups,
    float *work, const int64_t *dst, const int64_t *starts,
    const int64_t *src, const float *attr, const float *we,
    const float *qs, const float *wk, const float *q, const float *gh,
    const float *gi_static, const float *b_ih, const float *w_ih,
    float *alpha, float *m_out, float *gates)
{
    const int64_t d3 = 3 * d;
    float m_buf[NB * d], gi_buf[NB * d3], t[d3];
    for (int64_t g = 0; g < n_g; g++) {
        for (int64_t p0 = groups[g]; p0 < groups[g + 1]; p0 += NB) {
            const int nb = (int)(groups[g + 1] - p0 < NB ? groups[g + 1] - p0
                                                         : NB);
            float *m = m_out ? m_out + p0 * d : m_buf;
            for (int i = 0; i < nb; i++)
                attend(p0 + i, d, pa, work, starts, src, attr, we, qs, wk,
                       alpha, m + i * d);
            /* gi = m @ W_ih[:d] (+ static share below) */
            gemv_rows(m, d, nb, w_ih, d, d3, gi_buf, d3, d3);
            for (int i = 0; i < nb; i++) {
                const int64_t p = p0 + i;
                float *gi = gi_buf + i * d3;
                const float *gs = gi_static ? gi_static + p * d3 : b_ih;
                for (int64_t c = 0; c < d3; c++) gi[c] += gs[c];
                /* GRU gates */
                const float *ghp = gh + p * d3;
                for (int64_t c = 0; c < 2 * d; c++) t[c] = -(gi[c] + ghp[c]);
                exp_inplace(t, 2 * d);
                for (int64_t c = 0; c < 2 * d; c++) t[c] = 1.0f / (1.0f + t[c]);
                const float *r = t, *z = t + d;
                float *nn = t + 2 * d;
                for (int64_t j = 0; j < d; j++)
                    nn[j] = -2.0f * (gi[2 * d + j] + r[j] * ghp[2 * d + j]);
                exp_inplace(nn, d);
                for (int64_t j = 0; j < d; j++)
                    nn[j] = 2.0f / (1.0f + nn[j]) - 1.0f;
                const float *qp = q + p * d;
                float *out = work + dst[p] * d;
                for (int64_t j = 0; j < d; j++)
                    out[j] = (qp[j] - nn[j]) * z[j] + nn[j];
                if (gates) memcpy(gates + p * d3, t, (size_t)d3 * sizeof(float));
            }
        }
    }
}

/* Reverse walk over the written nodes, last position first.
 *
 * groups, work, dst, starts, src, wk, q, gh   as in the forward (work
 *                       holds the rows the forward read)
 * w_ih_t    (3d, d)     W_ih[:d] transposed
 * gwork     (R, d)      gradient per work row: position p reads its
 *                       output gradient from row dst[p]; each source
 *                       gradient is added to row src[e]
 * alpha, gates          the forward's saved attention weights and gates
 * dgi, dgh  (n_w, 3d)   out: gate pre-activation gradients
 * dq        (n_w, d)    out: direct z * grad query gradient
 * ds        (n_e,)      out: score gradients
 * h_e       (n_e, d)    out: the source rows (for the w_key contraction)
 * dqs       (n_w,)      out: query-score gradient per position
 */
void repro_attn_gru_backward(
    int64_t n_g, int64_t d, const int64_t *groups,
    const float *work, float *gwork, const int64_t *dst,
    const int64_t *starts, const int64_t *src, const float *wk,
    const float *q, const float *gh, const float *w_ih_t,
    const float *alpha, const float *gates,
    float *dgi, float *dgh, float *dq, float *ds, float *h_e, float *dqs)
{
    const int64_t d3 = 3 * d;
    float dm_buf[NB * d];
    for (int64_t g = n_g - 1; g >= 0; g--) {
        for (int64_t p1 = groups[g + 1]; p1 > groups[g]; p1 -= NB) {
            const int64_t p0 = p1 - NB > groups[g] ? p1 - NB : groups[g];
            const int nb = (int)(p1 - p0);
            /* gate gradients; no node of this group reads another's row,
             * so every g below is final */
            for (int64_t p = p0; p < p1; p++) {
                const float *gp = gwork + dst[p] * d;
                const float *r = gates + p * d3, *z = r + d, *nn = r + 2 * d;
                const float *qp = q + p * d, *hn = gh + p * d3 + 2 * d;
                float *dgip = dgi + p * d3, *dghp = dgh + p * d3;
                float *dqp = dq + p * d;
                for (int64_t j = 0; j < d; j++) {
                    const float omz = 1.0f - z[j];
                    const float dz = (qp[j] - nn[j]) * gp[j] * z[j] * omz;
                    const float dn = omz * gp[j] * (1.0f - nn[j] * nn[j]);
                    const float dr = hn[j] * dn * r[j] * (1.0f - r[j]);
                    dgip[j] = dr;
                    dgip[d + j] = dz;
                    dgip[2 * d + j] = dn;
                    dghp[j] = dr;
                    dghp[d + j] = dz;
                    dghp[2 * d + j] = dn * r[j];
                    dqp[j] = gp[j] * z[j];
                }
            }
            /* dm = dgi @ W_ih[:d]^T */
            gemv_rows(dgi + p0 * d3, d3, nb, w_ih_t, d3, d, dm_buf, d, d);
            /* attention backward, last position first */
            for (int64_t p = p1 - 1; p >= p0; p--) {
                const float *dm = dm_buf + (p - p0) * d;
                const int64_t e0 = starts[p], e1 = starts[p + 1];
                float sw = 0.0f;
                for (int64_t e = e0; e < e1; e++) {
                    const float *x = work + src[e] * d;
                    const float w = alpha[e] * dot(x, dm, d);
                    ds[e] = w;
                    sw += w;
                }
                float sq = 0.0f;
                for (int64_t e = e0; e < e1; e++) {
                    const float ae = alpha[e];
                    const float dse = ds[e] - ae * sw;
                    const float *x = work + src[e] * d;
                    float *gx = gwork + src[e] * d;
                    ds[e] = dse;
                    sq += dse;
                    memcpy(h_e + e * d, x, (size_t)d * sizeof(float));
                    for (int64_t j = 0; j < d; j++)
                        gx[j] += ae * dm[j] + dse * wk[j];
                }
                dqs[p] = sq;
            }
        }
    }
}
