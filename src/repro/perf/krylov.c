/* The Krylov solvers' vector algebra, one fused pass per step.
 *
 * Each pass reads its operands once and writes fresh outputs, computing
 * element by element the IEEE operations of the Lattice expression it
 * replaces (repro.grid.krylov names each), in the same order, so its
 * bytes are numpy's:
 *
 *  - a product with a scalar c, x * c, is numpy's array-times-scalar
 *    multiply (Lattice.__mul__): the full complex product with c
 *    rounded to T, (c, +0) for a real c;
 *  - conj(x) * y negates x's imaginary part (exact) and multiplies;
 *  - every complex product a*b is numpy's formula under the host's
 *    contraction, as in hop_cb.c: re = a.re b.re - a.im b.im, im =
 *    a.re b.im + a.im b.re, with FUSED_C64 / FUSED_C128 set to 1 where
 *    numpy fuses the first product of each into an fma;
 *  - a reduction sum(conj(x) * y) is numpy's complex sum of the
 *    product array: zero-initialised pairwise summation over the
 *    interleaved floats (below).
 *
 * Products are formed on split re/im rows, never on interleaved pairs:
 * gcc's SLP vectorizer turns an interleaved ar*br - ai*bi into
 * vfmaddsub even under -ffp-contract=off, so the fma calls below are
 * the only fused operations.
 *
 * numpy's pairwise sum.  A C-contiguous complex array of n elements is
 * summed as 0 + P(2n floats), where P(m) over interleaved (re, im)
 * floats is:
 *  - m < 8: from -0, add each pair in order;
 *  - m <= 128: eight accumulators start from the first four pairs and
 *    each adds every fourth pair up to m - m % 8 floats; then re =
 *    (r0 + r2) + (r4 + r6), im = (r1 + r3) + (r5 + r7), and the
 *    remaining pairs are added in order;
 *  - else: P over the first m2 = m/2 - (m/2) % 8 floats plus P over
 *    the rest.
 * The real and imaginary sums are independent, so a norm (the real
 * part of sum(conj(x) * x)) needs only the real parts.  A pass walks
 * the same tree: each node of at most BLOCK elements computes its
 * elements' outputs and products in one loop, then its leaves' sums,
 * which are added as P adds them.
 *
 * Layouts: every operand is a C-contiguous complex array of n elements
 * (interleaved re, im); shapes do not matter, as for numpy's sum.
 */
#ifndef KRYLOV_BODY
#define KRYLOV_BODY

#include <math.h>
#include <stdint.h>

#if !defined(FUSED_C64) || !defined(FUSED_C128)
#error "define FUSED_C64 and FUSED_C128 to the contraction of numpy's multiply"
#endif

/* Complex elements per block: a pass computes its elements' outputs a
 * block at a time, then sums the block's products by P's subtree. */
#define BLOCK 256
/* The passes (repro.perf.native's OP_* constants), with their operands
 * a..e, outputs o0, o1, constants k0, k1 and sums. */
enum {
    OP_DOT,        /* sums: <a, b> (re, im) */
    OP_NORM,       /* sums: |a|^2 */
    OP_DOT2,       /* sums: <a, a> (re, im), <a, b> (re, im) */
    OP_AXPY,       /* o0 = a + b * k0 */
    OP_SUBMUL,     /* o0 = a - b * k0 */
    OP_SUBMUL_NORM, /* o0 = a - b * k0; sums: |o0|^2 */
    OP_SUB_NORM,   /* o0 = a - b; sums: |o0|^2 */
    OP_BICG_DIR,   /* o0 = a + (b - c * k0) * k1 */
    OP_BICG_UPD,   /* o0 = (a + b * k0) + c * k1; o1 = c - d * k1;
                      sums: |o1|^2, <e, o1> (re, im) */
    OP_CG_UPD,     /* o0 = a + b * k0; o1 = c - d * k0; sums: |o1|^2 */
    OP_SCHUR_BACK, /* o0 = (a - b * (-1/2)) * k0.re;
                      sums: |a - (o0 * k1.re - b * (1/2))|^2 */
    OP_SCHUR_RES,  /* sums: |a - (b * k0.re - c * (1/2))|^2 */
    OP_COUNT
};
/* Sums per pass, in the order above. */
static const int NSUMS[OP_COUNT] = {2, 1, 4, 0, 0, 1, 1, 0, 3, 1, 1, 1};

#define T double
#define FMA fma
#define FUSED FUSED_C128
#define SFX(name) name##_c128
#include __FILE__
#undef T
#undef FMA
#undef FUSED
#undef SFX

#define T float
#define FMA fmaf
#define FUSED FUSED_C64
#define SFX(name) name##_c64
#include __FILE__

#else /* KRYLOV_BODY: the passes for the element type T */

#if FUSED
#define MUL_RE(ar, ai, br, bi) FMA((ar), (br), -((ai) * (bi)))
#define MUL_IM(ar, ai, br, bi) FMA((ar), (bi), (ai) * (br))
#else
#define MUL_RE(ar, ai, br, bi) ((ar) * (br) - (ai) * (bi))
#define MUL_IM(ar, ai, br, bi) ((ar) * (bi) + (ai) * (br))
#endif

/* Element j of an interleaved operand, as the scalars xr, xi. */
#define LD(x, p) const T x##r = (p)[2 * j], x##i = (p)[2 * j + 1]
/* Store re, im as element j of the split output rows p##r, p##i. */
#define ST(p, re, im) (p##r[j] = (re), p##i[j] = (im))
/* Interleave m elements of the split rows x##r, x##i into p. */
#define STORE(p, x)                                                      \
    for (int j = 0; j < m; j++) {                                       \
        (p)[2 * j] = x##r[j];                                           \
        (p)[2 * j + 1] = x##i[j];                                       \
    }
/* The scalars dr, di = x * (cr, ci). */
#define CMUL(d, x, cr, ci)                                               \
    const T d##r = MUL_RE(x##r, x##i, (cr), (ci)),                      \
            d##i = MUL_IM(x##r, x##i, (cr), (ci))
/* re, im = conj(x) * y: x's imaginary part negated (exact), then
 * multiplied. */
#define CONJ_MUL(re, im, x, y)                                           \
    ((re) = MUL_RE(x##r, -x##i, y##r, y##i),                            \
     (im) = MUL_IM(x##r, -x##i, y##r, y##i))
/* re(conj(x) * x). */
#define NORM_RE(x) MUL_RE(x##r, -x##i, x##r, x##i)

typedef struct {
    int op;
    const T *in[5];
    T *out[2];
    T k0r, k0i, k1r, k1i;
} SFX(Pass);

/* The leaves of P over nf floats, in order: the offset (in values of a
 * split row, from off) and length of each; returns how many. */
static int SFX(leaves)(int64_t nf, int64_t off, int64_t *at, int *len)
{
    if (nf <= 128) {
        at[0] = off;
        len[0] = (int)(nf / 2);
        return 1;
    }
    int64_t n2 = nf / 2;
    n2 -= n2 % 8;
    const int k = SFX(leaves)(n2, off, at, len);
    return k + SFX(leaves)(nf - n2, off + n2 / 2, at + k, len + k);
}

/* The sums of q leaves of one length m >= 4 of the split row v (the
 * real or the imaginary parts), at the offsets at: P's eight-
 * accumulator case, whose even (re) or odd (im) accumulators are a
 * leaf's four lanes, here one vector of four (lane by lane, the same
 * IEEE additions).  The q leaves' chains run side by side. */
typedef T SFX(v4) __attribute__((vector_size(4 * sizeof(T))));

#define LEAF_SUMS(q)                                                      \
    static inline void SFX(leaf_sums##q)(const T *v, const int64_t *at,  \
                                         int m, T *out)                  \
    {                                                                    \
        SFX(v4) a[q];                                                    \
        for (int l = 0; l < q; l++)                                      \
            __builtin_memcpy(&a[l], v + at[l], sizeof a[l]);             \
        const int end = m - m % 4;                                       \
        for (int j = 4; j < end; j += 4)                                 \
            for (int l = 0; l < q; l++) {                                \
                SFX(v4) x;                                               \
                __builtin_memcpy(&x, v + at[l] + j, sizeof x);           \
                a[l] += x;                                               \
            }                                                            \
        for (int l = 0; l < q; l++) {                                    \
            T s = (a[l][0] + a[l][1]) + (a[l][2] + a[l][3]);             \
            for (int j = end; j < m; j++)                                \
                s += v[at[l] + j];                                       \
            out[l] = s;                                                  \
        }                                                                \
    }
LEAF_SUMS(1)
LEAF_SUMS(4)
#undef LEAF_SUMS

/* P of the leaf sums ls over nf floats, consumed from *k in order. */
static T SFX(combine)(int64_t nf, const T *ls, int *k)
{
    if (nf <= 128)
        return ls[(*k)++];
    int64_t n2 = nf / 2;
    n2 -= n2 % 8;
    const T left = SFX(combine)(n2, ls, k);
    return left + SFX(combine)(nf - n2, ls, k);
}

/* P over the split row v of nf / 2 values (nf / 2 <= BLOCK), whose
 * leaves are at, len (count of them). */
static T SFX(psum)(const T *v, int64_t nf, const int64_t *at,
                   const int *len, int count)
{
    T ls[BLOCK / 16 + 2];
    int i = 0;
    while (i < count) {
        if (len[i] < 4) {  /* P's first case: from -0, in order */
            T s = (T)-0.0;
            for (int j = 0; j < len[i]; j++)
                s += v[at[i] + j];
            ls[i++] = s;
        } else if (i + 4 <= count && len[i + 1] == len[i]
                   && len[i + 2] == len[i] && len[i + 3] == len[i]) {
            SFX(leaf_sums4)(v, at + i, len[i], ls + i);
            i += 4;
        } else {
            SFX(leaf_sums1)(v, at + i, len[i], ls + i);
            i += 1;
        }
    }
    int k = 0;
    return SFX(combine)(nf, ls, &k);
}

/* One block: elements lo .. lo + m - 1, a node of P's tree.  Each
 * pass is one loop over the block's elements; the products a sum needs
 * go to split rows, which P's subtree then adds. */
static void SFX(block)(const SFX(Pass) *c, int64_t lo, int m, T *s)
{
    const int64_t at = 2 * lo;
    const T *A = c->in[0] + at, *B = c->in[1] ? c->in[1] + at : 0,
            *C = c->in[2] ? c->in[2] + at : 0,
            *D = c->in[3] ? c->in[3] + at : 0,
            *E = c->in[4] ? c->in[4] + at : 0;
    T *O0 = c->out[0] ? c->out[0] + at : 0,
      *O1 = c->out[1] ? c->out[1] + at : 0;
    const T k0r = c->k0r, k0i = c->k0i, k1r = c->k1r, k1i = c->k1i;
    const T z = (T)0, half = (T)0.5, mhalf = (T)-0.5;
    T s0[BLOCK], s1[BLOCK], s2[BLOCK], s3[BLOCK];
    T o0r[BLOCK], o0i[BLOCK], o1r[BLOCK], o1i[BLOCK];
    switch (c->op) {
    case OP_DOT:
        for (int j = 0; j < m; j++) {
            LD(a, A); LD(b, B);
            CONJ_MUL(s0[j], s1[j], a, b);
        }
        break;
    case OP_NORM:
        for (int j = 0; j < m; j++) {
            LD(a, A);
            s0[j] = NORM_RE(a);
        }
        break;
    case OP_DOT2:
        for (int j = 0; j < m; j++) {
            LD(a, A); LD(b, B);
            CONJ_MUL(s0[j], s1[j], a, a);
            CONJ_MUL(s2[j], s3[j], a, b);
        }
        break;
    case OP_AXPY:
        for (int j = 0; j < m; j++) {
            LD(a, A); LD(b, B);
            CMUL(t, b, k0r, k0i);
            ST(o0, ar + tr, ai + ti);
        }
        break;
    case OP_SUBMUL:
        for (int j = 0; j < m; j++) {
            LD(a, A); LD(b, B);
            CMUL(t, b, k0r, k0i);
            ST(o0, ar - tr, ai - ti);
        }
        break;
    case OP_SUBMUL_NORM:
        for (int j = 0; j < m; j++) {
            LD(a, A); LD(b, B);
            CMUL(t, b, k0r, k0i);
            const T ur = ar - tr, ui = ai - ti;
            ST(o0, ur, ui);
            s0[j] = NORM_RE(u);
        }
        break;
    case OP_SUB_NORM:
        for (int j = 0; j < m; j++) {
            LD(a, A); LD(b, B);
            const T ur = ar - br, ui = ai - bi;
            ST(o0, ur, ui);
            s0[j] = NORM_RE(u);
        }
        break;
    case OP_BICG_DIR:
        /* a + (b - c * k0) * k1 */
        for (int j = 0; j < m; j++) {
            LD(a, A); LD(b, B); LD(c, C);
            CMUL(t, c, k0r, k0i);
            const T ur = br - tr, ui = bi - ti;
            CMUL(w, u, k1r, k1i);
            ST(o0, ar + wr, ai + wi);
        }
        break;
    case OP_BICG_UPD:
        /* o0 = (a + b * k0) + c * k1; o1 = c - d * k1, its norm and
         * <e, o1> */
        for (int j = 0; j < m; j++) {
            LD(a, A); LD(b, B); LD(c, C); LD(d, D); LD(e, E);
            CMUL(t, b, k0r, k0i);
            CMUL(w, c, k1r, k1i);
            ST(o0, (ar + tr) + wr, (ai + ti) + wi);
            CMUL(v, d, k1r, k1i);
            const T ur = cr - vr, ui = ci - vi;
            ST(o1, ur, ui);
            s0[j] = NORM_RE(u);
            CONJ_MUL(s1[j], s2[j], e, u);
        }
        break;
    case OP_CG_UPD:
        /* o0 = a + b * k0; o1 = c - d * k0 and its norm */
        for (int j = 0; j < m; j++) {
            LD(a, A); LD(b, B); LD(c, C); LD(d, D);
            CMUL(t, b, k0r, k0i);
            ST(o0, ar + tr, ai + ti);
            CMUL(w, d, k0r, k0i);
            const T ur = cr - wr, ui = ci - wi;
            ST(o1, ur, ui);
            s0[j] = NORM_RE(u);
        }
        break;
    case OP_SCHUR_BACK:
        /* o0 = (a - b * (-1/2)) * k0; |a - (o0 * k1 - b * (1/2))|^2 */
        for (int j = 0; j < m; j++) {
            LD(a, A); LD(b, B);
            CMUL(t, b, mhalf, z);
            const T ur = ar - tr, ui = ai - ti;
            CMUL(p, u, k0r, z);
            ST(o0, pr, pi);
            CMUL(q, p, k1r, z);
            CMUL(h, b, half, z);
            const T wr = ar - (qr - hr), wi = ai - (qi - hi);
            s0[j] = NORM_RE(w);
        }
        break;
    case OP_SCHUR_RES:
        /* |a - (b * k0 - c * (1/2))|^2 */
        for (int j = 0; j < m; j++) {
            LD(a, A); LD(b, B); LD(c, C);
            CMUL(q, b, k0r, z);
            CMUL(h, c, half, z);
            const T wr = ar - (qr - hr), wi = ai - (qi - hi);
            s0[j] = NORM_RE(w);
        }
        break;
    }
    if (O0)
        STORE(O0, o0)
    if (O1)
        STORE(O1, o1)
    T *rows[4] = {s0, s1, s2, s3};
    int64_t at_[BLOCK / 16 + 2];
    int len[BLOCK / 16 + 2];
    const int count = NSUMS[c->op] ? SFX(leaves)(2 * m, 0, at_, len) : 0;
    for (int i = 0; i < NSUMS[c->op]; i++)
        s[i] = SFX(psum)(rows[i], 2 * m, at_, len, count);
}

/* P over the floats of elements lo .. lo + nf / 2 - 1, block by block. */
static void SFX(tree)(const SFX(Pass) *c, int64_t lo, int64_t nf, T *s)
{
    if (nf <= 2 * BLOCK) {
        SFX(block)(c, lo, (int)(nf / 2), s);
        return;
    }
    int64_t n2 = nf / 2;
    n2 -= n2 % 8;
    T s1[4], s2[4];
    SFX(tree)(c, lo, n2, s1);
    SFX(tree)(c, lo + n2 / 2, nf - n2, s2);
    for (int i = 0; i < NSUMS[c->op]; i++)
        s[i] = s1[i] + s2[i];
}

/* Run pass op over n elements; sums[i] = 0 + P of the pass's i-th sum,
 * widened to double. */
void SFX(krylov)(int64_t op, int64_t n, const T *a, const T *b,
                 const T *cc, const T *d, const T *e, T *o0, T *o1,
                 double k0r, double k0i, double k1r, double k1i,
                 double *sums)
{
    if (op < 0 || op >= OP_COUNT)
        return;
    const SFX(Pass) c = {(int)op, {a, b, cc, d, e}, {o0, o1},
                         (T)k0r, (T)k0i, (T)k1r, (T)k1i};
    T s[4] = {(T)-0.0, (T)-0.0, (T)-0.0, (T)-0.0};
    if (n > 0)
        SFX(tree)(&c, 0, 2 * n, s);
    for (int i = 0; i < NSUMS[op]; i++)
        sums[i] = (double)((T)0 + s[i]);
}

/* The sites of a half field, gathered from or scattered to a lane-major
 * full field: row r (r < rows) of half-field site k is the element at
 * base[k] + r * nl of the full field, and at r * nh + k of the half
 * field (nh sites).  Exact copies. */
void SFX(pick)(const T *full, const int64_t *base, int64_t nl,
               int64_t rows, int64_t nh, T *half)
{
    for (int64_t r = 0; r < rows; r++)
        for (int64_t k = 0; k < nh; k++) {
            const T *f = full + 2 * (base[k] + r * nl);
            half[2 * (r * nh + k)] = f[0];
            half[2 * (r * nh + k) + 1] = f[1];
        }
}

void SFX(embed)(const T *half, const int64_t *base, int64_t nl,
                int64_t rows, int64_t nh, T *full)
{
    for (int64_t r = 0; r < rows; r++)
        for (int64_t k = 0; k < nh; k++) {
            T *f = full + 2 * (base[k] + r * nl);
            f[0] = half[2 * (r * nh + k)];
            f[1] = half[2 * (r * nh + k) + 1];
        }
}

#undef MUL_RE
#undef MUL_IM
#undef LD
#undef ST
#undef STORE
#undef CMUL
#undef CONJ_MUL
#undef NORM_RE

#endif /* KRYLOV_BODY */

#ifndef KRYLOV_CASTS
#define KRYLOV_CASTS
/* The mixed-precision defect correction's conversions between a
 * complex64 and a complex128 half field, whose site axes are
 * permutations of each other: site k of the output is site take[k] of
 * the input, each of rows rows of n sites.  A cast rounds each part
 * (float) or widens it (double), as numpy's astype. */

/* out = x + (complex128) d[..., take] */
void relayout_add_c128(const double *x, const float *d,
                       const int64_t *take, int64_t rows, int64_t n,
                       double *out)
{
    for (int64_t r = 0; r < rows; r++)
        for (int64_t k = 0; k < n; k++) {
            const int64_t i = 2 * (r * n + k), s = 2 * (r * n + take[k]);
            out[i] = x[i] + (double)d[s];
            out[i + 1] = x[i + 1] + (double)d[s + 1];
        }
}

/* out = (complex64) x[..., take] */
void relayout_c64(const double *x, const int64_t *take, int64_t rows,
                  int64_t n, float *out)
{
    for (int64_t r = 0; r < rows; r++)
        for (int64_t k = 0; k < n; k++) {
            const int64_t i = 2 * (r * n + k), s = 2 * (r * n + take[k]);
            out[i] = (float)x[s];
            out[i + 1] = (float)x[s + 1];
        }
}
#endif /* KRYLOV_CASTS */
