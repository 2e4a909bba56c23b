/* The Wilson hop, one block of output sites per call.
 *
 * The compiled body of every fused Wilson sweep in repro.perf.fused:
 * the checkerboard hop, the full hop and the distributed halo sweep,
 * and, in its store (below), the even-odd blocks' and the Schur
 * operator's scalar algebra.  It computes, element by element, the
 * IEEE operations of the layered reference (WilsonDirac's layered
 * dhop, the route taken where this kernel does not load), in the same
 * order, so its bytes are numpy's:
 *
 *  - the accumulator starts from +0;
 *  - per (mu, sign), in sweep order (mu ascending, +1 before -1), the
 *    neighbour's spinor is projected, multiplied by the link and
 *    reconstructed into the accumulator;
 *  - the SU(3) multiply sums ((0 + V[a][0] h[0]) + V[a][1] h[1]) +
 *    V[a][2] h[2], b ascending after a leading 0 +;
 *  - the constants i and -i are full complex products with (+0, 1)
 *    and (-0, -1), never sign flips or swaps;
 *  - every complex product a*b is numpy's formula under the host's
 *    contraction:  re = a.re b.re - a.im b.im,  im = a.re b.im +
 *    a.im b.re, with FUSED_C64 / FUSED_C128 set to 1 where numpy
 *    fuses the first product of each into an fma (re = fma(a.re, b.re,
 *    -(a.im b.im)), im = fma(a.re, b.im, a.im b.re)) and to 0 where it
 *    rounds both products.
 *
 * Build with -ffp-contract=off, and form every product on rows split
 * into real and imaginary parts, never on interleaved (re, im) pairs:
 * gcc's SLP vectorizer turns an interleaved ar*br - ai*bi into
 * vfmaddsub even under -ffp-contract=off.  Then the fma calls below are
 * the only fused operations, so the contraction is the source's, not
 * the compiler's (tests/perf/test_krylov_passes.py disassembles an
 * unfused build to check).
 * The one freedom left is which NaN an operation returns when two NaNs
 * meet in it: IEEE 754 leaves that to the implementation, and the
 * compiler may order a commutative operation's operands either way.
 *
 * Layouts (complex numbers as interleaved re, im pairs; nout output
 * sites):
 *  - src:    row r = spin*3 + colour of the neighbour read through
 *            entry t of a table starts at src + r*rstride, and the
 *            value is at row + t.  A tensor-major (4, 3, nsrc) field
 *            has rstride = nsrc and tables of sites; a lane-major
 *            (osites, 4, 3, nl) field has rstride = nl and tables of
 *            (site / nl) * 12 * nl + site % nl;
 *  - tables (8, nout):       per hop, the source offset of each
 *            output site;
 *  - out:    row r of output site f is written at
 *            (f - f % lanes) * 12 + r * lanes + f % lanes, for sites
 *            b0 .. b1 - 1 only: lanes = nout is the tensor-major
 *            (4, 3, nout) layout, lanes = nl the lane-major one;
 *  - psi:    the Schur source, read (store = 2 only) at out's offsets.
 *
 * The store.  After the last (mu, sign), store (repro.perf.native's
 * STORE_HOP, STORE_BLOCK, STORE_SCHUR) picks what is written for a
 * site's accumulated hop a, by these steps in this order:
 *  - store = 0, the hopping term D_h:  out = a;
 *  - store = 1, the even-odd matrix's off-diagonal block:
 *      1. a = a * (-1/2);   2. out = a;
 *  - store = 2, the Schur operator:
 *      1. a = a * (-1/2);   2. a = a * rd;   3. out = (psi * d) - a;
 *    with d = (T)diag and rd = (T)rdiag, where rdiag is the caller's
 *    double 1.0 / diag: each rounded to T, as numpy rounds a Python
 *    float to the array's type.
 * Each product with a constant c is the full complex product with
 * (c, +0) under the contraction above -- numpy's array-times-scalar
 * multiply (Lattice.__mul__), operand for operand -- and step 3 is a
 * complex subtraction, part by part.  So store = 1 writes the bytes of
 * the Lattice expression (D_h src) * (-1/2), and store = 2 those of
 * psi * d - ((D_h src) * (-1/2)) * (1/d).
 *
 * Links, one addressing rule.  Hop k reads the colour-matrix field
 * links[k], whose element (a, b) at link site s sits, like out's rows,
 * at (s - s % L) * 9 + (3a + b) * L + s % L with L = llanes: a
 * lane-major (osites, 3, 3, nl) field has L = nl (the operator's own
 * U_mu, read in place), a tensor-major (3, 3, M) one L = M.
 *  - Hop (mu, +1) applies links[k] at the output site, as stored.
 *  - Hop (mu, -1) does the same where back = 0: the caller stores the
 *    adjoint back-link per output site (the compact per-parity and
 *    per-rank arrays).  Where back = 1 it applies U_mu(x - mu)^dagger,
 *    reading U_mu = links[k] at the neighbour site: the table entry
 *    t = q * 12 L + r (r < L, rstride = L) of the neighbour's spinor
 *    names its matrix at q * 9 L + r, and the load conjugate-transposes
 *    it, V[a][b] = conj(U[b][a]).  Negating the imaginary part is exact
 *    -- a sign-bit flip, NaNs included -- so V has the bits of numpy's
 *    np.conj(U).swapaxes(0, 1), and every product with it the bits of
 *    the reference's.
 * A sub-block whose sites lie in one run of L (all of it where L >=
 * nout) reads its matrices where they are stored; one that crosses
 * runs copies each run's rows into a sub-block buffer first, the way
 * the store writes them, and neighbour-site back-links are copied
 * there site by site.  Either way no whole-lattice copy of the links
 * is made.
 *
 * The projection is elementwise in sites and a gather is an exact copy,
 * so projecting each gathered neighbour gives the bits of projecting
 * the source first (Grid's compressor order).
 */
#ifndef HOP_CB_BODY
#define HOP_CB_BODY

#include <math.h>
#include <stdint.h>
#include <string.h>

#if !defined(FUSED_C64) || !defined(FUSED_C128)
#error "define FUSED_C64 and FUSED_C128 to the contraction of numpy's multiply"
#endif

/* Sites per sub-block.  On a 2-vCPU AVX-512 host, 128 ran the 8^4 and
 * 16^4 hops fastest of 16 to 256, in both precisions. */
#define SB 128

#define T double
#define FMA fma
#define FUSED FUSED_C128
#define HOP hop_cb_c128
#include __FILE__
#undef T
#undef FMA
#undef FUSED
#undef HOP

#define T float
#define FMA fmaf
#define FUSED FUSED_C64
#define HOP hop_cb_c64
#include __FILE__

#else /* HOP_CB_BODY: one kernel, for the element type T */

#if FUSED
#define MUL_RE(ar, ai, br, bi) FMA((ar), (br), -((ai) * (bi)))
#define MUL_IM(ar, ai, br, bi) FMA((ar), (bi), (ai) * (br))
#else
#define MUL_RE(ar, ai, br, bi) ((ar) * (br) - (ai) * (bi))
#define MUL_IM(ar, ai, br, bi) ((ar) * (bi) + (ai) * (br))
#endif

/* Working rows of one sub-block, split into real and imaginary parts. */
#define ROWS(name, k) T name##r[k][SB], name##i[k][SB]

/* dst = a + (b * c) or a - (b * c) for the constant c = (cr, ci), per
 * site: the projection's p0 +- p3 i and the like. */
#define PM_MUL(dr, di, ar_, ai_, br_, bi_, cr, ci, plus)                  \
    for (int j = 0; j < n; j++) {                                       \
        T tr = MUL_RE(br_[j], bi_[j], (T)(cr), (T)(ci));                \
        T ti = MUL_IM(br_[j], bi_[j], (T)(cr), (T)(ci));                \
        dr[j] = (plus) ? ar_[j] + tr : ar_[j] - tr;                       \
        di[j] = (plus) ? ai_[j] + ti : ai_[j] - ti;                       \
    }

/* dst = a + b or a - b, per site. */
#define PM(dr, di, ar_, ai_, br_, bi_, plus)                              \
    for (int j = 0; j < n; j++) {                                       \
        dr[j] = (plus) ? ar_[j] + br_[j] : ar_[j] - br_[j];               \
        di[j] = (plus) ? ai_[j] + bi_[j] : ai_[j] - bi_[j];               \
    }

void HOP(const T *src, int64_t rstride, const int64_t *tables,
         const T *const *links, int64_t llanes, int64_t back, T *out,
         int64_t nout, int64_t lanes, const T *psi, double diag,
         double rdiag, int64_t store, int64_t b0, int64_t b1)
{
    const T half = (T)-0.5, d = (T)diag, rd = (T)rdiag;
    /* log2 of the link lanes where they are a power of two, else -1 */
    const int sh = (llanes & (llanes - 1)) == 0 ? __builtin_ctzll(llanes) : -1;
    for (int64_t s0 = b0; s0 < b1; s0 += SB) {
        const int n = (int)(b1 - s0 < SB ? b1 - s0 : SB);
        ROWS(a, 12);  /* the accumulator */
        ROWS(p, 12);  /* the gathered neighbour */
        ROWS(h, 6);   /* its projection */
        ROWS(w, 6);   /* the link times the projection */
        T vbuf[9][2 * SB];  /* a sub-block's matrices, where gathered */
        for (int r = 0; r < 12; r++)
            for (int j = 0; j < n; j++)
                ar[r][j] = ai[r][j] = (T)0;
        for (int k = 0; k < 8; k++) {
            const int mu = k >> 1, fwd = !(k & 1);
            const int64_t *tab = tables + k * nout + s0;
            for (int r = 0; r < 12; r++) {
                /* One load per complex number, then split the pairs. */
                const T *row = src + 2 * r * rstride;
                T pair[2 * SB];
                for (int j = 0; j < n; j++)
                    memcpy(pair + 2 * j, row + 2 * tab[j], 2 * sizeof(T));
                for (int j = 0; j < n; j++) {
                    pr[r][j] = pair[2 * j];
                    pi[r][j] = pair[2 * j + 1];
                }
            }
            /* h = the two independent spin rows of (1 +- gamma_mu) p */
            for (int c = 0; c < 3; c++) {
                T *h0r = hr[c], *h0i = hi[c], *h1r = hr[3 + c], *h1i = hi[3 + c];
                const T *p0r = pr[c], *p0i = pi[c], *p1r = pr[3 + c],
                        *p1i = pi[3 + c], *p2r = pr[6 + c], *p2i = pi[6 + c],
                        *p3r = pr[9 + c], *p3i = pi[9 + c];
                switch (mu) {
                case 0: /* h0 = p0 +- p3 i ; h1 = p1 +- p2 i */
                    PM_MUL(h0r, h0i, p0r, p0i, p3r, p3i, 0.0, 1.0, fwd)
                    PM_MUL(h1r, h1i, p1r, p1i, p2r, p2i, 0.0, 1.0, fwd)
                    break;
                case 1: /* h0 = p0 -+ p3 ; h1 = p1 +- p2 */
                    PM(h0r, h0i, p0r, p0i, p3r, p3i, !fwd)
                    PM(h1r, h1i, p1r, p1i, p2r, p2i, fwd)
                    break;
                case 2: /* h0 = p0 +- p2 i ; h1 = p1 +- p3 (-i) */
                    PM_MUL(h0r, h0i, p0r, p0i, p2r, p2i, 0.0, 1.0, fwd)
                    PM_MUL(h1r, h1i, p1r, p1i, p3r, p3i, -0.0, -1.0, fwd)
                    break;
                default: /* h0 = p0 +- p2 ; h1 = p1 +- p3 */
                    PM(h0r, h0i, p0r, p0i, p2r, p2i, fwd)
                    PM(h1r, h1i, p1r, p1i, p3r, p3i, fwd)
                }
            }
            /* The sub-block's matrices: element (a, b) of site s0 + j
             * at V + 2 * ((3a + b) * vs + j). */
            const T *V = &vbuf[0][0];
            int64_t vs = SB;
            if (back && !fwd) {
                /* U_mu at the neighbour, conjugate-transposed. */
                const T *U = links[k];
                for (int j = 0; j < n; j++) {
                    /* q = t / (12 L): for L = 2^sh a shift and a division
                     * by the constant 12, which compiles to a multiply. */
                    const int64_t t = tab[j];
                    const int64_t q = sh >= 0 ? (t >> sh) / 12
                                              : t / (12 * llanes);
                    const T *u = U + 2 * (t - 3 * llanes * q);
                    for (int a = 0; a < 3; a++)
                        for (int b = 0; b < 3; b++) {
                            const T *e = u + 2 * (3 * b + a) * llanes;
                            vbuf[3 * a + b][2 * j] = e[0];
                            vbuf[3 * a + b][2 * j + 1] = -e[1];
                        }
                }
            } else if (s0 % llanes + n <= llanes) {
                /* One run: read the matrices where they are stored. */
                const int64_t lane = s0 % llanes;
                V = links[k] + 2 * ((s0 - lane) * 9 + lane);
                vs = llanes;
            } else {
                /* Runs of sites that share an outer site, as stored;
                 * whole runs of a power-of-two L (the full hop's) are
                 * copied with L known to the compiler. */
                const int64_t lane0 = s0 % llanes;
                const T *u0 = links[k] + 2 * ((s0 - lane0) * 9 + lane0);
#define COPY_RUNS(LL)                                                     \
    for (int o = 0; o < n / (LL); o++)                                  \
        for (int e = 0; e < 9; e++)                                     \
            for (int i = 0; i < 2 * (LL); i++)                          \
                vbuf[e][2 * (LL) * o + i] =                             \
                    u0[18 * (LL) * o + 2 * (LL) * e + i];
                const int whole = lane0 == 0 && n % llanes == 0;
                if (whole && llanes == 1) {
                    COPY_RUNS(1)
                } else if (whole && llanes == 2) {
                    COPY_RUNS(2)
                } else if (whole && llanes == 4) {
                    COPY_RUNS(4)
                } else if (whole && llanes == 8) {
                    COPY_RUNS(8)
                } else if (whole && llanes == 16) {
                    COPY_RUNS(16)
                } else {
                    for (int j = 0; j < n;) {
                        const int64_t lane = (s0 + j) % llanes;
                        const int m = (int)(llanes - lane < n - j
                                            ? llanes - lane : n - j);
                        const T *u =
                            links[k] + 2 * ((s0 + j - lane) * 9 + lane);
                        for (int i = 0; i < m; i++)
                            for (int e = 0; e < 9; e++) {
                                vbuf[e][2 * (j + i)] = u[2 * (e * llanes + i)];
                                vbuf[e][2 * (j + i) + 1] =
                                    u[2 * (e * llanes + i) + 1];
                            }
                        j += m;
                    }
                }
#undef COPY_RUNS
            }
            /* w[s][a] = ((0 + V[a][0] h[s][0]) + V[a][1] h[s][1])
             *           + V[a][2] h[s][2] */
            for (int a = 0; a < 3; a++)
                for (int s = 0; s < 2; s++) {
                    T *outr = wr[3 * s + a], *outi = wi[3 * s + a];
                    for (int b = 0; b < 3; b++) {
                        const T *v = V + 2 * (3 * a + b) * vs;
                        const T *xr = hr[3 * s + b], *xi = hi[3 * s + b];
                        for (int j = 0; j < n; j++) {
                            T tr = MUL_RE(v[2 * j], v[2 * j + 1], xr[j], xi[j]);
                            T ti = MUL_IM(v[2 * j], v[2 * j + 1], xr[j], xi[j]);
                            outr[j] = (b == 0 ? (T)0 : outr[j]) + tr;
                            outi[j] = (b == 0 ? (T)0 : outi[j]) + ti;
                        }
                    }
                }
            /* acc += the spinor rebuilt from w */
            for (int c = 0; c < 3; c++) {
                T *a0r = ar[c], *a0i = ai[c], *a1r = ar[3 + c], *a1i = ai[3 + c],
                  *a2r = ar[6 + c], *a2i = ai[6 + c], *a3r = ar[9 + c],
                  *a3i = ai[9 + c];
                const T *w0r = wr[c], *w0i = wi[c], *w1r = wr[3 + c],
                        *w1i = wi[3 + c];
                PM(a0r, a0i, a0r, a0i, w0r, w0i, 1)
                PM(a1r, a1i, a1r, a1i, w1r, w1i, 1)
                switch (mu) {
                case 0: /* acc2 += w1 f ; acc3 += w0 f, f = -i on +mu, +i on -mu */
                    if (fwd) {
                        PM_MUL(a2r, a2i, a2r, a2i, w1r, w1i, -0.0, -1.0, 1)
                        PM_MUL(a3r, a3i, a3r, a3i, w0r, w0i, -0.0, -1.0, 1)
                    } else {
                        PM_MUL(a2r, a2i, a2r, a2i, w1r, w1i, 0.0, 1.0, 1)
                        PM_MUL(a3r, a3i, a3r, a3i, w0r, w0i, 0.0, 1.0, 1)
                    }
                    break;
                case 1: /* acc2 +- w1 ; acc3 -+ w0 */
                    PM(a2r, a2i, a2r, a2i, w1r, w1i, fwd)
                    PM(a3r, a3i, a3r, a3i, w0r, w0i, !fwd)
                    break;
                case 2: /* acc2 += w0 (-+i) ; acc3 += w1 (+-i) */
                    if (fwd) {
                        PM_MUL(a2r, a2i, a2r, a2i, w0r, w0i, -0.0, -1.0, 1)
                        PM_MUL(a3r, a3i, a3r, a3i, w1r, w1i, 0.0, 1.0, 1)
                    } else {
                        PM_MUL(a2r, a2i, a2r, a2i, w0r, w0i, 0.0, 1.0, 1)
                        PM_MUL(a3r, a3i, a3r, a3i, w1r, w1i, -0.0, -1.0, 1)
                    }
                    break;
                default: /* acc2 +- w0 ; acc3 +- w1 */
                    PM(a2r, a2i, a2r, a2i, w0r, w0i, fwd)
                    PM(a3r, a3i, a3r, a3i, w1r, w1i, fwd)
                }
            }
        }
        /* The store's steps 1 and 2: a * (-1/2), then (store = 2) a * rd. */
        for (int step = 0; step < store; step++) {
            const T c = step == 0 ? half : rd;
            for (int r = 0; r < 12; r++)
                for (int j = 0; j < n; j++) {
                    const T tr = MUL_RE(ar[r][j], ai[r][j], c, (T)0);
                    const T ti = MUL_IM(ar[r][j], ai[r][j], c, (T)0);
                    ar[r][j] = tr;
                    ai[r][j] = ti;
                }
        }
        /* Store in runs of sites that share an outer site: one
         * division per run, each row a contiguous stretch. */
        for (int j = 0; j < n;) {
            const int64_t lane = (s0 + j) % lanes;
            const int m = (int)(lanes - lane < n - j ? lanes - lane : n - j);
            const int64_t at = 2 * ((s0 + j - lane) * 12 + lane);
            T *o = out + at;
            if (store == 2) {
                /* step 3: a = (psi * d) - a, psi's rows split first */
                const T *x = psi + at;
                for (int r = 0; r < 12; r++, x += 2 * lanes) {
                    T qr[SB], qi[SB];
                    for (int i = 0; i < m; i++) {
                        qr[i] = x[2 * i];
                        qi[i] = x[2 * i + 1];
                    }
                    for (int i = 0; i < m; i++) {
                        const T tr = MUL_RE(qr[i], qi[i], d, (T)0);
                        const T ti = MUL_IM(qr[i], qi[i], d, (T)0);
                        ar[r][j + i] = tr - ar[r][j + i];
                        ai[r][j + i] = ti - ai[r][j + i];
                    }
                }
            }
            for (int r = 0; r < 12; r++, o += 2 * lanes)
                for (int i = 0; i < m; i++) {
                    o[2 * i] = ar[r][j + i];
                    o[2 * i + 1] = ai[r][j + i];
                }
            j += m;
        }
    }
}

#undef MUL_RE
#undef MUL_IM
#undef ROWS
#undef PM_MUL
#undef PM

#endif /* HOP_CB_BODY */
