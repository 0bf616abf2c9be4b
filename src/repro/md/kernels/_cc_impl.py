"""C-compiler provider for the ``compiled`` kernel backend.

The ``compiled`` backend's only native provider: it delivers
native-code speed anywhere a C compiler is on ``PATH``.  This module
carries a single self-contained C translation unit implementing the
Pair/Neigh hot loops — scatters, pair-force accumulation, pair
geometry, the link-cell neighbor build and the fused Tersoff pass —
builds it once into a cached shared object with
strict IEEE flags, and binds it via the stdlib ``ctypes`` — no
third-party build dependency at all.

Numerical contract (pinned by the backend smoke test and the oracle
tests):

* Minimum image uses the exact ``dr -= rint(dr / L) * L`` sequence of
  ``Box.minimum_image`` (round-half-even ``rint``), per periodic dim.
* Squared distances replicate ``np.einsum("ij,ij->i")``'s pairwise
  summation order — ``(xx + zz) + yy`` for float64 and
  ``(xx + yy) + zz`` for float32 — so the surviving pair set and the
  per-pair ``dr``/``r`` values match the numpy backends *bitwise*.
* The scatter loops accumulate in input order, which is bitwise
  identical to ``np.bincount`` when the destination rows start at
  zero; mixed-precision variants widen each float32 term to float64
  before adding, exactly as bincount's float64 accumulator does.
* Compilation uses ``-fno-fast-math -ffp-contract=off`` so the
  compiler can neither reassociate sums nor contract multiply-adds
  into FMAs — either would silently break the bitwise contract.
* The Tersoff pass is the one parity-level (not bitwise) kernel: it
  keeps the numpy path's operand order and sums zeta in row order, but
  libm ``exp``/``pow`` may differ from numpy's SIMD versions by an ulp.
  It matches the numpy path within 1e-12, which the smoke test checks.

The build cache defaults to a ``.cc_cache`` directory next to this
file (overridable via ``$REPRO_COMPILED_CACHE``), keyed by a hash of
the source and flags, and populated through an atomic rename so
concurrent worker processes never observe a half-written library.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

import numpy as np
from numpy.ctypeslib import ndpointer

__all__ = ["make_provider", "CACHE_ENV_VAR"]

#: Environment override for the shared-object build cache directory.
CACHE_ENV_VAR = "REPRO_COMPILED_CACHE"

#: IEEE-strict flags: no value-changing optimizations, no FMA
#: contraction.  Reordering either sum would break bitwise parity with
#: the numpy backends.
_CFLAGS = ("-O3", "-fno-fast-math", "-ffp-contract=off", "-shared", "-fPIC")

_SOURCE = r"""
#include <math.h>
#include <stdint.h>
#include <stdlib.h>

/* ------------------------------------------------------------------ */
/* Scatter primitives: out[idx[k]] += v[k] in input order.             */
/* Input-order serial accumulation is bitwise-identical to             */
/* np.bincount whenever the destination starts at zero; the mixed      */
/* (f32 values -> f64 out) variants widen each term first, matching    */
/* bincount's always-float64 accumulator.                              */
/* ------------------------------------------------------------------ */

void scatter1_f64(double *out, const int64_t *idx, const double *v, int64_t m) {
    for (int64_t k = 0; k < m; k++) out[idx[k]] += v[k];
}

void scatter1_f32(float *out, const int64_t *idx, const float *v, int64_t m) {
    for (int64_t k = 0; k < m; k++) out[idx[k]] += v[k];
}

void scatter1_f32f64(double *out, const int64_t *idx, const float *v, int64_t m) {
    for (int64_t k = 0; k < m; k++) out[idx[k]] += (double)v[k];
}

void scatter3_f64(double *out, const int64_t *idx, const double *v, int64_t m) {
    for (int64_t k = 0; k < m; k++) {
        int64_t a = idx[k];
        out[3*a]   += v[3*k];
        out[3*a+1] += v[3*k+1];
        out[3*a+2] += v[3*k+2];
    }
}

void scatter3_f32(float *out, const int64_t *idx, const float *v, int64_t m) {
    for (int64_t k = 0; k < m; k++) {
        int64_t a = idx[k];
        out[3*a]   += v[3*k];
        out[3*a+1] += v[3*k+1];
        out[3*a+2] += v[3*k+2];
    }
}

void scatter3_f32f64(double *out, const int64_t *idx, const float *v, int64_t m) {
    for (int64_t k = 0; k < m; k++) {
        int64_t a = idx[k];
        out[3*a]   += (double)v[3*k];
        out[3*a+1] += (double)v[3*k+1];
        out[3*a+2] += (double)v[3*k+2];
    }
}

/* ------------------------------------------------------------------ */
/* Pair-force accumulation.                                            */
/* Fused half-list scatter: one pass over the CSR-ordered pair list;   */
/* the i side is segment-accumulated in registers while consecutive    */
/* rows share the same i (the list's native layout), the j side is     */
/* scattered inline.  Correct for any row order — unsorted i just      */
/* degenerates to length-1 segments.                                   */
/* ------------------------------------------------------------------ */

void acc_scaled_f64(double *forces, const int64_t *pi, const int64_t *pj,
                    int64_t m, const double *dr, const double *f_over_r) {
    int64_t k = 0;
    while (k < m) {
        int64_t a = pi[k];
        double sx = 0.0, sy = 0.0, sz = 0.0;
        do {
            double f = f_over_r[k];
            double wx = f * dr[3*k], wy = f * dr[3*k+1], wz = f * dr[3*k+2];
            sx += wx; sy += wy; sz += wz;
            int64_t b = pj[k];
            forces[3*b] -= wx; forces[3*b+1] -= wy; forces[3*b+2] -= wz;
            k++;
        } while (k < m && pi[k] == a);
        forces[3*a] += sx; forces[3*a+1] += sy; forces[3*a+2] += sz;
    }
}

void acc_scaled_f32(float *forces, const int64_t *pi, const int64_t *pj,
                    int64_t m, const float *dr, const float *f_over_r) {
    int64_t k = 0;
    while (k < m) {
        int64_t a = pi[k];
        float sx = 0.0f, sy = 0.0f, sz = 0.0f;
        do {
            float f = f_over_r[k];
            float wx = f * dr[3*k], wy = f * dr[3*k+1], wz = f * dr[3*k+2];
            sx += wx; sy += wy; sz += wz;
            int64_t b = pj[k];
            forces[3*b] -= wx; forces[3*b+1] -= wy; forces[3*b+2] -= wz;
            k++;
        } while (k < m && pi[k] == a);
        forces[3*a] += sx; forces[3*a+1] += sy; forces[3*a+2] += sz;
    }
}

/* MIXED policy: float32 per-pair products, float64 accumulation. */
void acc_scaled_f32f64(double *forces, const int64_t *pi, const int64_t *pj,
                       int64_t m, const float *dr, const float *f_over_r) {
    int64_t k = 0;
    while (k < m) {
        int64_t a = pi[k];
        double sx = 0.0, sy = 0.0, sz = 0.0;
        do {
            float f = f_over_r[k];
            float wx = f * dr[3*k], wy = f * dr[3*k+1], wz = f * dr[3*k+2];
            sx += (double)wx; sy += (double)wy; sz += (double)wz;
            int64_t b = pj[k];
            forces[3*b] -= (double)wx;
            forces[3*b+1] -= (double)wy;
            forces[3*b+2] -= (double)wz;
            k++;
        } while (k < m && pi[k] == a);
        forces[3*a] += sx; forces[3*a+1] += sy; forces[3*a+2] += sz;
    }
}

void acc_pair_f64(double *forces, const int64_t *pi, const int64_t *pj,
                  int64_t m, const double *fv) {
    int64_t k = 0;
    while (k < m) {
        int64_t a = pi[k];
        double sx = 0.0, sy = 0.0, sz = 0.0;
        do {
            double wx = fv[3*k], wy = fv[3*k+1], wz = fv[3*k+2];
            sx += wx; sy += wy; sz += wz;
            int64_t b = pj[k];
            forces[3*b] -= wx; forces[3*b+1] -= wy; forces[3*b+2] -= wz;
            k++;
        } while (k < m && pi[k] == a);
        forces[3*a] += sx; forces[3*a+1] += sy; forces[3*a+2] += sz;
    }
}

void acc_pair_f32(float *forces, const int64_t *pi, const int64_t *pj,
                  int64_t m, const float *fv) {
    int64_t k = 0;
    while (k < m) {
        int64_t a = pi[k];
        float sx = 0.0f, sy = 0.0f, sz = 0.0f;
        do {
            float wx = fv[3*k], wy = fv[3*k+1], wz = fv[3*k+2];
            sx += wx; sy += wy; sz += wz;
            int64_t b = pj[k];
            forces[3*b] -= wx; forces[3*b+1] -= wy; forces[3*b+2] -= wz;
            k++;
        } while (k < m && pi[k] == a);
        forces[3*a] += sx; forces[3*a+1] += sy; forces[3*a+2] += sz;
    }
}

void acc_pair_f32f64(double *forces, const int64_t *pi, const int64_t *pj,
                     int64_t m, const float *fv) {
    int64_t k = 0;
    while (k < m) {
        int64_t a = pi[k];
        double sx = 0.0, sy = 0.0, sz = 0.0;
        do {
            float wx = fv[3*k], wy = fv[3*k+1], wz = fv[3*k+2];
            sx += (double)wx; sy += (double)wy; sz += (double)wz;
            int64_t b = pj[k];
            forces[3*b] -= (double)wx;
            forces[3*b+1] -= (double)wy;
            forces[3*b+2] -= (double)wz;
            k++;
        } while (k < m && pi[k] == a);
        forces[3*a] += sx; forces[3*a+1] += sy; forces[3*a+2] += sz;
    }
}

/* ------------------------------------------------------------------ */
/* Pair geometry over the stored list: gather, minimum image, cutoff   */
/* filter.  Outputs are compressed in place; returns the survivor      */
/* count.  r2 replicates einsum's per-dtype summation order.           */
/* ------------------------------------------------------------------ */

int64_t pair_geom_f64(const double *pos, const int64_t *pi, const int64_t *pj,
                      int64_t m, const double *lengths, const uint8_t *periodic,
                      double rc2, int64_t *oi, int64_t *oj,
                      double *odr, double *orr) {
    double Lx = lengths[0], Ly = lengths[1], Lz = lengths[2];
    int px = periodic[0], py = periodic[1], pz = periodic[2];
    int64_t c = 0;
    for (int64_t k = 0; k < m; k++) {
        const double *a = pos + 3*pi[k];
        const double *b = pos + 3*pj[k];
        double dx = a[0] - b[0], dy = a[1] - b[1], dz = a[2] - b[2];
        if (px) dx -= rint(dx / Lx) * Lx;
        if (py) dy -= rint(dy / Ly) * Ly;
        if (pz) dz -= rint(dz / Lz) * Lz;
        double r2 = (dx*dx + dz*dz) + dy*dy;   /* einsum f64 order */
        if (r2 < rc2) {
            oi[c] = pi[k]; oj[c] = pj[k];
            odr[3*c] = dx; odr[3*c+1] = dy; odr[3*c+2] = dz;
            orr[c] = sqrt(r2);
            c++;
        }
    }
    return c;
}

int64_t pair_geom_f32(const float *pos, const int64_t *pi, const int64_t *pj,
                      int64_t m, const float *lengths, const uint8_t *periodic,
                      float rc2, int64_t *oi, int64_t *oj,
                      float *odr, float *orr) {
    float Lx = lengths[0], Ly = lengths[1], Lz = lengths[2];
    int px = periodic[0], py = periodic[1], pz = periodic[2];
    int64_t c = 0;
    for (int64_t k = 0; k < m; k++) {
        const float *a = pos + 3*pi[k];
        const float *b = pos + 3*pj[k];
        float dx = a[0] - b[0], dy = a[1] - b[1], dz = a[2] - b[2];
        if (px) dx -= rintf(dx / Lx) * Lx;
        if (py) dy -= rintf(dy / Ly) * Ly;
        if (pz) dz -= rintf(dz / Lz) * Lz;
        float r2 = (dx*dx + dy*dy) + dz*dz;    /* einsum f32 order */
        if (r2 < rc2) {
            oi[c] = pi[k]; oj[c] = pj[k];
            odr[3*c] = dx; odr[3*c+1] = dy; odr[3*c+2] = dz;
            orr[c] = sqrtf(r2);
            c++;
        }
    }
    return c;
}

/* ------------------------------------------------------------------ */
/* Link-cell half pair list.  Replicates cell_list_half_pairs in       */
/* repro.md.neighbor exactly: clamped binning, stable counting sort    */
/* (== argsort kind="stable"), triangular intra-cell pairs in sorted   */
/* slot order, the 13-offset forward stencil with Python-modulo        */
/* wrapping on periodic dims, and the same minimum-image/cutoff math   */
/* as pair_geom_f64 — so the emitted pair *set* and orientations match */
/* the numpy build and the caller's CSR lexsort yields identical       */
/* neighbor lists.  Writes at most `cap` pairs but keeps counting;     */
/* the caller grows its buffers and reruns when count > cap.           */
/* Returns -1 on allocation failure.                                   */
/* ------------------------------------------------------------------ */

static inline int64_t wrap_mod(int64_t x, int64_t n) {
    int64_t r = x % n;
    return r < 0 ? r + n : r;
}

int64_t cell_pairs_f64(const double *pos, int64_t n, const double *lengths,
                       const double *origin, const uint8_t *periodic, double rc,
                       int64_t *oi, int64_t *oj, int64_t cap) {
    int64_t n_cells[3];
    double cell_size[3];
    for (int d = 0; d < 3; d++) {
        int64_t nc = (int64_t)floor(lengths[d] / rc);
        n_cells[d] = nc < 1 ? 1 : nc;
        cell_size[d] = lengths[d] / (double)n_cells[d];
    }
    int64_t sy = n_cells[2], sx = n_cells[1] * n_cells[2];
    int64_t total_cells = n_cells[0] * n_cells[1] * n_cells[2];
    int64_t *coords = malloc((size_t)n * 3 * sizeof(int64_t));
    int64_t *flat = malloc((size_t)n * sizeof(int64_t));
    int64_t *counts = calloc((size_t)total_cells, sizeof(int64_t));
    int64_t *starts = malloc(((size_t)total_cells + 1) * sizeof(int64_t));
    int64_t *fill = malloc((size_t)total_cells * sizeof(int64_t));
    int64_t *order = malloc((size_t)n * sizeof(int64_t));
    if (!coords || !flat || !counts || !starts || !fill || !order) {
        free(coords); free(flat); free(counts);
        free(starts); free(fill); free(order);
        return -1;
    }
    for (int64_t a = 0; a < n; a++) {
        for (int d = 0; d < 3; d++) {
            int64_t c = (int64_t)floor((pos[3*a+d] - origin[d]) / cell_size[d]);
            if (c > n_cells[d] - 1) c = n_cells[d] - 1;
            if (c < 0) c = 0;
            coords[3*a+d] = c;
        }
        flat[a] = coords[3*a] * sx + coords[3*a+1] * sy + coords[3*a+2];
        counts[flat[a]]++;
    }
    starts[0] = 0;
    for (int64_t c = 0; c < total_cells; c++) starts[c+1] = starts[c] + counts[c];
    for (int64_t c = 0; c < total_cells; c++) fill[c] = starts[c];
    for (int64_t a = 0; a < n; a++) order[fill[flat[a]]++] = a;  /* stable */

    int px = periodic[0], py = periodic[1], pz = periodic[2];
    int any_periodic = px || py || pz;
    double Lx = lengths[0], Ly = lengths[1], Lz = lengths[2];
    double rc2 = rc * rc;
    int64_t count = 0;

    /* The 13 forward offsets of _HALF_STENCIL, in its order. */
    static const int off[13][3] = {
        {0,0,1}, {0,1,-1}, {0,1,0}, {0,1,1},
        {1,-1,-1}, {1,-1,0}, {1,-1,1}, {1,0,-1}, {1,0,0}, {1,0,1},
        {1,1,-1}, {1,1,0}, {1,1,1},
    };

#define EMIT(A, B)                                                         \
    do {                                                                   \
        double dx = pos[3*(A)] - pos[3*(B)];                               \
        double dy = pos[3*(A)+1] - pos[3*(B)+1];                           \
        double dz = pos[3*(A)+2] - pos[3*(B)+2];                           \
        if (any_periodic) {                                                \
            if (px) dx -= rint(dx / Lx) * Lx;                              \
            if (py) dy -= rint(dy / Ly) * Ly;                              \
            if (pz) dz -= rint(dz / Lz) * Lz;                              \
        }                                                                  \
        double r2 = (dx*dx + dz*dz) + dy*dy;                               \
        if (r2 < rc2) {                                                    \
            if (count < cap) { oi[count] = (A); oj[count] = (B); }         \
            count++;                                                       \
        }                                                                  \
    } while (0)

    /* Intra-cell triangular pairs over the stable sorted order. */
    for (int64_t c = 0; c < total_cells; c++) {
        int64_t s = starts[c], e = starts[c+1];
        for (int64_t k = s; k < e; k++) {
            int64_t a = order[k];
            for (int64_t l = k + 1; l < e; l++) EMIT(a, order[l]);
        }
    }
    /* Inter-cell pairs: each atom against the full population of its
       13 forward neighbor cells. */
    for (int64_t a = 0; a < n; a++) {
        int64_t cx = coords[3*a], cy = coords[3*a+1], cz = coords[3*a+2];
        for (int s = 0; s < 13; s++) {
            int64_t nx = cx + off[s][0];
            int64_t ny = cy + off[s][1];
            int64_t nz = cz + off[s][2];
            if (px) nx = wrap_mod(nx, n_cells[0]);
            else if (nx < 0 || nx >= n_cells[0]) continue;
            if (py) ny = wrap_mod(ny, n_cells[1]);
            else if (ny < 0 || ny >= n_cells[1]) continue;
            if (pz) nz = wrap_mod(nz, n_cells[2]);
            else if (nz < 0 || nz >= n_cells[2]) continue;
            int64_t c = nx * sx + ny * sy + nz;
            int64_t s0 = starts[c], e0 = starts[c+1];
            for (int64_t l = s0; l < e0; l++) EMIT(a, order[l]);
        }
    }
#undef EMIT
    free(coords); free(flat); free(counts);
    free(starts); free(fill); free(order);
    return count;
}

/* ------------------------------------------------------------------ */
/* Tersoff bond-order forces over CSR-ordered directed pairs.          */
/* One pass per row (the run of pairs sharing head atom a): per-pair   */
/* cutoff/radial terms once, then zeta_p summed over q != p in row     */
/* order (the numpy path's scatter order) while each triplet's cos,    */
/* g, dg, exp and d(exp) are cached in row scratch, then b/db, the     */
/* radial force and the three angular force channels straight into    */
/* `forces`.  Expressions keep the operand order of Tersoff.compute's  */
/* numpy path, except that db reuses b ((1+bz)^(-1/2n-1) ==            */
/* b/(1+bz), one pow fewer per pair); that and libm exp/pow/sin/cos    */
/* differing from numpy's by an ulp make the result match at parity,  */
/* not bitwise.  Row scratch is sized from the longest row.            */
/* prm is packed by _tersoff_vector (below, in Python):                */
/*   0 A  1 -B  2 -lambda1  3 -lambda2  4 lambda3^m  5 m  6 (m == 3)   */
/*   7 beta  8 n  9 -0.5/n  10 h  11 gamma  12 c^2  13 d^2             */
/*  14 -2 gamma c^2  15 R  16 D  17 pi/2  18 -pi/(4D)                  */
/* Energy and virial are summed per row, then across rows with         */
/* Neumaier compensation (numpy's np.sum is pairwise; a plain running  */
/* sum would drift ~1e-13 relative at 4k atoms).  out receives         */
/* (energy, virial).  Returns 0, or -1 on allocation failure before    */
/* `forces` is touched.                                                */
/* ------------------------------------------------------------------ */

static inline void neumaier_add(double *sum, double *comp, double x) {
    double t = *sum + x;
    if (fabs(*sum) >= fabs(x)) *comp += (*sum - t) + x;
    else *comp += (x - t) + *sum;
    *sum = t;
}

int64_t tersoff_f64(double *forces, const int64_t *pi, const int64_t *pj,
                    int64_t m, const double *dr, const double *r,
                    const double *prm, double *out) {
    const double A = prm[0], negB = prm[1], negl1 = prm[2], negl2 = prm[3];
    const double lam3m = prm[4], mm = prm[5];
    const int cubic = prm[6] != 0.0;
    const double beta = prm[7], n = prm[8], eb = prm[9];
    const double h = prm[10], gamma = prm[11], c2 = prm[12], d2 = prm[13];
    const double dg_pref = prm[14];
    const double R = prm[15], D = prm[16], half_pi = prm[17];
    const double dfc_pref = prm[18];

    size_t lmax = 1;
    for (int64_t k = 0; k < m;) {
        int64_t s = k;
        while (k < m && pi[k] == pi[s]) k++;
        if ((size_t)(k - s) > lmax) lmax = (size_t)(k - s);
    }
    /* Per pair: fc dfc fr dfr fa dfa 1/r e(3) zeta; per triplet: cos g dg
       exp dexp. */
    double *pw = malloc(lmax * 11 * sizeof(double));
    double *tw = malloc(lmax * lmax * 5 * sizeof(double));
    if (!pw || !tw) { free(pw); free(tw); return -1; }
    double *fc = pw, *dfc = pw + lmax, *fr = pw + 2*lmax, *dfr = pw + 3*lmax;
    double *fa = pw + 4*lmax, *dfa = pw + 5*lmax, *inv = pw + 6*lmax;
    double *e = pw + 7*lmax, *zeta = pw + 10*lmax;

    /* Totals and their compensations: energy, pair virial, r_p and r_q
       channel virials. */
    double tot[4] = {0.0, 0.0, 0.0, 0.0}, comp[4] = {0.0, 0.0, 0.0, 0.0};
    int64_t k = 0;
    while (k < m) {
        const int64_t s = k, a = pi[k];
        while (k < m && pi[k] == a) k++;
        const int64_t L = k - s;
        const double *drs = dr + 3*s, *rs = r + s;
        const int64_t *js = pj + s;

        for (int64_t p = 0; p < L; p++) {
            double rr = rs[p];
            double x = (rr - R) / D;
            double xc = x < -1.0 ? -1.0 : (x > 1.0 ? 1.0 : x);
            if (x <= -1.0) { fc[p] = 1.0; dfc[p] = 0.0; }
            else if (x >= 1.0) { fc[p] = 0.0; dfc[p] = 0.0; }
            else {
                fc[p] = 0.5 - 0.5 * sin(half_pi * xc);
                dfc[p] = dfc_pref * cos(half_pi * xc);
            }
            fr[p] = A * exp(negl1 * rr);
            dfr[p] = negl1 * fr[p];
            fa[p] = negB * exp(negl2 * rr);
            dfa[p] = negl2 * fa[p];
            inv[p] = 1.0 / rr;
            e[3*p] = -drs[3*p] * inv[p];
            e[3*p+1] = -drs[3*p+1] * inv[p];
            e[3*p+2] = -drs[3*p+2] * inv[p];
        }

        for (int64_t p = 0; p < L; p++) {
            const double *dp = drs + 3*p;
            double z = 0.0;
            for (int64_t q = 0; q < L; q++) {
                if (q == p) continue;
                const double *dq = drs + 3*q;
                double *t = tw + 5*(p*L + q);
                double dot = (dp[0]*dq[0] + dp[2]*dq[2]) + dp[1]*dq[1];
                double cs = dot * inv[p] * inv[q];
                double u = h - cs;
                double den = d2 + u*u;
                double g = gamma * (1.0 + c2 * u * u / (d2 * den));
                double diff = rs[p] - rs[q];
                double ex, dex;
                if (cubic) {
                    ex = exp(lam3m * diff * diff * diff);
                    dex = 3.0 * lam3m * diff * diff * ex;
                } else {
                    ex = exp(lam3m * pow(diff, mm));
                    dex = mm * lam3m * pow(diff, mm - 1.0) * ex;
                }
                t[0] = cs; t[1] = g; t[2] = dg_pref * u / (den * den);
                t[3] = ex; t[4] = dex;
                z += fc[q] * g * ex;
            }
            zeta[p] = z;
        }

        double ax = 0.0, ay = 0.0, az = 0.0;
        double energy = 0.0, vir_pair = 0.0, vir_p = 0.0, vir_q = 0.0;
        for (int64_t p = 0; p < L; p++) {
            double z = zeta[p], b = 1.0, db = 0.0;
            if (z > 0.0) {
                double bz = pow(beta * z, n);
                b = pow(1.0 + bz, eb);
                db = -0.5 * bz / z * (b / (1.0 + bz));
            }
            double bond = fr[p] + b * fa[p];
            energy += 0.5 * fc[p] * bond;
            double w = 0.5 * (dfc[p] * bond + fc[p] * (dfr[p] + b * dfa[p]));
            double f = -w * inv[p];
            vir_pair += f * rs[p] * rs[p];
            const double *dp = drs + 3*p;
            double wx = f * dp[0], wy = f * dp[1], wz = f * dp[2];
            ax += wx; ay += wy; az += wz;
            double *fj = forces + 3*js[p];
            fj[0] -= wx; fj[1] -= wy; fj[2] -= wz;

            double dEz = 0.5 * fc[p] * fa[p] * db;
            const double *e1 = e + 3*p;
            for (int64_t q = 0; q < L; q++) {
                if (q == p) continue;
                const double *t = tw + 5*(p*L + q);
                const double *e2 = e + 3*q;
                double cs = t[0], g = t[1], dg = t[2], ex = t[3], dex = t[4];
                double gq = fc[q] * g;
                double c1 = dEz * (fc[q] * g * dex);
                double c2q = dEz * (dfc[q] * g * ex - gq * dex);
                double s3 = dEz * (fc[q] * dg * ex);
                double s1x = c1 * e1[0], s1y = c1 * e1[1], s1z = c1 * e1[2];
                double s2x = c2q * e2[0], s2y = c2q * e2[1], s2z = c2q * e2[2];
                double jx = -(s1x + s3 * ((e2[0] - cs * e1[0]) * inv[p]));
                double jy = -(s1y + s3 * ((e2[1] - cs * e1[1]) * inv[p]));
                double jz = -(s1z + s3 * ((e2[2] - cs * e1[2]) * inv[p]));
                double kx = -(s2x + s3 * ((e1[0] - cs * e2[0]) * inv[q]));
                double ky = -(s2y + s3 * ((e1[1] - cs * e2[1]) * inv[q]));
                double kz = -(s2z + s3 * ((e1[2] - cs * e2[2]) * inv[q]));
                fj[0] += jx; fj[1] += jy; fj[2] += jz;
                double *fk = forces + 3*js[q];
                fk[0] += kx; fk[1] += ky; fk[2] += kz;
                ax -= jx + kx; ay -= jy + ky; az -= jz + kz;
                vir_p += ((s1x*e1[0] + s1z*e1[2]) + s1y*e1[1]) * rs[p];
                vir_q += ((s2x*e2[0] + s2z*e2[2]) + s2y*e2[1]) * rs[q];
            }
        }
        forces[3*a] += ax; forces[3*a+1] += ay; forces[3*a+2] += az;
        neumaier_add(&tot[0], &comp[0], energy);
        neumaier_add(&tot[1], &comp[1], vir_pair);
        neumaier_add(&tot[2], &comp[2], vir_p);
        neumaier_add(&tot[3], &comp[3], vir_q);
    }
    free(pw); free(tw);
    out[0] = tot[0] + comp[0];
    out[1] = ((tot[1] + comp[1]) - (tot[2] + comp[2])) - (tot[3] + comp[3]);
    return 0;
}
"""


def _tersoff_vector(p) -> np.ndarray:
    """Pack ``TersoffParameters`` into ``tersoff_f64``'s ``prm`` slots.

    Derived constants are spelled exactly as ``Tersoff``'s numpy path
    spells them, so both paths multiply by bitwise-identical values.
    """
    return np.array(
        [
            p.A,
            -p.B,
            -p.lambda1,
            -p.lambda2,
            p.lambda3**p.m,
            p.m,
            1.0 if p.m == 3 else 0.0,
            p.beta,
            p.n,
            -0.5 / p.n,
            p.h,
            p.gamma,
            p.c * p.c,
            p.d * p.d,
            -2.0 * p.gamma * p.c * p.c,
            p.R,
            p.D,
            0.5 * np.pi,
            -0.25 * np.pi / p.D,
        ],
        dtype=np.float64,
    )


def _find_compiler() -> str | None:
    for cc in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if cc and shutil.which(cc):
            return cc
    return None


def _cache_dir() -> Path:
    """First writable cache location: env override, in-tree, tempdir."""
    override = os.environ.get(CACHE_ENV_VAR)
    candidates = (
        [Path(override)]
        if override
        else [
            Path(__file__).resolve().parent / ".cc_cache",
            Path(tempfile.gettempdir()) / f"repro-cc-cache-{os.getuid()}",
        ]
    )
    last_error: Exception | None = None
    for cand in candidates:
        try:
            cand.mkdir(parents=True, exist_ok=True)
            if os.access(cand, os.W_OK):
                return cand
        except OSError as exc:  # pragma: no cover - depends on fs perms
            last_error = exc
    raise RuntimeError(f"no writable compile-cache directory: {last_error}")


def _build_library() -> tuple[ctypes.CDLL, str]:
    """Compile (or reuse) the shared object; returns (lib, compiler id)."""
    cc = _find_compiler()
    if cc is None:
        raise RuntimeError("no C compiler (cc/gcc/clang) found on PATH")
    key_material = "\x00".join([_SOURCE, cc, *_CFLAGS])
    key = hashlib.sha256(key_material.encode()).hexdigest()[:16]
    cache = _cache_dir()
    so_path = cache / f"repro_kernels_{key}.so"
    if not so_path.exists():
        # Build under a unique name, publish with an atomic rename:
        # concurrent processes either see the finished library or none.
        with tempfile.TemporaryDirectory(dir=cache) as workdir:
            src = Path(workdir) / "kernels.c"
            src.write_text(_SOURCE)
            tmp_so = Path(workdir) / "kernels.so"
            proc = subprocess.run(
                [cc, *_CFLAGS, "-o", str(tmp_so), str(src), "-lm"],
                capture_output=True,
                text=True,
            )
            if proc.returncode != 0:
                raise RuntimeError(
                    f"{cc} failed (exit {proc.returncode}): "
                    f"{proc.stderr.strip()[:500]}"
                )
            os.replace(tmp_so, so_path)
    return ctypes.CDLL(str(so_path)), cc


def _ptr(dtype, writeable=False):
    flags = "C_CONTIGUOUS,WRITEABLE" if writeable else "C_CONTIGUOUS"
    return ndpointer(dtype=dtype, flags=flags)


class CcProvider:
    """ctypes bindings over the cached shared object.

    All entry points require C-contiguous arrays of the exact dtypes in
    their signatures; :class:`~repro.md.kernels.compiled.CompiledBackend`
    guarantees that before dispatching here.
    """

    kind = "cc"

    def __init__(self) -> None:
        lib, cc = _build_library()
        self._lib = lib
        try:
            banner = subprocess.run(
                [cc, "--version"], capture_output=True, text=True, timeout=10
            ).stdout.splitlines()
            self.version = banner[0].strip() if banner else cc
        except Exception:  # pragma: no cover - cosmetic only
            self.version = cc
        i64, f64, f32, u8 = np.int64, np.float64, np.float32, np.uint8
        c_i64, c_f64, c_f32 = ctypes.c_int64, ctypes.c_double, ctypes.c_float

        def bind(name, restype, argtypes):
            fn = getattr(lib, name)
            fn.restype = restype
            fn.argtypes = argtypes
            return fn

        self._scatter1 = {
            (f64, f64): bind(
                "scatter1_f64", None, [_ptr(f64, True), _ptr(i64), _ptr(f64), c_i64]
            ),
            (f32, f32): bind(
                "scatter1_f32", None, [_ptr(f32, True), _ptr(i64), _ptr(f32), c_i64]
            ),
            (f64, f32): bind(
                "scatter1_f32f64", None, [_ptr(f64, True), _ptr(i64), _ptr(f32), c_i64]
            ),
        }
        self._scatter3 = {
            (f64, f64): bind(
                "scatter3_f64", None, [_ptr(f64, True), _ptr(i64), _ptr(f64), c_i64]
            ),
            (f32, f32): bind(
                "scatter3_f32", None, [_ptr(f32, True), _ptr(i64), _ptr(f32), c_i64]
            ),
            (f64, f32): bind(
                "scatter3_f32f64", None, [_ptr(f64, True), _ptr(i64), _ptr(f32), c_i64]
            ),
        }
        acc_args = lambda ft, vt: [  # noqa: E731 - local signature helper
            _ptr(ft, True), _ptr(i64), _ptr(i64), c_i64, _ptr(vt), _ptr(vt)
        ]
        self._acc_scaled = {
            (f64, f64): bind("acc_scaled_f64", None, acc_args(f64, f64)),
            (f32, f32): bind("acc_scaled_f32", None, acc_args(f32, f32)),
            (f64, f32): bind("acc_scaled_f32f64", None, acc_args(f64, f32)),
        }
        pair_args = lambda ft, vt: [  # noqa: E731
            _ptr(ft, True), _ptr(i64), _ptr(i64), c_i64, _ptr(vt)
        ]
        self._acc_pair = {
            (f64, f64): bind("acc_pair_f64", None, pair_args(f64, f64)),
            (f32, f32): bind("acc_pair_f32", None, pair_args(f32, f32)),
            (f64, f32): bind("acc_pair_f32f64", None, pair_args(f64, f32)),
        }
        geom_args = lambda ft, c_f: [  # noqa: E731
            _ptr(ft), _ptr(i64), _ptr(i64), c_i64, _ptr(ft), _ptr(u8), c_f,
            _ptr(i64, True), _ptr(i64, True), _ptr(ft, True), _ptr(ft, True),
        ]
        self._pair_geom = {
            f64: bind("pair_geom_f64", c_i64, geom_args(f64, c_f64)),
            f32: bind("pair_geom_f32", c_i64, geom_args(f32, c_f32)),
        }
        self._cell_pairs = bind(
            "cell_pairs_f64",
            c_i64,
            [
                _ptr(f64), c_i64, _ptr(f64), _ptr(f64), _ptr(u8), c_f64,
                _ptr(i64, True), _ptr(i64, True), c_i64,
            ],
        )
        self._tersoff = bind(
            "tersoff_f64",
            c_i64,
            [
                _ptr(f64, True), _ptr(i64), _ptr(i64), c_i64, _ptr(f64),
                _ptr(f64), _ptr(f64), _ptr(f64, True),
            ],
        )

    # -- provider API consumed by CompiledBackend ---------------------
    @staticmethod
    def _key(out, values):
        return (out.dtype.type, values.dtype.type)

    def supports(self, out, values) -> bool:
        return self._key(out, values) in self._scatter1

    def scatter1(self, out, idx, v) -> None:
        self._scatter1[self._key(out, v)](out, idx, v, len(idx))

    def scatter3(self, out, idx, v) -> None:
        self._scatter3[self._key(out, v)](out, idx, v, len(idx))

    def acc_scaled(self, forces, i, j, dr, f_over_r) -> None:
        self._acc_scaled[self._key(forces, f_over_r)](
            forces, i, j, len(i), dr, f_over_r
        )

    def acc_pair(self, forces, i, j, fv) -> None:
        self._acc_pair[self._key(forces, fv)](forces, i, j, len(i), fv)

    def pair_geom(self, pos, pi, pj, lengths, periodic, rc2, oi, oj, odr, orr):
        fn = self._pair_geom[pos.dtype.type]
        # The cutoff compare runs in the position dtype: numpy (NEP 50)
        # casts the weak python-float rc^2 down to float32 for float32
        # operands, so the C side receives it pre-cast via c_float.
        return int(fn(pos, pi, pj, len(pi), lengths, periodic, rc2, oi, oj, odr, orr))

    def cell_pairs(self, pos, lengths, origin, periodic, rc, oi, oj):
        return int(
            self._cell_pairs(
                pos, len(pos), lengths, origin, periodic, rc, oi, oj, len(oi)
            )
        )

    def tersoff(self, forces, i, j, dr, r, params):
        """Fused Tersoff pass over CSR-ordered pairs for the
        ``TersoffParameters`` ``params``; ``(energy, virial)`` or
        ``None`` when the row scratch cannot be allocated (``forces``
        left untouched)."""
        m = len(i)
        if not (len(j) == len(r) == m and dr.shape == (m, 3)):
            raise ValueError("tersoff: i, j, dr and r must describe the same pairs")
        out = np.empty(2)
        prm = _tersoff_vector(params)
        if self._tersoff(forces, i, j, m, dr, r, prm, out) != 0:
            return None
        return float(out[0]), float(out[1])


def make_provider() -> CcProvider:
    """Build/load the shared object and return the bound provider."""
    return CcProvider()
