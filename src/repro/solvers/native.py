"""The pressure step's sparse products as compiled lane loops, byte-equal to scipy's.

The AMG-PCG iteration is instruction-bound, so work is vectorised *across* independent items: a
one-column block runs **rows as lanes** (SELL-8: 8 rows a chunk, entries k-major, live lanes
only), a ``k > 1`` block **columns as lanes** off scipy's CSR arrays; a lane sums its row in
scipy's ``jj`` order from ``+0.0``.  A V-cycle is ``down`` and ``up`` around numpy's per-column
coarse gemv.  The source also holds CG's vector phase (:class:`~repro.solvers.cg.VectorPhase`)
and the step's derivative products (``axes``: three axes' CSR rows, one pass).  :class:`NativeCycle`
serves it after it matched the numpy form to the byte (``python -> building -> loaded -> adopted
| rejected``, a generated kernel's rule, cache and flags), else that form serves for good.
"""

from __future__ import annotations

import ctypes
import threading

import numpy as np

from ..core.native import build, load
from ..obs.metrics import get_registry
from .cg import VectorPhase

__all__ = ["NativeCycle", "SOURCE", "SYMBOLS"]

SOURCE = r"""/* generated by repro.solvers.native -- do not edit */
#ifdef __AVX512VL__
#include <immintrin.h>
#endif
typedef long long i64; typedef const double *in;
typedef struct {  /* scipy's CSR arrays, then their SELL-8 copy: rows 8c .. 8c+7 are a */
  i64 n;          /* chunk, its entries k-major, those of live lanes (len > k) only    */
  const int *ptr, *col; in val; const int *len, *scol; in sval;
} Mat;            /* every member here and below is 8 bytes: Python fills an int64 table */
typedef struct { Mat A, P, R; in w; i64 off; } Level;  /* w = omega / diag(A) */
enum { SET, ADD, RES, JAC };  /* y = s | u + s | b - s | u + w (b - s), s a row of m x */

#define INLINE static inline __attribute__((always_inline)) void
INLINE finish(int mode, i64 cnt, in s, double *y, in u, in b, in w, int ws)
{
#define FIN(e) _Pragma("omp simd") for (i64 c = 0; c < cnt; ++c) y[c] = e; break;
  switch (mode) {
  case SET: FIN(s[c]) case ADD: FIN(u[c] + s[c]) case RES: FIN(b[c] - s[c])
  default: FIN(u[c] + w[c * ws] * (b[c] - s[c]))
  }
}

static void rows(const Mat *m, in x, double *y, int mode, in u, in b, in w)
{  /* one column: a lane is a row */
  for (i64 i = 0, p = 0; i < m->n; i += 8) {
    const int *len = m->len + i;
    double s[8] = {0};
#ifdef __AVX512VL__
    const __m256i vlen = _mm256_loadu_si256((const void *)len);
    __m512d a, acc = _mm512_setzero_pd();
    __m256i col; __mmask8 on;
    for (int j = 0; (on = _mm256_cmpgt_epi32_mask(vlen, _mm256_set1_epi32(j))); ++j) {
      in v = m->sval + p; const int *ci = m->scol + p;
      if (on == 255) { a = _mm512_loadu_pd(v); col = _mm256_loadu_si256((const void *)ci); }
      else { a = _mm512_maskz_expandloadu_pd(on, v); col = _mm256_maskz_expandloadu_epi32(on, ci); }
      acc = _mm512_mask_add_pd(acc, on, acc, _mm512_mul_pd(a, _mm512_i32gather_pd(col, x, 8)));
      p += __builtin_popcount(on);
    }
    _mm512_storeu_pd(s, acc);
#else
    for (int j = 0, live = 1; live; ++j)
      for (int l = live = 0; l < 8; ++l)
        if (j < len[l]) { s[l] += m->sval[p] * x[m->scol[p]]; ++p; live = 1; }
#endif
    if (m->n - i >= 8) finish(mode, 8, s, y + i, u + i, b + i, w + i, 1);
    else finish(mode, m->n - i, s, y + i, u + i, b + i, w + i, 1);
  }
}

#define LANE(e) _Pragma("omp simd") for (int c = 0; c < W; ++c) e;
#define RUN(lo, n, e) _Pragma("omp simd") for (int c = lo; c < (lo) + (n); ++c) e;
#define LANES(e) RUN(0, W & 24, e) RUN(W & 24, W & 4, e) RUN(W & 28, W & 2, e) RUN(W & 30, W & 1, e)
#define ACC(t, j) { double a = v##t[j]; in xr = x##t + c##t[j] * xj; LANES(s##t[c] += a * xr[c]) }
INLINE panel(const Mat *m, const int nt, i64 k, const int W, in x0, i64 xa, i64 xj, double *y,
             int mode, in u, in b, in w)
{  /* W columns of a k-wide block, a lane a column: axis t < nt sums its row of m[t] off x + t xa
      (row j at j xj; one walk if the rows share their pattern arrays).  nt = 1: finish; nt = 3,
      the step's derivative products: y_i = s_0 + s_1 + s_2 (w = 0) or y_it = s_t / w_i */
  const Mat *m1 = m + (nt > 1), *m2 = m1 + (nt > 1);
  const int *p0 = m->ptr, *p1 = m1->ptr, *p2 = m2->ptr, *c0 = m->col, *c1 = m1->col,
            *c2 = m2->col, one = nt == 1 || (p1 == p0 && p2 == p0 && c1 == c0 && c2 == c0);
  in v0 = m->val, v1 = m1->val, v2 = m2->val, x1 = x0 + xa, x2 = x1 + xa;
  for (i64 i = 0; i < m->n; ++i) {
    double s0[16], s1[16], s2[16];
    LANE((s0[c] = 0., s1[c] = 0., s2[c] = 0.))
    if (one)
      for (int q = p0[i]; q < p0[i + 1]; ++q) {
        in xr = x0 + c0[q] * xj; const double a0 = v0[q], a1 = v1[q], a2 = v2[q];
        LANES((s0[c] += a0 * xr[c], s1[c] += a1 * xr[xa + c], s2[c] += a2 * xr[2 * xa + c]))
      }
    else {
      for (int q = p0[i]; q < p0[i + 1]; ++q) ACC(0, q)
      for (int q = p1[i]; q < p1[i + 1]; ++q) ACC(1, q)
      for (int q = p2[i]; q < p2[i + 1]; ++q) ACC(2, q)
    }
    if (nt == 1) finish(mode, W, s0, y + i * k, u + i * k, b + i * k, w + i, 0);
    else if (!w) LANE(y[i * k + c] = s0[c] + s1[c] + s2[c])
    else LANE((y[3 * i * k + c] = s0[c] / w[i], y[(3 * i + 1) * k + c] = s1[c] / w[i],
               y[(3 * i + 2) * k + c] = s2[c] / w[i]))
  }
}

/* a k-wide block in 16-column panels, one function per nt (one holding both compiles worse) */
#define WIDTHS CASE(1) CASE(2) CASE(3) CASE(4) CASE(5) CASE(6) CASE(7) CASE(8) CASE(9) \
  CASE(10) CASE(11) CASE(12) CASE(13) CASE(14) CASE(15) CASE(16)
#define CASE(W) case W: panel(m, nt, k, W, x + c, xa, xj, y + c, mode, u + c, b + c, w); break;
#define COLS(NT) static void cols##NT(const Mat *m, i64 k, in x, i64 xa, i64 xj, double *y, \
  int mode, in u, in b, in w) { const int nt = NT; \
  for (i64 c = 0; c < k; c += 16) switch (k - c < 16 ? k - c : 16) { WIDTHS } }
COLS(1) COLS(3)

static void prod(const Mat *m, i64 k, in x, double *y, int mode, in u, in b, in w)
{ if (k == 1) rows(m, x, y, mode, u, b, w); else cols1(m, k, x, 0, k, y, mode, u, b, w); }

void product(const Mat *m, i64 k, in x, double *y) { prod(m, k, x, y, SET, y, y, y); }
void axes(const Mat *m, i64 k, in x, i64 xa, i64 xj, double *y, in d)
{ cols3(m, k, x, xa, xj, y, SET, y, y, d); }

/* level l's b, x, t in the call's scratch (level 0's b is the caller's); x, t swap each sweep */
#define BUF(l, i) (S + (L[l].off + (i) * L[l].A.n) * k)

void down(const Level *L, i64 nlev, i64 k, i64 pre, in b, double *S)
{
  for (i64 l = 0; l + 1 < nlev; ++l, b = BUF(l, 0)) {
    double *x = BUF(l, 1), *t = BUF(l, 2), *r;
    for (i64 i = 0; pre && i < L[l].A.n; ++i)
      for (i64 c = 0; c < k; ++c) x[i * k + c] = L[l].w[i] * b[i * k + c];
    for (i64 s = 1; s < pre; ++s, r = x, x = t, t = r)
      prod(&L[l].A, k, x, t, JAC, x, b, L[l].w);
    if (pre) prod(&L[l].A, k, x, t, RES, t, b, t);
    prod(&L[l].R, k, pre ? t : b, BUF(l + 1, 0), SET, x, x, x);
  }
}

void up(const Level *L, i64 nlev, i64 k, i64 pre, i64 post, in b, double *S, in c, double *out)
{  /* c: the level below's finished x; level 0's last write goes to out */
  for (i64 l = nlev - 2; l >= 0; --l) {
    const int odd = pre && (pre - 1) % 2;
    double *x = BUF(l, 1 + odd), *t = BUF(l, 2 - odd), *y = l || post ? x : out;
    prod(&L[l].P, k, c, y, pre ? ADD : SET, x, x, x);
    for (i64 s = 0; s < post; ++s, t = x, x = y) {
      y = l || s + 1 < post ? t : out;
      prod(&L[l].A, k, x, y, JAC, x, l ? BUF(l, 0) : b, L[l].w);
    }
    c = y;
  }
}

/* CG's vector phase on (n, k) blocks.  sums: per column, numpy's add.reduce of u v down the
   column as a contiguous row: halves (cut at a multiple of 8) to blocks <= 128, eight partial
   sums a block, their tree, the tail, 0.0 + the lot; W columns abreast; kv = 0: v a row of 1s */
INLINE leaf(in u, in v, i64 kv, i64 n, i64 k, const int W, double *s)
{
  double r[8 * 16];
  i64 i = n < 8 ? 0 : n - n % 8;
  LANE(s[c] = 0.)
  if (n >= 8) {
    for (int j = 0; j < 8; ++j) LANE(r[j * W + c] = u[j * k + c] * v[j * kv + c])
    for (i64 h = 8; h < i; h += 8)
      for (int j = 0; j < 8; ++j) LANE(r[j * W + c] += u[(h + j) * k + c] * v[(h + j) * kv + c])
    LANE(s[c] = ((r[c] + r[W + c]) + (r[2 * W + c] + r[3 * W + c]))
              + ((r[4 * W + c] + r[5 * W + c]) + (r[6 * W + c] + r[7 * W + c])))
  }
  for (; i < n; ++i) LANE(s[c] += u[i * k + c] * v[i * kv + c])
}

static void pairwise(in u, in v, i64 kv, i64 n, i64 k, int W, double *s)
{
  if (n > 128) {
    const i64 h = n / 2 - n / 2 % 8; double t[16];
    pairwise(u, v, kv, h, k, W, s); pairwise(u + h * k, v + h * kv, kv, n - h, k, W, t);
    LANE(s[c] += t[c])
    return;
  }
#undef CASE
#define CASE(W) case W: leaf(u, v, kv, n, k, W, s); break;
  switch (W) { WIDTHS }
}

static void sums(in u, in v, i64 kv, i64 n, i64 k, double *s)
{
  for (i64 c = 0; c < k; c += 16)
    pairwise(u + c, kv ? v + c : v, kv, n, k, k - c < 16 ? k - c : 16, s + c);
  for (i64 c = 0; c < k; ++c) s[c] = 0. + s[c];
}

/* e at every entry m = i k + c of a block */
#define EACH(e) for (i64 i = 0; i < n; ++i) \
  _Pragma("omp simd") for (i64 c = 0; c < k; ++c) { const i64 m = i * k + c; e; }

void dots(i64 n, i64 k, in u, in v, double *s) { sums(u, v, k, n, k, s); }

void step(i64 n, i64 k, in p, in ap, in a, double *x, double *r, double *rr)
{ EACH((x[m] += a[c] * p[m], r[m] -= a[c] * ap[m])) sums(r, r, k, n, k, rr); }

void direction(i64 n, i64 k, in z, in b, double *p) { EACH(p[m] = z[m] + b[c] * p[m]) }

void project(i64 n, i64 k, in v, double *y)
{
  static const double one[16] = {1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1};
  double mean[k];
  sums(v, one, 0, n, k, mean);
  for (i64 c = 0; c < k; ++c) mean[c] /= (double)n;
  EACH(y[m] = v[m] - mean[c])
}
"""

_I64, _PTR = ctypes.c_longlong, ctypes.c_void_p
SYMBOLS = {"product": [_PTR, _I64, _PTR, _PTR], "down": [_PTR, _I64, _I64, _I64, _PTR, _PTR],
           "up": [_PTR] + [_I64] * 4 + [_PTR] * 4, "dots": [_I64, _I64] + [_PTR] * 3,
           "step": [_I64, _I64] + [_PTR] * 6, "direction": [_I64, _I64] + [_PTR] * 3,
           "project": [_I64, _I64, _PTR, _PTR], "axes": [_PTR, _I64, _PTR, _I64, _I64, _PTR, _PTR]}


def _mat(m, keep: list) -> list:
    """The words of a C ``Mat``: ``m``'s CSR arrays (no copy), then their SELL-8 copy (only a
    one-column product reads it); ``keep`` holds what the addresses point into."""
    if m is None:
        return [0] * 7
    n, lens = m.shape[0], np.zeros(-(-m.shape[0] // 8) * 8, dtype=np.int32)
    lens[:n] = np.diff(m.indptr)
    row = np.repeat(np.arange(n), lens[:n])
    k = np.arange(m.nnz) - m.indptr[row]  # sorted by (chunk, position in row, lane)
    order = np.argsort((row // 8 * (lens.max(initial=0) + 1) + k) * 8 + row % 8)
    arrays = (m.indptr, m.indices, m.data, lens, m.indices[order], m.data[order])
    keep.extend(arrays)
    return [n] + [a.ctypes.data for a in arrays]


def _plain(a: np.ndarray, dtype=np.float64) -> bool:
    return a.dtype == dtype and a.flags.c_contiguous


def _csr(m) -> bool:
    return (m.format == "csr" and _plain(m.data) and _plain(m.indices, np.int32)
            and _plain(m.indptr, np.int32))


def _bits(a: np.ndarray) -> bytes:  # every NaN the same NaN
    return np.where(np.isnan(a), np.nan, a).tobytes()


class NativeCycle(VectorPhase):
    """One hierarchy's V-cycle and level-0 product in whichever form serves; callable as the
    operator ``A_0 x`` that CG iterates on, and the vector phase of that iteration."""

    def __init__(self, amg) -> None:
        self.amg, self._proc, self._lock = amg, None, threading.Lock()
        mats = [m for lv in amg.levels for m in (lv.a, lv.prolongator, lv.restriction)]
        ok = len(amg.levels) > 1 and all(_csr(m) for m in mats if m is not None)
        self.state, self.vector_phase = "python" if ok else "rejected", "numpy"
        self._families: dict = {}  # (id(a checked triple), summed) -> (its Mats, the triple)
        if ok:
            self._bind(load(SOURCE, SYMBOLS))

    def span_attributes(self) -> dict:
        return {"native": self.state, "vector_phase": self.vector_phase,
                "level_nnz": [lv.a.nnz for lv in self.amg.levels]}

    def _bind(self, fns) -> None:
        """Loaded: the hierarchy as the C ``Level`` array, a table row a level (SELL copied)."""
        if not fns:
            return
        self._keep, rows, off = [], [], 0
        for lv in self.amg.levels:
            jacobi = self.amg.omega * lv.diag_inv
            rows.append([w for m in (lv.a, lv.prolongator, lv.restriction)
                         for w in _mat(m, self._keep)] + [jacobi.ctypes.data, off])
            self._keep.append(jacobi)
            off += 3 * lv.a.shape[0] * (lv.prolongator is not None)
        self._table = np.array(rows, dtype=np.int64)
        self._fns, self._words, self.state = fns, off + lv.a.shape[0], "loaded"

    def _poll(self) -> None:
        """After a scipy-form cycle: start the build, or see whether it has ended."""
        with self._lock:
            if self.state == "python":
                self._proc, self.state = build(SOURCE), "building"
            if self.state == "building" and (self._proc is None or self._proc.poll() is not None):
                self._bind(self._proc and load(SOURCE, SYMBOLS))
                if self.state == "building":
                    self.state = "rejected"
                    get_registry().counter("solvers.native_build_failed").inc()

    def _adopt(self, b: np.ndarray) -> None:
        """Both forms on this call's block and on its other lane mapping."""
        from ..resilience.ladders import record_escalation

        amg, a = self.amg, self.amg.levels[0].a
        other = b[:, :1].copy() if b.shape[1] > 1 else np.repeat(b, 2, axis=1)
        same = all(_bits(self._c_cycle(v)) == _bits(amg._cycle(0, v))
                   and _bits(self._c_product(v)) == _bits(a @ v) for v in (b, other))
        self.state = "adopted" if same else "rejected"
        record_escalation("NativeAdopted" if same else "NativeRejected", f"solvers.native_{self.state}",
                          what="amg", levels=len(amg.levels), nnz=sum(lv.a.nnz for lv in amg.levels))
        if same:  # CG's vector phase: the same blocks, its own verdict
            same = all(self._phase_matches(v, v[::-1].copy()) for v in (b, other))
            self.vector_phase = "native" if same else "numpy"
            record_escalation("NativeAdopted" if same else "NativeRejected",
                              f"solvers.vector_phase_{'adopted' if same else 'rejected'}", what="cg")

    def _phase_matches(self, u: np.ndarray, v: np.ndarray) -> bool:
        """Every export of the vector phase against the numpy expression it replaces."""
        numpy, alpha = VectorPhase(), 0.5 + np.arange(u.shape[1], dtype=np.float64)
        x, r, p, y, s, d = u.copy(), v.copy(), v.copy(), u.copy(), v.copy(), v.copy()
        got = [self._run("dots", u, v, np.empty_like(alpha)), self._run("project", u, np.empty_like(u)),
               self._run("step", u, v, alpha, x, r, np.empty_like(alpha)), x, r,
               self._run("direction", u, alpha, p)]
        want = [numpy.dots(u, v), numpy.project(u), numpy.step(alpha, u, v, y, s), y, s,
                numpy.direction(u, alpha, d)]
        return all(_bits(g) == _bits(w) for g, w in zip(got, want))

    def _run(self, name: str, *arrays: np.ndarray) -> np.ndarray:
        """The export ``name`` on blocks shaped like the first array; returns the last."""
        self._fns[name](*arrays[0].shape, *(a.ctypes.data for a in arrays))
        return arrays[-1]

    def _serves(self, *blocks, columns=None) -> bool:
        """Whether C serves these: plain ``(n, k > 1)`` blocks of one shape, ``k`` scalars (a
        vector stays on numpy: an export's ~8 us call costs what numpy's passes over it do)."""
        shape = blocks[0].shape
        return self.vector_phase == "native" and len(shape) == 2 and shape[1] > 1 and all(
            b.shape == shape and _plain(b) for b in blocks) and (
            columns is None or (_plain(columns) and columns.shape == shape[1:]))

    def dots(self, u, v):
        return (self._run("dots", u, v, np.empty(u.shape[1])) if self._serves(u, v)
                else super().dots(u, v))

    def step(self, alpha, p, ap, x, r):
        return (self._run("step", p, ap, alpha, x, r, np.empty(p.shape[1]))
                if self._serves(p, ap, x, r, columns=alpha) else super().step(alpha, p, ap, x, r))

    def direction(self, z, beta, p):
        return (self._run("direction", z, beta, p) if self._serves(z, p, columns=beta)
                else super().direction(z, beta, p))

    def project(self, v):
        return (self._run("project", v, np.empty_like(v)) if self._serves(v)
                else super().project(v))

    def axes(self, ops, x: np.ndarray, mass=None) -> np.ndarray:
        """:meth:`VectorPhase.axes` in one C pass off the operators' own arrays once adopted; each
        (triple, form)'s first call is checked against numpy's, a mismatch rejects for good."""
        v, key = (x if mass is None else x[None]), (id(ops), mass is None)  # v: (axes, rows[, k])
        if not (self.state == "adopted" and v.dtype == np.float64 and not any(s % 8 for s in v.strides)
                and len(ops) == 3 and v.shape[:2] == (1 + 2 * (mass is None), ops[0].shape[1])
                and (v.ndim == 2 or v.shape[2] == 1 or v.strides[2] == 8)  # columns are lanes
                and (mass is None or (_plain(mass) and mass.shape == ops[0].shape[:1]))
                and all(_csr(m) and m.shape == ops[0].shape for m in ops)):
            return super().axes(ops, x, mass)
        words = self._families[key][0] if key in self._families else np.array([[m.shape[0], m.indptr
            .ctypes.data, m.indices.ctypes.data, m.data.ctypes.data, 0, 0, 0] for m in ops])
        out = np.empty((ops[0].shape[0],) + (3,) * (mass is not None) + v.shape[2:])
        self._fns["axes"](words.ctypes.data, out.shape[-1] if v.ndim == 3 else 1, x.ctypes.data,
                          v.strides[0] // 8 * (mass is None), v.strides[1] // 8, out.ctypes.data,
                          None if mass is None else mass.ctypes.data)
        if key not in self._families and _bits(out) != _bits(want := super().axes(ops, x, mass)):
            self.state = "rejected"
            get_registry().counter("solvers.native_rejected").inc()
            return want
        self._families[key] = words, ops  # the triple holds what the words point into
        return out

    def _c_product(self, x: np.ndarray) -> np.ndarray:
        out = np.empty_like(x)
        self._fns["product"](self._table.ctypes.data, x.shape[1], x.ctypes.data, out.ctypes.data)
        return out

    def _c_cycle(self, b: np.ndarray) -> np.ndarray:
        k, nlev, amg = b.shape[1], len(self.amg.levels), self.amg
        scratch, out = np.empty(self._words * k), np.empty_like(b)
        head = (self._table.ctypes.data, nlev, k, amg.presmooth)
        self._fns["down"](*head, b.ctypes.data, scratch.ctypes.data)
        coarse = amg._cycle(nlev - 1, scratch[self._table[-1, -1] * k:].reshape(-1, k))
        self._fns["up"](*head, amg.postsmooth, b.ctypes.data, scratch.ctypes.data,
                        coarse.ctypes.data, out.ctypes.data)
        return out

    def vcycle(self, b: np.ndarray) -> np.ndarray:
        """One V-cycle on an ``(n, k)`` block."""
        if self.state == "loaded" and _plain(b):
            with self._lock:
                if self.state == "loaded":
                    self._adopt(b)
        if self.state == "adopted" and _plain(b):
            return self._c_cycle(b)
        if self.state in ("python", "building"):
            self._poll()
        return self.amg._cycle(0, b)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        plain = self.state == "adopted" and x.ndim == 2 and _plain(x)
        return self._c_product(x) if plain else self.amg.levels[0].a @ x
