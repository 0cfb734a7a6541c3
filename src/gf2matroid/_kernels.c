/* Compiled search kernels: the C twin of gf2matroid._kernels_py.
 *
 * Same call contracts, entry checks, algorithms, traversal order,
 * pruning rules and node counts as the pure module; point sets live in
 * uint64 word arrays instead of Python big ints.  Both twins poll their
 * deadline while they read a family or list flats (every LIST_POLL
 * masks).  In the search this one polls by a tick counter weighted by
 * the work done (see CHECK_INTERVAL), where the pure one reads the clock
 * at every complement node and after every forward flat-finder call: a
 * read is cheap beside a Python node, not beside a C one.  Polling the
 * pure way here took the gs n=3 r=6 call (7,521,088 nodes) from
 * 1.63-1.80 s to 1.87-2.07 s, and forward r=9 pg-free 3 with the basis
 * forced from 0.53-0.68M to 0.40-0.45M nodes/s (2-vCPU machine, 2-3
 * runs each).  So a spent budget may stop the two at different nodes,
 * and the polls are no part of the lockstep contract.  The pure module
 * is the reference; keep the two in lockstep when changing either.
 *
 * Plain C99 plus the GCC/Clang bit builtins, built by setuptools:
 *     python setup.py build_ext --inplace
 * Python ints cross the boundary through int.to_bytes / int.from_bytes.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <limits.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>

typedef uint64_t u64;
typedef uint32_t u32;
typedef uint16_t u16;

#define KERNEL_RANK_MAX 12
#define CHECK_INTERVAL 4096
#define FINDER_COST 64
#define LIST_POLL 256 /* masks read between deadline polls */
#define MEETS_MAX_WORDS (1 << 23) /* meets rows a complement search keeps: 64 MB */

static inline int popcnt64(u64 x) { return __builtin_popcountll(x); }
static inline int ctz64(u64 x) { return __builtin_ctzll(x); }
static inline int msb64(u64 x) { return 63 - __builtin_clzll(x); }

static const u64 LOWPAT[6] = {
    0x5555555555555555ULL, 0x3333333333333333ULL, 0x0F0F0F0F0F0F0F0FULL,
    0x00FF00FF00FF00FFULL, 0x0000FFFF0000FFFFULL, 0x00000000FFFFFFFFULL,
};

/* time.monotonic() reads the same clock on Linux */
static double monotonic_now(void)
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (double)ts.tv_sec + (double)ts.tv_nsec * 1e-9;
}

/* ---------------------------------------------------------------- bitsets */

/* dst = src with every element XOR-translated by s. */
static inline void bs_translate(u64 *dst, const u64 *src, int s, int nw)
{
    int j, i, sh, stride;
    u64 w, pat;
    memcpy(dst, src, nw * sizeof(u64));
    for (j = 0; j < 6; j++) {
        if ((s >> j) & 1) {
            sh = 1 << j;
            pat = LOWPAT[j];
            for (i = 0; i < nw; i++) {
                w = dst[i];
                dst[i] = ((w & pat) << sh) | ((w >> sh) & pat);
            }
        }
    }
    for (j = 6; (s >> j) != 0; j++) {
        if ((s >> j) & 1) {
            stride = 1 << (j - 6);
            for (i = 0; i < nw; i++) {
                if ((i & stride) == 0) {
                    w = dst[i];
                    dst[i] = dst[i | stride];
                    dst[i | stride] = w;
                }
            }
        }
    }
}

static inline int bs_popcount(const u64 *a, int nw)
{
    int i, c = 0;
    for (i = 0; i < nw; i++)
        c += popcnt64(a[i]);
    return c;
}

static inline int bs_isempty(const u64 *a, int nw)
{
    int i;
    for (i = 0; i < nw; i++)
        if (a[i])
            return 0;
    return 1;
}

static inline int bs_get(const u64 *a, int v) { return (a[v >> 6] >> (v & 63)) & 1; }

static inline void bs_set(u64 *a, int v) { a[v >> 6] |= 1ULL << (v & 63); }

/* Rank over GF(2) of the vectors in a, less those in cut unless cut is
 * NULL: the twin of gf2.rank_of, one elimination step per vector against
 * rows keyed by their top bit. */
static int bs_rank(const u64 *a, const u64 *cut, int nw)
{
    u16 piv[KERNEL_RANK_MAX] = {0};
    int wi, p, rank = 0;
    u64 m, w;
    for (wi = 0; wi < nw; wi++) {
        for (m = cut != NULL ? a[wi] & ~cut[wi] : a[wi]; m; m &= m - 1) {
            for (w = (u64)((wi << 6) + ctz64(m)); w; w ^= piv[p]) {
                p = msb64(w);
                if (piv[p] == 0) {
                    piv[p] = (u16)w;
                    rank++;
                    break;
                }
            }
        }
    }
    return rank;
}

/* Clear bits 0..v inclusive. */
static inline void bs_clear_through(u64 *a, int v)
{
    int w = v >> 6, i;
    for (i = 0; i < w; i++)
        a[i] = 0;
    a[w] &= ~(((1ULL << (v & 63)) << 1) - 1);
}

/* ------------------------------------------------------- subspace testing */

/* Unchecked body of has_subspace_mask; the twin of gf2.subspace_in,
 * with the same prunes.  mask must not hold bit 0.  scratch needs 2*nw
 * words per level, min(d, r) levels.  d > r fails the count test below
 * as well; testing it first keeps 1 << d defined. */
static int subspace_in(const u64 *mask, int d, int r, int nw, u64 *scratch)
{
    int v, i, wi, need, left;
    u64 m;
    u64 *rest = scratch, *tmp = scratch + nw;
    if (d <= 0)
        return 1;
    if (d > r)
        return 0;
    need = (1 << d) - 1;
    left = bs_popcount(mask, nw);
    if (left < need)
        return 0;
    if (d == 1)
        return 1;
    for (wi = 0; wi < nw; wi++) {
        m = mask[wi];
        while (m) {
            /* fewer than 2^d - 1 points at or above v */
            if (left < need)
                return 0;
            left--;
            v = (wi << 6) + ctz64(m);
            m &= m - 1;
            /* v plays the least element of the subspace; the rest must pair up */
            bs_translate(tmp, mask, v, nw);
            for (i = 0; i < nw; i++)
                rest[i] = mask[i] & tmp[i];
            bs_clear_through(rest, v);
            if (subspace_in(rest, d - 1, r, nw, scratch + 2 * nw))
                return 1;
        }
    }
    return 0;
}

/* ------------------------------------------------------ entry conversions */

static int nwords(int r) { return (1 << r) > 64 ? (1 << r) >> 6 : 1; }

static int check_rank(int r)
{
    if (r < 1 || r > KERNEL_RANK_MAX) {
        PyErr_Format(PyExc_ValueError, "kernel rank must be in [1, %d], got %d",
                     KERNEL_RANK_MAX, r);
        return -1;
    }
    return 0;
}

/* Read a set of vectors of GF(2)^r into nw words; ValueError unless
 * 0 <= obj < 2^(2^r). */
static int read_mask(PyObject *obj, int r, u64 *dst, int nw)
{
    PyObject *bytes;
    const unsigned char *b;
    int i, k;
    if (!PyLong_Check(obj)) {
        PyErr_Format(PyExc_TypeError, "mask must be an int, not %.100s",
                     Py_TYPE(obj)->tp_name);
        return -1;
    }
    bytes = PyObject_CallMethod(obj, "to_bytes", "ns", (Py_ssize_t)(8 * nw), "little");
    if (bytes == NULL) {
        if (!PyErr_ExceptionMatches(PyExc_OverflowError))
            return -1;
        PyErr_Clear();
        goto out_of_range;
    }
    b = (const unsigned char *)PyBytes_AS_STRING(bytes);
    for (i = 0; i < nw; i++) {
        dst[i] = 0;
        for (k = 7; k >= 0; k--)
            dst[i] = (dst[i] << 8) | b[8 * i + k];
    }
    Py_DECREF(bytes);
    if (r < 6 && (dst[0] >> (1 << r)) != 0)
        goto out_of_range;
    return 0;
out_of_range:
    PyErr_Format(PyExc_ValueError, "mask has bits outside the 2^%d vectors of GF(2)^%d",
                 r, r);
    return -1;
}

static PyObject *words_to_int(const u64 *src, int nw)
{
    PyObject *bytes, *out;
    unsigned char *b;
    int i, k;
    bytes = PyBytes_FromStringAndSize(NULL, 8 * nw);
    if (bytes == NULL)
        return NULL;
    b = (unsigned char *)PyBytes_AS_STRING(bytes);
    for (i = 0; i < nw; i++)
        for (k = 0; k < 8; k++)
            b[8 * i + k] = (unsigned char)(src[i] >> (8 * k));
    out = PyObject_CallMethod((PyObject *)&PyLong_Type, "from_bytes", "Os", bytes, "little");
    Py_DECREF(bytes);
    return out;
}

/* The clock is read when a poll counter, just advanced by cost, passes a
 * multiple of CHECK_INTERVAL, as in the pure twin; cost <= CHECK_INTERVAL. */
static int deadline_passed(long long ticks, int cost, int use_deadline, double deadline)
{
    return use_deadline && ticks % CHECK_INTERVAL < cost && monotonic_now() > deadline;
}

/* budget None -> no deadline; otherwise monotonic() + budget */
static int read_deadline(PyObject *budget, int *use_deadline, double *deadline)
{
    double b;
    *use_deadline = budget != Py_None;
    *deadline = 0.0;
    if (!*use_deadline)
        return 0;
    b = PyFloat_AsDouble(budget);
    if (b == -1.0 && PyErr_Occurred())
        return -1;
    *deadline = monotonic_now() + b;
    return 0;
}

static PyObject *search_result(int best, const u64 *best_mask, int nw, long long nodes,
                               int timed_out)
{
    PyObject *mask = best >= 0 ? words_to_int(best_mask, nw) : PyLong_FromLong(0);
    if (mask == NULL)
        return NULL;
    return Py_BuildValue("iNLN", best, mask, nodes, PyBool_FromLong(!timed_out));
}

PyDoc_STRVAR(has_subspace_mask_doc,
             "has_subspace_mask(mask, d, r)\n--\n\n"
             "True iff some d-dimensional subspace has all nonzero vectors in mask.");

static PyObject *py_has_subspace_mask(PyObject *self, PyObject *args, PyObject *kw)
{
    static char *kwlist[] = {"mask", "d", "r", NULL};
    PyObject *mask_obj;
    int d, r, nw, levels, out;
    u64 *buf;
    (void)self;
    if (!PyArg_ParseTupleAndKeywords(args, kw, "Oii", kwlist, &mask_obj, &d, &r))
        return NULL;
    if (check_rank(r) < 0)
        return NULL;
    nw = nwords(r);
    levels = d < 1 ? 1 : (d > r ? r : d);
    buf = malloc((nw + 2 * nw * levels) * sizeof(u64));
    if (buf == NULL)
        return PyErr_NoMemory();
    if (read_mask(mask_obj, r, buf, nw) < 0) {
        free(buf);
        return NULL;
    }
    buf[0] &= ~1ULL; /* the zero vector is in every subspace */
    out = subspace_in(buf, d, r, nw, buf + nw);
    free(buf);
    return PyBool_FromLong(out);
}

/* --------------------------------------------------- smallest odd circuit */

PyDoc_STRVAR(min_odd_zero_subset_doc,
             "min_odd_zero_subset(points)\n--\n\n"
             "Smallest odd t >= 3 with a t-subset of points XOR-ing to zero, else 0.\n\n"
             "Straight from the definition: one point at a time, grow the table\n"
             "of every (XOR value, exact subset size) pair over genuine subsets,\n"
             "then read the smallest odd size landing on zero.  No span\n"
             "reduction and no walk shortcut.  Supports up to 63 points.");

static PyObject *py_min_odd_zero_subset(PyObject *self, PyObject *points)
{
    PyObject *seq;
    Py_ssize_t m, i;
    u32 pts[63], top = 0;
    u64 nv, x, sizes, *table, *snap;
    unsigned long val;
    int s;
    (void)self;
    seq = PySequence_Fast(points, "points must be a sequence of ints");
    if (seq == NULL)
        return NULL;
    m = PySequence_Fast_GET_SIZE(seq);
    if (m > 63) {
        Py_DECREF(seq);
        return PyErr_Format(PyExc_ValueError,
                            "subset oracle supports at most 63 points, got %zd", m);
    }
    if (m < 3) {
        Py_DECREF(seq);
        return PyLong_FromLong(0);
    }
    for (i = 0; i < m; i++) {
        val = PyLong_AsUnsignedLong(PySequence_Fast_GET_ITEM(seq, i));
        if (val == (unsigned long)-1 && PyErr_Occurred()) {
            Py_DECREF(seq);
            return NULL;
        }
        if (val > UINT32_MAX) {
            Py_DECREF(seq);
            return PyErr_Format(PyExc_OverflowError, "point %lu does not fit 32 bits", val);
        }
        pts[i] = (u32)val;
        if (pts[i] > top)
            top = pts[i];
    }
    Py_DECREF(seq);
    /* the table is indexed by XOR values, all below the next power of two */
    for (nv = 1; nv <= top; nv <<= 1)
        ;
    table = calloc(nv, sizeof(u64));
    snap = malloc(nv * sizeof(u64));
    if (table == NULL || snap == NULL) {
        free(table);
        free(snap);
        return PyErr_NoMemory();
    }
    table[0] = 1; /* xor value -> bitmask of achievable subset sizes */
    for (i = 0; i < m; i++) {
        memcpy(snap, table, nv * sizeof(u64));
        for (x = 0; x < nv; x++)
            if (snap[x])
                table[x ^ pts[i]] |= snap[x] << 1;
    }
    sizes = table[0];
    free(table);
    free(snap);
    for (s = 3; s <= m; s += 2)
        if ((sizes >> s) & 1)
            return PyLong_FromLong(s);
    return PyLong_FromLong(0);
}

/* --------------------------------------------------------- forward search */

/* The pure twin's forward_search on word bitsets; its docstring gives the
 * arguments.  Slot d of the slab holds the state of the node at depth d,
 * nw words each: the frontier, covers, the chosen set and sums[2..T].
 * From covers, row t + 1 holds sums[t]: the chosen set stands for
 * sums[1], and no sums[0] is kept. */
typedef struct {
    int r, nw, T, pg_n, min_critical, half, stride;
    int full_rank, prune, use_deadline, timed_out;
    double deadline;
    long long nodes, ticks; /* ticks: the deadline poll counter */
    int best;
    u64 *best_mask; /* nw */
    u64 *hit;       /* n_all * nw: the functionals hitting v */
    u64 *nonzero;   /* nw */
    u64 *slab;      /* n_all * stride */
    u64 *scratch;   /* tmp, pair, cand: nw each; then 2 * nw * (r + 1) */
} FwdCtx;

static inline u64 *fwd_slot(FwdCtx *c, int depth)
{
    return c->slab + (size_t)depth * c->stride;
}

/* subspace_in(mask, d) found a subspace; the call advances the poll
 * counter by FINDER_COST and may set timed_out. */
static int fwd_finds(FwdCtx *c, const u64 *mask, int d)
{
    int found = subspace_in(mask, d, c->r, c->nw, c->scratch + 3 * c->nw);
    c->ticks += FINDER_COST;
    if (deadline_passed(c->ticks, FINDER_COST, c->use_deadline, c->deadline))
        c->timed_out = 1;
    return found;
}

static int fwd_passes_extra(FwdCtx *c, const u64 *chosen, const u64 *covers)
{
    int i;
    u64 *unchosen = c->scratch;
    if (!bs_isempty(covers, c->nw))
        return 0;
    if (c->min_critical >= 3) {
        for (i = 0; i < c->nw; i++)
            unchosen[i] = c->nonzero[i] & ~chosen[i];
        if (fwd_finds(c, unchosen, c->r - c->min_critical + 1))
            return 0;
    }
    if (c->full_rank && bs_rank(chosen, NULL, c->nw) != c->r)
        return 0;
    return 1;
}

/* The child's state in slot depth + 1: v, just taken from the frontier of
 * slot depth, joins the chosen set, and the frontier keeps the w still
 * feasible.  Stops filtering once timed_out is set. */
static void fwd_include(FwdCtx *c, int v, int depth)
{
    int nw = c->nw, t, i, k, w;
    u64 m;
    const u64 *feas = fwd_slot(c, depth), *hv = c->hit + (size_t)v * nw;
    u64 *rest = fwd_slot(c, depth + 1), *covers = rest + nw, *chosen = rest + 2 * nw;
    u64 *sums = covers; /* sums + t * nw is sums[t] for t >= 1 */
    u64 *tmp = c->scratch, *pair = c->scratch + nw, *cand = c->scratch + 2 * nw;
    memcpy(covers, feas + nw, (c->stride - nw) * sizeof(u64)); /* all but the frontier */
    /* t = 2 translates the chosen set before v joins it */
    for (t = c->T; t >= 2; t--) {
        bs_translate(tmp, sums + (t - 1) * nw, v, nw);
        for (i = 0; i < nw; i++)
            sums[t * nw + i] |= tmp[i];
    }
    bs_set(chosen, v);
    for (i = 0; i < nw; i++)
        covers[i] &= hv[i];
    /* the sums of an even number of chosen points close odd circuits */
    memcpy(rest, feas, nw * sizeof(u64));
    for (t = 2; t <= c->T; t += 2)
        for (i = 0; i < nw; i++)
            rest[i] &= ~sums[t * nw + i];
    if (c->pg_n < 3)
        return;
    /* a new flat through v and w holds v ^ w, a chosen point */
    bs_translate(tmp, chosen, v, nw);
    for (i = 0; i < nw; i++) {
        pair[i] = chosen[i] & tmp[i];
        cand[i] = rest[i] & tmp[i];
    }
    for (k = 0; k < nw && !c->timed_out; k++) {
        for (m = cand[k]; m && !c->timed_out; m &= m - 1) {
            w = (k << 6) + ctz64(m);
            bs_translate(tmp, pair, w, nw);
            for (i = 0; i < nw; i++)
                tmp[i] &= pair[i];
            if (fwd_finds(c, tmp, c->pg_n - 2))
                rest[k] ^= m & -m;
        }
    }
}

/* One node, its state in slot depth; the exclude branch is the next pass
 * of its loop. */
static void fwd_dfs(FwdCtx *c, int depth, int size)
{
    int nw = c->nw, i, k, v, n_feas, n_one, lo, hi;
    u64 m, *feas = fwd_slot(c, depth), *covers = feas + nw, *chosen = feas + 2 * nw;
    const u64 *hf;
    for (;;) {
        c->nodes++;
        c->ticks++;
        if (deadline_passed(c->ticks, 1, c->use_deadline, c->deadline)) {
            c->timed_out = 1;
            return;
        }
        if (size > c->best && fwd_passes_extra(c, chosen, covers) &&
            !c->timed_out) {
            c->best = size;
            memcpy(c->best_mask, chosen, nw * sizeof(u64));
        }
        if (c->timed_out)
            return;
        n_feas = bs_popcount(feas, nw);
        if (n_feas == 0)
            return;
        if (c->prune) {
            if (size + n_feas <= c->best)
                return; /* the size bound */
            if (!bs_isempty(covers, nw)) {
                /* the half-space bound as two thresholds on |one| */
                lo = c->best - c->half - size;
                hi = n_feas - (c->best > c->half ? c->best - c->half : 0);
                for (k = 0; k < nw; k++) {
                    for (m = covers[k]; m; m &= m - 1) {
                        hf = c->hit + (size_t)((k << 6) + ctz64(m)) * nw;
                        n_one = 0;
                        for (i = 0; i < nw; i++)
                            n_one += popcnt64(feas[i] & hf[i]);
                        if (n_one <= lo || n_one >= hi)
                            return;
                    }
                }
            }
        }
        for (k = nw - 1; feas[k] == 0; k--)
            ;
        v = (k << 6) + msb64(feas[k]);
        feas[k] ^= 1ULL << (v & 63);
        fwd_include(c, v, depth);
        if (c->timed_out)
            return;
        fwd_dfs(c, depth + 1, size + 1);
        if (c->timed_out)
            return;
    }
}

static void fwd_free(FwdCtx *c)
{
    free(c->best_mask);
    free(c->hit);
    free(c->nonzero);
    free(c->slab);
    free(c->scratch);
}

PyDoc_STRVAR(forward_search_doc,
             "forward_search(r, min_odd_girth, pg_free_order, min_critical, full_rank,\n"
             "               forced_in, forced_out_mask, budget, prune=True)\n--\n\n"
             "Maximum point set under the given constraints, include-first DFS.\n\n"
             "Returns (best_size or -1, witness_mask, nodes, completed); the pure\n"
             "twin gives the algorithm and its arguments.  The deadline is polled\n"
             "whenever a counter passes a multiple of CHECK_INTERVAL; each node\n"
             "advances it by 1, and each flat-finder call by FINDER_COST.");

static PyObject *py_forward_search(PyObject *self, PyObject *args, PyObject *kw)
{
    static char *kwlist[] = {"r", "min_odd_girth", "pg_free_order", "min_critical",
                             "full_rank", "forced_in", "forced_out_mask", "budget",
                             "prune", NULL};
    int r, girth, pg_n, min_critical, full_rank, prune = 1;
    PyObject *forced_in_obj, *forced_out_obj, *budget, *seq = NULL, *result = NULL;
    Py_ssize_t n_forced = 0, j, k;
    FwdCtx c;
    int n_all, nw, T, v, x, i, depth, overflow;
    long fv;
    int *forced = NULL;
    u64 *forced_out = NULL, *feas;
    (void)self;

    memset(&c, 0, sizeof(c));
    if (!PyArg_ParseTupleAndKeywords(args, kw, "iiiipOOO|p", kwlist, &r, &girth, &pg_n,
                                     &min_critical, &full_rank, &forced_in_obj,
                                     &forced_out_obj, &budget, &prune))
        return NULL;
    if (check_rank(r) < 0)
        return NULL;
    if (girth >= 4 && girth % 2 == 0)
        return PyErr_Format(PyExc_ValueError, "min_odd_girth must be odd, got %d", girth);
    n_all = 1 << r;
    nw = nwords(r);
    T = girth >= 5 ? girth - 3 : 0;
    if (T > (r & ~1))
        T = r & ~1; /* see the pure twin's docstring */

    seq = PySequence_Fast(forced_in_obj, "forced_in must be a sequence of ints");
    if (seq == NULL)
        return NULL;
    n_forced = PySequence_Fast_GET_SIZE(seq);
    forced = malloc((n_forced > 0 ? n_forced : 1) * sizeof(int));
    forced_out = calloc(nw, sizeof(u64));
    if (forced == NULL || forced_out == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (j = 0; j < n_forced; j++) {
        fv = PyLong_AsLongAndOverflow(PySequence_Fast_GET_ITEM(seq, j), &overflow);
        if (fv == -1 && PyErr_Occurred())
            goto done;
        if (overflow || fv < 1 || fv >= n_all) {
            PyErr_Format(PyExc_ValueError, "forced_in vector outside [1, 2^%d)", r);
            goto done;
        }
        forced[j] = (int)fv;
        for (k = 0; k < j; k++)
            if (forced[k] == forced[j]) {
                PyErr_SetString(PyExc_ValueError, "forced_in repeats a vector");
                goto done;
            }
    }
    if (read_mask(forced_out_obj, r, forced_out, nw) < 0)
        goto done;

    c.r = r;
    c.nw = nw;
    c.T = T;
    c.pg_n = pg_n;
    c.min_critical = min_critical;
    /* the most points a set with no 3-circuit holds on one side of a
     * hyperplane; a cap of 2^r leaves the half-space bound inert */
    c.half = T >= 2 ? 1 << (r - 2) : n_all;
    c.stride = (T >= 2 ? T + 2 : 3) * nw;
    c.full_rank = full_rank;
    c.prune = prune;
    c.best = -1;
    c.best_mask = calloc(nw, sizeof(u64));
    c.hit = calloc((size_t)n_all * nw, sizeof(u64));
    c.nonzero = calloc(nw, sizeof(u64));
    /* a chosen set has fewer than n_all points, so depth < n_all */
    c.slab = calloc((size_t)n_all * c.stride, sizeof(u64));
    c.scratch = calloc(3 * nw + 2 * nw * (r + 1), sizeof(u64));
    if (c.best_mask == NULL || c.hit == NULL || c.nonzero == NULL || c.slab == NULL ||
        c.scratch == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    if (read_deadline(budget, &c.use_deadline, &c.deadline) < 0)
        goto done;

    /* functionals hitting v, as a bitset over f; dot is symmetric and
     * linear in v, so the row of v is the row of its lowest bit x XOR the
     * row of v ^ x, and the row of bit j is the periodic pattern of bit j */
    for (v = 1; v < n_all; v++) {
        u64 *row = c.hit + (size_t)v * nw;
        const u64 *rest = c.hit + (size_t)(v & (v - 1)) * nw;
        x = ctz64((u64)v);
        for (i = 0; i < nw; i++)
            row[i] = rest[i] ^ (x < 6 ? ~LOWPAT[x] : (((i >> (x - 6)) & 1) ? ~0ULL : 0));
        if (n_all < 64)
            row[0] &= (1ULL << n_all) - 1;
        bs_set(c.nonzero, v);
    }

    /* the empty set in slot 0: every point is feasible for it (none under
     * order-1 freeness), and fwd_include keeps the frontier feasible, so a
     * forced point gone from it would not fit */
    feas = c.slab;
    if (pg_n != 1)
        memcpy(feas, c.nonzero, nw * sizeof(u64));
    /* covers: every functional is 1 on the empty set; see the pure twin for 0 */
    if (min_critical >= 2)
        memcpy(feas + nw, c.nonzero, nw * sizeof(u64));
    for (depth = 0; depth < n_forced && !c.timed_out; depth++) {
        feas = fwd_slot(&c, depth);
        v = forced[depth];
        if (!bs_get(feas, v))
            break;
        feas[v >> 6] ^= 1ULL << (v & 63);
        fwd_include(&c, v, depth);
    }
    if (depth == n_forced && !c.timed_out) {
        /* forced_out_mask goes last: a forced point may lie in it */
        feas = fwd_slot(&c, depth);
        for (i = 0; i < nw; i++)
            feas[i] &= ~forced_out[i];
        fwd_dfs(&c, depth, depth);
    }
    result = search_result(c.best, c.best_mask, nw, c.nodes, c.timed_out);
done:
    fwd_free(&c);
    free(forced);
    free(forced_out);
    Py_DECREF(seq);
    return result;
}

/* ------------------------------------------------------ complement search */

/* The pure twin's complement_search on word bitsets; its docstring gives
 * the algorithm.  Slot d of each slab belongs to the node at depth d: its
 * blocker, uncovered set and available points; the span its last branch
 * grows; its own fail-first counters, written once its sibling loop first
 * changes the ones it inherits; and its forbidden-flat counters, then the
 * plane of the flats at count 1.  The slabs are calloc'd and a slot is
 * first written on descent, so depths the search never reaches cost no
 * resident memory. */
typedef struct {
    int r, n_all, nw, n_subs, tw, n_planes, max_blocker, maxcov;
    int t, fw; /* forbidden_dim, and the words of a bitset over the t-flats */
    int full_rank, symmetry, use_deadline, timed_out, no_memory;
    int meets_room; /* rows meets may still keep */
    int node_cost;  /* poll ticks per node; see the docstring */
    double deadline;
    long long nodes, ticks; /* ticks: the deadline poll counter */
    int best;
    u64 *best_mask;     /* nw */
    u64 *subs;          /* n_subs * nw */
    u64 *through;       /* n_all * tw: the subspaces through v */
    u64 **meets;        /* n_subs rows of tw, each built when first packed */
    u64 *meets_tmp;     /* tw: a row rebuilt once meets keeps no more */
    u64 *flats_through; /* n_all * fw: the forbidden t-flats through v */
    u64 *nonzero;       /* nw */
    u64 *slab_b;        /* maxd * nw */
    u64 *slab_uncov;    /* maxd * tw */
    u64 *slab_avail;    /* maxd * nw */
    u64 *slab_span;     /* maxd * nw */
    u64 *slab_counts;   /* maxd * n_planes * tw */
    u64 *slab_flats;    /* maxd * (t + 1) * fw */
    u64 *cand;          /* tw */
} CmpCtx;

static void cmp_poll(CmpCtx *c)
{
    if (c->use_deadline && monotonic_now() > c->deadline)
        c->timed_out = 1;
}

/* Bit-sliced counters, plane j holding bit j of every count at
 * src + j * width: dst = src minus 1 wherever borrow is set.  dst may be
 * src.  Serves the fail-first counters and the forbidden-flat ones. */
static void bs_decrement(u64 *dst, const u64 *src, const u64 *borrow, int n_planes, int width)
{
    int j, k;
    u64 b, s;
    for (k = 0; k < width; k++) {
        b = borrow[k];
        for (j = 0; j < n_planes; j++) {
            s = src[(size_t)j * width + k];
            dst[(size_t)j * width + k] = s ^ b;
            b &= ~s;
        }
    }
}

/* Read the point masks masks yields into per-point columns: bit i of
 * cols + v * width is set iff point v is in mask i, the zero vector being
 * no point.  Mask i is kept at rows + i * nw unless rows is NULL.  Each
 * mask is checked as it is read, in order; the deadline is polled every
 * LIST_POLL masks and after the last, and a spent one stops the reading.
 * Serves the family to hit and the forbidden flats.  Returns 0, or -1
 * with an exception set, also when masks yields more than n. */
static int cmp_read_columns(CmpCtx *c, PyObject *masks, Py_ssize_t n, u64 *rows, u64 *cols,
                            int width)
{
    PyObject *it = PyObject_GetIter(masks), *item;
    u64 one[1 << (KERNEL_RANK_MAX - 6)], *row, m;
    Py_ssize_t i = 0;
    int wi, bad;
    if (it == NULL)
        return -1;
    while (!c->timed_out && (item = PyIter_Next(it)) != NULL) {
        if (i == n) {
            Py_DECREF(item);
            PyErr_Format(PyExc_RuntimeError, "more than %zd masks", n);
            break;
        }
        row = rows != NULL ? rows + (size_t)i * c->nw : one;
        bad = read_mask(item, c->r, row, c->nw);
        Py_DECREF(item);
        if (bad < 0)
            break;
        row[0] &= ~1ULL;
        for (wi = 0; wi < c->nw; wi++)
            for (m = row[wi]; m; m &= m - 1)
                bs_set(cols + (size_t)((wi << 6) + ctz64(m)) * width, (int)i);
        if (++i % LIST_POLL == 0)
            cmp_poll(c);
    }
    Py_DECREF(it);
    if (PyErr_Occurred())
        return -1;
    if (i % LIST_POLL != 0)
        cmp_poll(c);
    return 0;
}

/* The subspaces sharing a point with S_i, i included: the OR of
 * through[v] over the points v of S_i, built the first time i is packed
 * and kept while meets_room lasts, then rebuilt in meets_tmp at each use.
 * NULL when a row to keep does not fit in memory. */
static const u64 *cmp_meets(CmpCtx *c, int i)
{
    int k, wi;
    u64 m, *mi = c->meets[i];
    const u64 *tv;
    if (mi != NULL)
        return mi;
    if (c->meets_room > 0) {
        mi = calloc(c->tw, sizeof(u64));
        if (mi == NULL)
            return NULL;
        c->meets[i] = mi;
        c->meets_room--;
    } else {
        mi = c->meets_tmp;
        memset(mi, 0, c->tw * sizeof(u64));
    }
    bs_set(mi, i);
    for (wi = 0; wi < c->nw; wi++) {
        for (m = c->subs[(size_t)i * c->nw + wi]; m; m &= m - 1) {
            tv = c->through + (size_t)((wi << 6) + ctz64(m)) * c->tw;
            for (k = 0; k < c->tw; k++)
                mi[k] |= tv[k];
        }
    }
    return mi;
}

/* max(ceil(u / maxcov), greedy packing of uncov) > slack, u = |uncov|.
 * The packing takes the lowest subspace left and drops the ones meeting
 * it, and stops once it passes slack.  A meets row that does not fit sets
 * no_memory and timed_out. */
static int cmp_bound_exceeds(CmpCtx *c, const u64 *uncov, int slack)
{
    int u = bs_popcount(uncov, c->tw), packed = 0, k = 0, j;
    const u64 *mi;
    if ((u + c->maxcov - 1) / c->maxcov > slack)
        return 1;
    memcpy(c->cand, uncov, c->tw * sizeof(u64));
    for (;;) {
        while (k < c->tw && c->cand[k] == 0)
            k++;
        if (k == c->tw)
            return 0;
        if (++packed > slack)
            return 1;
        mi = cmp_meets(c, (k << 6) + ctz64(c->cand[k]));
        if (mi == NULL) {
            c->no_memory = c->timed_out = 1;
            return 1;
        }
        for (j = k; j < c->tw; j++)
            c->cand[j] &= ~mi[j];
    }
}

/* Fail-first: the lowest uncovered subspace of least count, found by
 * narrowing uncov from the top counter plane down, keeping cand & ~plane
 * whenever it is nonempty.  uncov is nonempty. */
static int cmp_fail_first(CmpCtx *c, const u64 *uncov, const u64 *counts)
{
    int j, k;
    u64 any;
    const u64 *plane;
    memcpy(c->cand, uncov, c->tw * sizeof(u64));
    for (j = c->n_planes - 1; j >= 0; j--) {
        plane = counts + (size_t)j * c->tw;
        any = 0;
        for (k = 0; k < c->tw; k++)
            any |= c->cand[k] & ~plane[k];
        if (any)
            for (k = 0; k < c->tw; k++)
                c->cand[k] &= ~plane[k];
    }
    for (k = 0; c->cand[k] == 0; k++)
        ;
    return (k << 6) + ctz64(c->cand[k]);
}

static void cmp_dfs(CmpCtx *c, int depth, int b_size, const u64 *counts, const u64 *span,
                    int added);

/* Branch on p unless it closes a forbidden flat, that is unless a flat
 * through p is at count 1.  The child B + {p} takes avail and the counters
 * as they stand, and has span(B + {p}) = span. */
static void cmp_branch(CmpCtx *c, int depth, int b_size, const u64 *counts, const u64 *span,
                       int p)
{
    int nw = c->nw, tw = c->tw, k;
    const u64 *fp, *one_left, *tp = c->through + (size_t)p * tw;
    const u64 *b = c->slab_b + (size_t)depth * nw, *uncov = c->slab_uncov + (size_t)depth * tw;
    u64 *cb = c->slab_b + (size_t)(depth + 1) * nw;
    u64 *cu = c->slab_uncov + (size_t)(depth + 1) * tw;
    if (c->t) {
        fp = c->flats_through + (size_t)p * c->fw;
        one_left = c->slab_flats + ((size_t)depth * (c->t + 1) + c->t) * c->fw;
        for (k = 0; k < c->fw; k++)
            if (fp[k] & one_left[k])
                return;
    }
    memcpy(cb, b, nw * sizeof(u64));
    bs_set(cb, p);
    for (k = 0; k < tw; k++)
        cu[k] = uncov[k] & ~tp[k];
    memcpy(c->slab_avail + (size_t)(depth + 1) * nw, c->slab_avail + (size_t)depth * nw,
           nw * sizeof(u64));
    cmp_dfs(c, depth + 1, b_size + 1, counts, span, p);
}

/* One node.  Slot depth holds its blocker B, uncovered set and available
 * points; counts are the fail-first counters it inherits, span is
 * span(B), and added is the point its parent added, -1 at the root. */
static void cmp_dfs(CmpCtx *c, int depth, int b_size, const u64 *counts, const u64 *span,
                    int added)
{
    int nw = c->nw, t = c->t, fw = c->fw, k, j, wi, p, window, last, n_branch;
    u64 m, w, any;
    u64 *b = c->slab_b + (size_t)depth * nw, *avail = c->slab_avail + (size_t)depth * nw;
    u64 *uncov = c->slab_uncov + (size_t)depth * c->tw;
    u64 *own = c->slab_counts + (size_t)depth * c->n_planes * c->tw, *planes, *cspan;
    const u64 *si;
    c->nodes++;
    c->ticks += c->node_cost;
    if (deadline_passed(c->ticks, c->node_cost, c->use_deadline, c->deadline)) {
        c->timed_out = 1;
        return;
    }
    if (bs_isempty(uncov, c->tw)) {
        if (c->full_rank && bs_rank(c->nonzero, b, nw) != c->r)
            return;
        c->best = b_size;
        memcpy(c->best_mask, b, nw * sizeof(u64));
        return;
    }
    window = c->max_blocker;
    if (c->best >= 0 && c->best - 1 < window)
        window = c->best - 1;
    if (cmp_bound_exceeds(c, uncov, window - b_size))
        return;
    si = c->subs + (size_t)cmp_fail_first(c, uncov, counts) * nw;
    any = 0;
    for (k = 0; k < nw; k++)
        any |= si[k] & avail[k];
    if (!any)
        return; /* unhittable in this branch */
    if (t) {
        /* |F \ B| one lower on the flats through the added point; then
         * the plane of the flats at count 1 */
        planes = c->slab_flats + (size_t)depth * (t + 1) * fw;
        if (added >= 0)
            bs_decrement(planes, planes - (size_t)(t + 1) * fw,
                         c->flats_through + (size_t)added * fw, t, fw);
        for (k = 0; k < fw; k++) {
            w = planes[k];
            for (j = 1; j < t; j++)
                w &= ~planes[(size_t)j * fw + k];
            planes[(size_t)t * fw + k] = w;
        }
    }
    /* with symmetry, the points in span(B) first, excluding earlier
     * siblings, then one point outside span(B), which stands for all of
     * them; a point leaves avail and the counters before the next sibling */
    last = -1;
    n_branch = 0;
    for (wi = 0; wi < nw; wi++) {
        m = si[wi] & avail[wi];
        if (c->symmetry) {
            if (last < 0 && (m & ~span[wi]))
                last = (wi << 6) + ctz64(m & ~span[wi]);
            m &= span[wi];
        }
        n_branch += popcnt64(m);
    }
    n_branch += last >= 0;
    for (wi = 0; wi < nw; wi++) {
        for (m = si[wi] & avail[wi] & (c->symmetry ? span[wi] : ~0ULL); m; m &= m - 1) {
            p = (wi << 6) + ctz64(m);
            cmp_branch(c, depth, b_size, counts, span, p);
            if (c->timed_out)
                return;
            if (--n_branch > 0) {
                avail[wi] ^= m & -m;
                bs_decrement(own, counts, c->through + (size_t)p * c->tw, c->n_planes, c->tw);
                counts = own;
            }
        }
    }
    if (last < 0)
        return;
    cspan = c->slab_span + (size_t)(depth + 1) * nw;
    bs_translate(cspan, span, last, nw);
    for (k = 0; k < nw; k++)
        cspan[k] |= span[k];
    cmp_branch(c, depth, b_size, counts, cspan, last);
}

static void cmp_free(CmpCtx *c)
{
    int i;
    if (c->meets != NULL)
        for (i = 0; i < c->n_subs; i++)
            free(c->meets[i]);
    free(c->meets);
    free(c->meets_tmp);
    free(c->best_mask);
    free(c->subs);
    free(c->through);
    free(c->flats_through);
    free(c->nonzero);
    free(c->slab_b);
    free(c->slab_uncov);
    free(c->slab_avail);
    free(c->slab_span);
    free(c->slab_counts);
    free(c->slab_flats);
    free(c->cand);
}

/* The t-flats through each point, listed by gf2.subspace_masks, the
 * pure twin's lister, in its order: [r, t]_2 of them. */
static int cmp_list_flats(CmpCtx *c, size_t maxd)
{
    PyObject *gf2 = PyImport_ImportModule("gf2matroid.gf2"), *count = NULL, *flats = NULL;
    long long n_flats;
    int out = -1;
    if (gf2 == NULL)
        return -1;
    count = PyObject_CallMethod(gf2, "gaussian_binomial", "ii", c->r, c->t);
    if (count == NULL)
        goto done;
    n_flats = PyLong_AsLongLong(count);
    if (n_flats == -1 && PyErr_Occurred())
        goto done;
    if (n_flats > INT_MAX) {
        PyErr_NoMemory();
        goto done;
    }
    c->fw = n_flats > 64 ? (int)((n_flats + 63) >> 6) : 1;
    c->flats_through = calloc((size_t)c->n_all * c->fw, sizeof(u64));
    c->slab_flats = calloc(maxd * (c->t + 1) * c->fw, sizeof(u64));
    if (c->flats_through == NULL || c->slab_flats == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    memset(c->slab_flats, 0xFF, (size_t)c->t * c->fw * sizeof(u64)); /* all 2^t - 1 */
    flats = PyObject_CallMethod(gf2, "subspace_masks", "ii", c->r, c->t);
    if (flats != NULL)
        out = cmp_read_columns(c, flats, (Py_ssize_t)n_flats, NULL, c->flats_through, c->fw);
done:
    Py_XDECREF(flats);
    Py_XDECREF(count);
    Py_DECREF(gf2);
    return out;
}

PyDoc_STRVAR(complement_search_doc,
             "complement_search(r, subspace_masks, forbidden_dim, full_rank, max_blocker,\n"
             "                  budget, symmetry)\n--\n\n"
             "Smallest blocker hitting every given subspace, branch and bound.\n\n"
             "Returns (best_size or -1, blocker_mask, nodes, completed); the pure\n"
             "twin gives the algorithm, its arguments and the symmetry argument.\n\n"
             "The deadline covers reading the family and listing the forbidden\n"
             "flats: it is polled every 256 masks and after the last, each mask\n"
             "checked as it is read, in the pure twin's order.  In the search it\n"
             "is polled whenever a counter passes a multiple of CHECK_INTERVAL.\n"
             "Each node advances it by ((p + 3) * tw + (2t + 1) * fw) / 64 + 1,\n"
             "capped at CHECK_INTERVAL: tw and fw are the words of a bitset over\n"
             "the family and over the t-flats, and p the counter planes.  A node\n"
             "reads its uncovered set and the counters a few times and its flat\n"
             "counters twice, so the work between polls stays about\n"
             "CHECK_INTERVAL * 64 words whatever the family.");

static PyObject *py_complement_search(PyObject *self, PyObject *args, PyObject *kw)
{
    static char *kwlist[] = {"r", "subspace_masks", "forbidden_dim", "full_rank",
                             "max_blocker", "budget", "symmetry", NULL};
    int r, forbidden_dim, full_rank, max_blocker, symmetry;
    PyObject *subs_obj, *budget, *seq, *result = NULL;
    CmpCtx c;
    int n_all, nw, n_subs, tw, i, j, v, mc, most;
    size_t maxd;
    long long words;
    (void)self;

    memset(&c, 0, sizeof(c));
    if (!PyArg_ParseTupleAndKeywords(args, kw, "iOipiOp", kwlist, &r, &subs_obj,
                                     &forbidden_dim, &full_rank, &max_blocker, &budget,
                                     &symmetry))
        return NULL;
    if (check_rank(r) < 0)
        return NULL;
    if (forbidden_dim < 0 || forbidden_dim > r) {
        PyErr_Format(PyExc_ValueError, "forbidden_dim must be in [0, %d], got %d", r,
                     forbidden_dim);
        return NULL;
    }
    seq = PySequence_Fast(subs_obj, "subspace_masks must be a sequence of ints");
    if (seq == NULL)
        return NULL;
    n_all = 1 << r;
    nw = nwords(r);
    n_subs = (int)PySequence_Fast_GET_SIZE(seq);
    tw = n_subs > 64 ? (n_subs + 63) >> 6 : 1;
    /* recursion stops at b_size = min(max_blocker, n_all - 1) */
    maxd = (size_t)(max_blocker < n_all ? (max_blocker > 0 ? max_blocker : 0) : n_all) + 2;

    c.r = r;
    c.n_all = n_all;
    c.nw = nw;
    c.n_subs = n_subs;
    c.tw = tw;
    c.t = forbidden_dim;
    c.max_blocker = max_blocker;
    c.full_rank = full_rank;
    c.symmetry = symmetry;
    c.best = -1;
    c.best_mask = calloc(nw, sizeof(u64));
    c.subs = calloc((size_t)(n_subs > 0 ? n_subs : 1) * nw, sizeof(u64));
    c.through = calloc((size_t)n_all * tw, sizeof(u64));
    c.meets = calloc(n_subs > 0 ? n_subs : 1, sizeof(u64 *));
    c.meets_tmp = calloc(tw, sizeof(u64));
    c.meets_room = MEETS_MAX_WORDS / tw;
    c.nonzero = calloc(nw, sizeof(u64));
    c.slab_b = calloc(maxd * nw, sizeof(u64));
    c.slab_uncov = calloc(maxd * tw, sizeof(u64));
    c.slab_avail = calloc(maxd * nw, sizeof(u64));
    c.slab_span = calloc(maxd * nw, sizeof(u64));
    c.cand = calloc(tw, sizeof(u64));
    if (c.best_mask == NULL || c.subs == NULL || c.through == NULL || c.meets == NULL ||
        c.meets_tmp == NULL || c.nonzero == NULL || c.slab_b == NULL || c.slab_uncov == NULL ||
        c.slab_avail == NULL || c.slab_span == NULL || c.cand == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    if (read_deadline(budget, &c.use_deadline, &c.deadline) < 0)
        goto done;
    if (cmp_read_columns(&c, seq, n_subs, c.subs, c.through, tw) < 0)
        goto done;
    for (v = 1; v < n_all; v++)
        bs_set(c.nonzero, v);
    c.maxcov = 1;
    for (v = 1; v < n_all; v++) {
        mc = bs_popcount(c.through + (size_t)v * tw, tw);
        if (mc > c.maxcov)
            c.maxcov = mc;
    }
    /* |S_i & avail| at the root, the mask sizes, as bit-planes over i */
    most = 0;
    for (i = 0; i < n_subs; i++) {
        mc = bs_popcount(c.subs + (size_t)i * nw, nw);
        most = mc > most ? mc : most;
    }
    while (most >> c.n_planes)
        c.n_planes++;
    c.slab_counts = calloc(maxd * (c.n_planes > 0 ? c.n_planes : 1) * tw, sizeof(u64));
    if (c.slab_counts == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (i = 0; i < n_subs; i++) {
        mc = bs_popcount(c.subs + (size_t)i * nw, nw);
        for (j = 0; j < c.n_planes; j++)
            if ((mc >> j) & 1)
                bs_set(c.slab_counts + (size_t)j * tw, i);
    }
    if (forbidden_dim && !c.timed_out && cmp_list_flats(&c, maxd) < 0)
        goto done;
    words = (long long)(c.n_planes + 3) * tw + (long long)(2 * c.t + 1) * c.fw;
    c.node_cost = (int)(words / 64 + 1 < CHECK_INTERVAL ? words / 64 + 1 : CHECK_INTERVAL);
    /* root: everything uncovered, every point available, span(B) = {0} */
    for (i = 0; i < n_subs; i++)
        bs_set(c.slab_uncov, i);
    memcpy(c.slab_avail, c.nonzero, nw * sizeof(u64));
    bs_set(c.slab_span, 0);
    if (!c.timed_out)
        cmp_dfs(&c, 0, 0, c.slab_counts, c.slab_span, -1);
    if (c.no_memory) {
        PyErr_NoMemory();
        goto done;
    }
    result = search_result(c.best, c.best_mask, nw, c.nodes, c.timed_out);
done:
    cmp_free(&c);
    Py_DECREF(seq);
    return result;
}

/* ------------------------------------------------------------ the module */

static PyMethodDef kernel_methods[] = {
    {"has_subspace_mask", (PyCFunction)(void (*)(void))py_has_subspace_mask,
     METH_VARARGS | METH_KEYWORDS, has_subspace_mask_doc},
    {"min_odd_zero_subset", py_min_odd_zero_subset, METH_O, min_odd_zero_subset_doc},
    {"forward_search", (PyCFunction)(void (*)(void))py_forward_search,
     METH_VARARGS | METH_KEYWORDS, forward_search_doc},
    {"complement_search", (PyCFunction)(void (*)(void))py_complement_search,
     METH_VARARGS | METH_KEYWORDS, complement_search_doc},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef kernel_module = {
    PyModuleDef_HEAD_INIT,
    "gf2matroid._kernels",
    "Compiled search kernels; same contracts as gf2matroid._kernels_py.",
    -1,
    kernel_methods,
    NULL,
    NULL,
    NULL,
    NULL,
};

PyMODINIT_FUNC PyInit__kernels(void)
{
    PyObject *mod = PyModule_Create(&kernel_module);
    if (mod == NULL)
        return NULL;
    if (PyModule_AddStringConstant(mod, "BACKEND_NAME", "c") < 0 ||
        PyModule_AddIntConstant(mod, "KERNEL_RANK_MAX", KERNEL_RANK_MAX) < 0) {
        Py_DECREF(mod);
        return NULL;
    }
    return mod;
}
