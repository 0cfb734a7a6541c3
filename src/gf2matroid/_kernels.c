/* Compiled search kernels: the C twin of gf2matroid._kernels_py.
 *
 * Same call contracts, entry checks, traversal order, pruning rules,
 * node counts and deadline polls as the pure module; point sets live in
 * uint64 word arrays instead of Python big ints.  The pure module is
 * the reference; keep the two in lockstep when changing either.
 *
 * Plain C99 plus the GCC/Clang bit builtins, built by setuptools:
 *     python setup.py build_ext --inplace
 * Python ints cross the boundary through int.to_bytes / int.from_bytes.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

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

typedef struct {
    int r, n_all, nw, T, pg_n, min_critical;
    int full_rank, prune, use_deadline, timed_out;
    double deadline;
    long long nodes, ticks; /* ticks: the deadline poll counter */
    int best;
    u64 *best_mask;   /* nw */
    u64 *hit;         /* n_all * nw */
    u64 *nonzero;     /* nw */
    u64 *slab_chosen; /* maxd * nw */
    u64 *slab_sums;   /* maxd * (T+1) * nw */
    u64 *slab_covers; /* maxd * nw */
    u16 *slab_piv;    /* maxd * r */
    u16 *slab_feas;   /* maxd * n_all */
    u64 *scratch;     /* tmp, rest, free, pair: nw each; then 2 * nw * (r + 1) */
} FwdCtx;

/* subspace_in(mask, d) found a subspace; the call advances the poll
 * counter by FINDER_COST and may set timed_out. */
static int fwd_finds(FwdCtx *c, const u64 *mask, int d)
{
    int found = subspace_in(mask, d, c->r, c->nw, c->scratch + 4 * c->nw);
    c->ticks += FINDER_COST;
    if (deadline_passed(c->ticks, FINDER_COST, c->use_deadline, c->deadline))
        c->timed_out = 1;
    return found;
}

/* May w join chosen?  With v != 0, w was feasible before v joined chosen,
 * and pair is chosen & T_v(chosen): only flats through v are tested.  The
 * argument is in the pure twin's forward_search docstring. */
static int fwd_feasible(FwdCtx *c, int w, const u64 *chosen, const u64 *sums, int v,
                        const u64 *pair)
{
    int t, i, d = c->pg_n - 1;
    const u64 *base = chosen;
    u64 *tmp = c->scratch, *rest = c->scratch + c->nw;
    for (t = 2; t <= c->T; t += 2)
        if (bs_get(sums + t * c->nw, w))
            return 0;
    if (c->pg_n == 1)
        return 0;
    if (c->pg_n >= 3) {
        if (v) {
            if (!bs_get(chosen, v ^ w))
                return 1;
            base = pair;
            d = c->pg_n - 2;
        }
        bs_translate(tmp, base, w, c->nw);
        for (i = 0; i < c->nw; i++)
            rest[i] = base[i] & tmp[i];
        if (fwd_finds(c, rest, d))
            return 0;
    }
    return 1;
}

static int fwd_passes_extra(FwdCtx *c, const u64 *chosen, const u64 *covers, int rank)
{
    int i;
    u64 *freebuf = c->scratch + 2 * c->nw;
    if (c->min_critical >= 2 && !bs_isempty(covers, c->nw))
        return 0;
    if (c->min_critical >= 3) {
        for (i = 0; i < c->nw; i++)
            freebuf[i] = c->nonzero[i] & ~chosen[i];
        if (fwd_finds(c, freebuf, c->r - c->min_critical + 1))
            return 0;
    }
    if (c->full_rank && rank != c->r)
        return 0;
    return 1;
}

/* Write the state with v added into slab slot depth+1; return the new rank. */
static int fwd_include(FwdCtx *c, int v, int depth, const u64 *chosen, const u64 *sums,
                       const u64 *covers, const u16 *piv, int rank)
{
    int nw = c->nw, t, i, p;
    u64 w;
    u64 *nc = c->slab_chosen + (depth + 1) * nw;
    u64 *ns = c->slab_sums + (size_t)(depth + 1) * (c->T + 1) * nw;
    u64 *ncov = c->slab_covers + (depth + 1) * nw;
    u16 *npiv = c->slab_piv + (depth + 1) * c->r;
    const u64 *hv = c->hit + (size_t)v * nw;
    u64 *tmp = c->scratch;
    memcpy(nc, chosen, nw * sizeof(u64));
    bs_set(nc, v);
    memcpy(ns, sums, (size_t)(c->T + 1) * nw * sizeof(u64));
    for (t = c->T; t >= 2; t--) {
        bs_translate(tmp, ns + (t - 1) * nw, v, nw);
        for (i = 0; i < nw; i++)
            ns[t * nw + i] |= tmp[i];
    }
    if (c->T >= 1)
        bs_set(ns + nw, v);
    for (i = 0; i < nw; i++)
        ncov[i] = covers[i] & hv[i];
    memcpy(npiv, piv, c->r * sizeof(u16));
    for (w = (u64)v; w; w ^= npiv[p]) {
        p = msb64(w);
        if (npiv[p] == 0) {
            npiv[p] = (u16)w;
            return rank + 1;
        }
    }
    return rank;
}

/* The half-space bound, for odd girth >= 5: some f in covers leaves any
 * completion at most min(size + |one|, 2^(r-2)) + min(|zero|, 2^(r-2))
 * <= best points.  |one| = |feas & hit[f]| is counted over the feas list on
 * row f of hit, hit being symmetric.  The reach test before it has already
 * returned when some zero is empty.  The argument is in the pure twin's
 * forward_search docstring. */
static int fwd_half_space_bound(FwdCtx *c, const u16 *feas, int nf, const u64 *covers,
                                int size)
{
    int k, f, i, n_one, a, b, half = 1 << (c->r - 2);
    u64 word;
    const u64 *hf;
    for (k = 0; k < c->nw; k++) {
        for (word = covers[k]; word; word &= word - 1) {
            f = (k << 6) + ctz64(word);
            hf = c->hit + (size_t)f * c->nw;
            n_one = 0;
            for (i = 0; i < nf; i++)
                n_one += bs_get(hf, feas[i]);
            a = size + n_one < half ? size + n_one : half;
            b = nf - n_one < half ? nf - n_one : half;
            if (a + b <= c->best)
                return 1;
        }
    }
    return 0;
}

static void fwd_dfs(FwdCtx *c, int depth, const u16 *feas, int nf, const u64 *chosen,
                    const u64 *sums, const u64 *covers, const u16 *piv, int rank, int size)
{
    int i, k, v, nrank, cnf, nonempty;
    const u64 *hw;
    u64 *reach, *c2, *s2, *pair;
    u16 *cfeas;
    c->nodes++;
    c->ticks++;
    if (deadline_passed(c->ticks, 1, c->use_deadline, c->deadline)) {
        c->timed_out = 1;
        return;
    }
    if (size > c->best && fwd_passes_extra(c, chosen, covers, rank) && !c->timed_out) {
        c->best = size;
        memcpy(c->best_mask, chosen, c->nw * sizeof(u64));
    }
    if (c->timed_out)
        return;
    if (nf == 0)
        return;
    if (c->prune && size + nf <= c->best)
        return;
    if (c->prune && c->min_critical >= 2) {
        reach = c->scratch + 2 * c->nw;
        memcpy(reach, covers, c->nw * sizeof(u64));
        nonempty = !bs_isempty(reach, c->nw);
        for (i = 0; i < nf && nonempty; i++) {
            hw = c->hit + (size_t)feas[i] * c->nw;
            nonempty = 0;
            for (k = 0; k < c->nw; k++) {
                reach[k] &= hw[k];
                if (reach[k])
                    nonempty = 1;
            }
        }
        if (nonempty)
            return; /* every completion stays affine */
        if (c->T >= 2 && fwd_half_space_bound(c, feas, nf, covers, size))
            return;
    }
    v = feas[0];
    nrank = fwd_include(c, v, depth, chosen, sums, covers, piv, rank);
    c2 = c->slab_chosen + (depth + 1) * c->nw;
    s2 = c->slab_sums + (size_t)(depth + 1) * (c->T + 1) * c->nw;
    cfeas = c->slab_feas + (size_t)(depth + 1) * c->n_all;
    pair = c->scratch + 3 * c->nw;
    if (c->pg_n >= 3) {
        bs_translate(pair, c2, v, c->nw);
        for (k = 0; k < c->nw; k++)
            pair[k] &= c2[k];
    }
    cnf = 0;
    for (i = 1; i < nf; i++) {
        if (fwd_feasible(c, feas[i], c2, s2, v, pair))
            cfeas[cnf++] = feas[i];
        if (c->timed_out)
            return;
    }
    fwd_dfs(c, depth + 1, cfeas, cnf, c2, s2, c->slab_covers + (depth + 1) * c->nw,
            c->slab_piv + (depth + 1) * c->r, nrank, size + 1);
    if (c->timed_out)
        return;
    fwd_dfs(c, depth + 1, feas + 1, nf - 1, chosen, sums, covers, piv, rank, size);
}

static void fwd_free(FwdCtx *c)
{
    free(c->best_mask);
    free(c->hit);
    free(c->nonzero);
    free(c->slab_chosen);
    free(c->slab_sums);
    free(c->slab_covers);
    free(c->slab_piv);
    free(c->slab_feas);
    free(c->scratch);
}

PyDoc_STRVAR(forward_search_doc,
             "forward_search(r, min_odd_girth, pg_free_order, min_critical, full_rank,\n"
             "               forced_in, forced_out_mask, budget, prune=True)\n--\n\n"
             "Maximum point set under the given constraints, include-first DFS.\n\n"
             "Returns (best_size or -1, witness_mask, nodes, completed); see the\n"
             "pure twin for the contract details.\n\n"
             "After v is included, the flat gate re-tests a surviving candidate w\n"
             "only for flats through v and w.  Every w in feas was already feasible\n"
             "for the chosen set without v, so any new rank-n flat F in\n"
             "chosen + {v, w} contains both v and w.  F then contains v ^ w, which\n"
             "must be a chosen point; this one bit test clears most w.  Otherwise\n"
             "F = span(v, w) + U with U an (n-2)-dimensional subspace whose nonzero\n"
             "vectors lie in chosen & T_v(chosen) & T_w(chosen) & T_{v^w}(chosen),\n"
             "T_x being translation by x.  That set avoids span(v, w), so the test\n"
             "is one subspace_in(rest, n-2, r) call on a much sparser mask, and\n"
             "the verdict, the tree and the node count are those of the full test.\n"
             "The root filter and the forced points use the full test.\n\n"
             "With odd girth >= 5 and critical demand >= 2, a node returns when\n"
             "some functional f that is 1 on every chosen point leaves any\n"
             "completion at most min(size + |one|, 2^(r-2)) + min(|zero|, 2^(r-2))\n"
             "<= best points, one and zero being the candidates with f = 1 and\n"
             "f = 0; the argument is in the pure twin's docstring.\n\n"
             "Sums of more than r chosen points are never tested: an odd circuit\n"
             "has at most r + 1 points, so capping girth - 3 at the largest\n"
             "even number <= r leaves every verdict unchanged.\n\n"
             "The deadline is polled whenever a counter passes a multiple of\n"
             "CHECK_INTERVAL; each node advances it by 1 and each flat-finder call\n"
             "by FINDER_COST.");

static PyObject *py_forward_search(PyObject *self, PyObject *args, PyObject *kw)
{
    static char *kwlist[] = {"r", "min_odd_girth", "pg_free_order", "min_critical",
                             "full_rank", "forced_in", "forced_out_mask", "budget",
                             "prune", NULL};
    int r, girth, pg_n, min_critical, full_rank, prune = 1;
    PyObject *forced_in_obj, *forced_out_obj, *budget, *seq = NULL, *result = NULL;
    Py_ssize_t n_forced = 0, j, k;
    FwdCtx c;
    int n_all, nw, T, maxd, v, x, size, rank, depth, nf, dead = 0, overflow;
    long fv;
    int *forced = NULL;
    u16 *feas, *piv;
    u64 *forced_out = NULL, *chosen, *sums, *covers;
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
        T = r & ~1; /* see the docstring */

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

    maxd = n_all + (int)n_forced + 4;
    c.r = r;
    c.n_all = n_all;
    c.nw = nw;
    c.T = T;
    c.pg_n = pg_n;
    c.min_critical = min_critical;
    c.full_rank = full_rank;
    c.prune = prune;
    c.best = -1;
    c.best_mask = calloc(nw, sizeof(u64));
    c.hit = calloc((size_t)n_all * nw, sizeof(u64));
    c.nonzero = calloc(nw, sizeof(u64));
    c.slab_chosen = calloc((size_t)maxd * nw, sizeof(u64));
    c.slab_sums = calloc((size_t)maxd * (T + 1) * nw, sizeof(u64));
    c.slab_covers = calloc((size_t)maxd * nw, sizeof(u64));
    c.slab_piv = calloc((size_t)maxd * r, sizeof(u16));
    c.slab_feas = calloc((size_t)maxd * n_all, sizeof(u16));
    c.scratch = calloc(4 * nw + 2 * nw * (r + 1), sizeof(u64));
    if (c.best_mask == NULL || c.hit == NULL || c.nonzero == NULL || c.slab_chosen == NULL ||
        c.slab_sums == NULL || c.slab_covers == NULL || c.slab_piv == NULL ||
        c.slab_feas == NULL || c.scratch == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    if (read_deadline(budget, &c.use_deadline, &c.deadline) < 0)
        goto done;

    /* functionals hitting v, as a bitset over f; dot is symmetric */
    for (v = 1; v < n_all; v++) {
        for (x = 1; x < n_all; x++)
            if (popcnt64((u64)(v & x)) & 1)
                bs_set(c.hit + (size_t)v * nw, x);
        bs_set(c.nonzero, v);
    }

    /* root state in slab slot 0 */
    chosen = c.slab_chosen;
    sums = c.slab_sums;
    covers = c.slab_covers;
    piv = c.slab_piv;
    bs_set(sums, 0); /* the empty subset sums to zero */
    memcpy(covers, c.nonzero, nw * sizeof(u64));
    size = 0;
    rank = 0;
    depth = 0;
    for (j = 0; j < n_forced; j++) {
        v = forced[j];
        if (!fwd_feasible(&c, v, chosen, sums, 0, NULL) || c.timed_out) {
            dead = 1;
            break;
        }
        rank = fwd_include(&c, v, depth, chosen, sums, covers, piv, rank);
        depth++;
        chosen = c.slab_chosen + depth * nw;
        sums = c.slab_sums + (size_t)depth * (T + 1) * nw;
        covers = c.slab_covers + depth * nw;
        piv = c.slab_piv + depth * r;
        size++;
    }
    if (!dead) {
        feas = c.slab_feas + (size_t)depth * n_all;
        nf = 0;
        for (v = n_all - 1; v > 0 && !c.timed_out; v--)
            if (!bs_get(chosen, v) && !bs_get(forced_out, v) &&
                fwd_feasible(&c, v, chosen, sums, 0, NULL))
                feas[nf++] = (u16)v;
        if (!c.timed_out)
            fwd_dfs(&c, depth, feas, nf, chosen, sums, covers, piv, rank, size);
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

/* The pure twin packs by memoised meets[] sets and keeps bit-sliced
 * forbidden-flat counters; this one rescans and asks subspace_in, so the
 * lockstep tests compare two independent versions of both tests. */

typedef struct {
    int r, n_all, nw, n_subs, tw, forbidden_dim, max_blocker, maxcov;
    int full_rank, symmetry, use_deadline, timed_out;
    double deadline;
    long long nodes;
    int best;
    u64 *best_mask;    /* nw */
    u64 *subs;         /* n_subs * nw */
    u64 *through;      /* n_all * tw */
    u64 *nonzero;      /* nw */
    u64 *slab_b;       /* maxd * nw */
    u64 *slab_uncov;   /* maxd * tw */
    u64 *slab_avail;   /* maxd * nw */
    u64 *slab_removed; /* maxd * nw */
    u64 *slab_span;    /* maxd * nw */
    u64 *taken;        /* nw */
    u64 *scratch;      /* 2 * nw + 2 * nw * (r + 1) */
} CmpCtx;

static int cmp_lower_bound(CmpCtx *c, const u64 *uncov)
{
    int u = bs_popcount(uncov, c->tw), bound, packed = 0, wi, i, k, disjoint;
    const u64 *si;
    u64 m;
    if (u == 0)
        return 0;
    bound = (u + c->maxcov - 1) / c->maxcov;
    memset(c->taken, 0, c->nw * sizeof(u64));
    for (wi = 0; wi < c->tw; wi++) {
        m = uncov[wi];
        while (m) {
            i = (wi << 6) + ctz64(m);
            m &= m - 1;
            si = c->subs + (size_t)i * c->nw;
            disjoint = 1;
            for (k = 0; k < c->nw; k++) {
                if (si[k] & c->taken[k]) {
                    disjoint = 0;
                    break;
                }
            }
            if (disjoint) {
                for (k = 0; k < c->nw; k++)
                    c->taken[k] |= si[k];
                packed++;
            }
        }
    }
    return bound > packed ? bound : packed;
}

static int cmp_closes_forbidden(CmpCtx *c, const u64 *b_mask, int p)
{
    int i;
    u64 *tmp = c->scratch, *rest = c->scratch + c->nw;
    bs_translate(tmp, b_mask, p, c->nw);
    for (i = 0; i < c->nw; i++)
        rest[i] = b_mask[i] & tmp[i];
    return subspace_in(rest, c->forbidden_dim - 1, c->r, c->nw, c->scratch + 2 * c->nw);
}

static void cmp_dfs(CmpCtx *c, int depth, const u64 *b_mask, int b_size, const u64 *uncov,
                    const u64 *avail, const u64 *span);

/* Branch on p unless it closes a forbidden flat: the child B + {p} sees
 * avail minus the points this node has removed, p included, and has
 * span(B + {p}) = span. */
static void cmp_branch(CmpCtx *c, int depth, const u64 *b_mask, int b_size,
                       const u64 *uncov, const u64 *avail, int p, const u64 *span)
{
    int k;
    u64 *removed = c->slab_removed + depth * c->nw;
    u64 *cb = c->slab_b + (depth + 1) * c->nw;
    u64 *cu = c->slab_uncov + (size_t)(depth + 1) * c->tw;
    u64 *ca = c->slab_avail + (depth + 1) * c->nw;
    const u64 *tp = c->through + (size_t)p * c->tw;
    bs_set(removed, p);
    if (c->forbidden_dim && cmp_closes_forbidden(c, b_mask, p))
        return;
    memcpy(cb, b_mask, c->nw * sizeof(u64));
    bs_set(cb, p);
    for (k = 0; k < c->tw; k++)
        cu[k] = uncov[k] & ~tp[k];
    for (k = 0; k < c->nw; k++)
        ca[k] = avail[k] & ~removed[k];
    cmp_dfs(c, depth + 1, cb, b_size + 1, cu, ca, span);
}

/* span: the span of b_mask, as a bitset over the vectors. */
static void cmp_dfs(CmpCtx *c, int depth, const u64 *b_mask, int b_size, const u64 *uncov,
                    const u64 *avail, const u64 *span)
{
    int i, k, wi, p, window, sel, sel_count, cnt, rank, pp;
    u64 m, w;
    const u64 *pts, *si;
    u64 *cspan;
    u16 piv[16];
    c->nodes++;
    if (deadline_passed(c->nodes, 1, c->use_deadline, c->deadline)) {
        c->timed_out = 1;
        return;
    }
    if (bs_isempty(uncov, c->tw)) {
        if (c->full_rank) {
            memset(piv, 0, sizeof(piv));
            rank = 0;
            for (wi = 0; wi < c->nw; wi++) {
                m = c->nonzero[wi] & ~b_mask[wi];
                while (m) {
                    w = (u64)((wi << 6) + ctz64(m));
                    m &= m - 1;
                    for (; w; w ^= piv[pp]) {
                        pp = msb64(w);
                        if (piv[pp] == 0) {
                            piv[pp] = (u16)w;
                            rank++;
                            break;
                        }
                    }
                }
            }
            if (rank != c->r)
                return;
        }
        c->best = b_size;
        memcpy(c->best_mask, b_mask, c->nw * sizeof(u64));
        return;
    }
    window = c->max_blocker;
    if (c->best >= 0 && c->best - 1 < window)
        window = c->best - 1;
    if (b_size + cmp_lower_bound(c, uncov) > window)
        return;
    /* fail-first: uncovered subspace with fewest available points */
    sel = -1;
    sel_count = 1 << 30;
    for (wi = 0; wi < c->tw; wi++) {
        m = uncov[wi];
        while (m) {
            i = (wi << 6) + ctz64(m);
            m &= m - 1;
            si = c->subs + (size_t)i * c->nw;
            cnt = 0;
            for (k = 0; k < c->nw; k++)
                cnt += popcnt64(si[k] & avail[k]);
            if (cnt == 0)
                return; /* unhittable in this branch */
            if (cnt < sel_count) {
                sel = i;
                sel_count = cnt;
            }
        }
    }
    memset(c->slab_removed + depth * c->nw, 0, c->nw * sizeof(u64));
    pts = c->subs + (size_t)sel * c->nw;
    /* with symmetry, the points in span(B) first, excluding earlier siblings */
    for (wi = 0; wi < c->nw; wi++) {
        m = pts[wi] & avail[wi];
        if (c->symmetry)
            m &= span[wi];
        while (m) {
            p = (wi << 6) + ctz64(m);
            m &= m - 1;
            cmp_branch(c, depth, b_mask, b_size, uncov, avail, p, span);
            if (c->timed_out)
                return;
        }
    }
    if (!c->symmetry)
        return;
    /* then one point outside span(B), which stands for all of them */
    for (wi = 0; wi < c->nw; wi++) {
        m = pts[wi] & avail[wi] & ~span[wi];
        if (m) {
            p = (wi << 6) + ctz64(m);
            cspan = c->slab_span + (depth + 1) * c->nw;
            bs_translate(cspan, span, p, c->nw);
            for (k = 0; k < c->nw; k++)
                cspan[k] |= span[k];
            cmp_branch(c, depth, b_mask, b_size, uncov, avail, p, cspan);
            return;
        }
    }
}

static void cmp_free(CmpCtx *c)
{
    free(c->best_mask);
    free(c->subs);
    free(c->through);
    free(c->nonzero);
    free(c->slab_b);
    free(c->slab_uncov);
    free(c->slab_avail);
    free(c->slab_removed);
    free(c->slab_span);
    free(c->taken);
    free(c->scratch);
}

PyDoc_STRVAR(complement_search_doc,
             "complement_search(r, subspace_masks, forbidden_dim, full_rank, max_blocker,\n"
             "                  budget, symmetry)\n--\n\n"
             "Smallest blocker hitting every given subspace, branch and bound.\n\n"
             "Returns (best_size or -1, blocker_mask, nodes, completed); see the\n"
             "pure twin for the contract details.\n\n"
             "symmetry=True needs a subspace family closed under GL(r,2).  A node\n"
             "with blocker B, excluded points X and chosen subspace S branches on\n"
             "each available point of S & span(B), ascending and excluding earlier\n"
             "siblings, then once on the lowest point of S outside span(B).  Only\n"
             "points of span(B) are ever excluded, so X lies in span(B).  The\n"
             "pointwise stabiliser of span(B) in GL(r,2) fixes B and X, moves any\n"
             "point outside span(B) to any other and preserves the family, the\n"
             "forbidden flats, the full-rank test and sizes; so a valid blocker\n"
             "meeting S only outside span(B) has an image in the last branch.\n"
             "For forbidden_dim >= 2 that last point closes no forbidden flat.\n"
             "At the root span(B) = {0}: a single branch.  span(B) is kept per\n"
             "depth and grown by one translation in the last branch.");

static PyObject *py_complement_search(PyObject *self, PyObject *args, PyObject *kw)
{
    static char *kwlist[] = {"r", "subspace_masks", "forbidden_dim", "full_rank",
                             "max_blocker", "budget", "symmetry", NULL};
    int r, forbidden_dim, full_rank, max_blocker, symmetry;
    PyObject *subs_obj, *budget, *seq, *result = NULL;
    CmpCtx c;
    int n_all, nw, n_subs, tw, maxd, i, v, mc, wi;
    u64 m;
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
    maxd = (max_blocker < n_all ? max_blocker : n_all) + 2;
    if (maxd < 2)
        maxd = 2;

    c.r = r;
    c.n_all = n_all;
    c.nw = nw;
    c.n_subs = n_subs;
    c.tw = tw;
    c.forbidden_dim = forbidden_dim;
    c.max_blocker = max_blocker;
    c.full_rank = full_rank;
    c.symmetry = symmetry;
    c.best = -1;
    c.best_mask = calloc(nw, sizeof(u64));
    c.subs = calloc((size_t)(n_subs > 0 ? n_subs : 1) * nw, sizeof(u64));
    c.through = calloc((size_t)n_all * tw, sizeof(u64));
    c.nonzero = calloc(nw, sizeof(u64));
    c.slab_b = calloc((size_t)maxd * nw, sizeof(u64));
    c.slab_uncov = calloc((size_t)maxd * tw, sizeof(u64));
    c.slab_avail = calloc((size_t)maxd * nw, sizeof(u64));
    c.slab_removed = calloc((size_t)maxd * nw, sizeof(u64));
    c.slab_span = calloc((size_t)maxd * nw, sizeof(u64));
    c.taken = calloc(nw, sizeof(u64));
    c.scratch = calloc(2 * nw + 2 * nw * (r + 1), sizeof(u64));
    if (c.best_mask == NULL || c.subs == NULL || c.through == NULL || c.nonzero == NULL ||
        c.slab_b == NULL || c.slab_uncov == NULL || c.slab_avail == NULL ||
        c.slab_removed == NULL || c.slab_span == NULL || c.taken == NULL ||
        c.scratch == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (i = 0; i < n_subs; i++) {
        if (read_mask(PySequence_Fast_GET_ITEM(seq, i), r, c.subs + (size_t)i * nw, nw) < 0)
            goto done;
        c.subs[(size_t)i * nw] &= ~1ULL; /* the zero vector is no point */
    }
    if (read_deadline(budget, &c.use_deadline, &c.deadline) < 0)
        goto done;

    for (i = 0; i < n_subs; i++) {
        for (wi = 0; wi < nw; wi++) {
            m = c.subs[(size_t)i * nw + wi];
            while (m) {
                v = (wi << 6) + ctz64(m);
                m &= m - 1;
                bs_set(c.through + (size_t)v * tw, i);
            }
        }
    }
    for (v = 1; v < n_all; v++)
        bs_set(c.nonzero, v);
    c.maxcov = 1;
    for (v = 1; v < n_all; v++) {
        mc = bs_popcount(c.through + (size_t)v * tw, tw);
        if (mc > c.maxcov)
            c.maxcov = mc;
    }
    /* root: everything uncovered, every point available, span(B) = {0} */
    for (i = 0; i < n_subs; i++)
        bs_set(c.slab_uncov, i);
    memcpy(c.slab_avail, c.nonzero, nw * sizeof(u64));
    bs_set(c.slab_span, 0);
    cmp_dfs(&c, 0, c.slab_b, 0, c.slab_uncov, c.slab_avail, c.slab_span);
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
