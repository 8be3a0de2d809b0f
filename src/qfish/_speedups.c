/* Compiled dense polynomial kernel (schoolbook, exact), and the inner-sum
 * DP built on it.
 *
 * mul_trunc has the same contract as qfish._kernels, whose one entry point
 * mul_trunc(a, b, n) takes sequences of ints and returns a new list of
 * ints, bit for bit equal to the pure module; mul_trunc(a, b, n, out, off)
 * adds the nonzero ones into the list out[off:] instead (checked before any
 * write) and returns out.  A product runs here on C arrays when every
 * coefficient fits in a long long other than LLONG_MIN and
 * max|a| * max|b| * overlap < 2^62, so no partial sum can overflow.  Any
 * other product is handed, with out, to qfish._kernels.mul_trunc, the one
 * big-integer convolution.
 *
 * pool_dp(m, a, fac_n, fac_np1, order, graded) is the (S, A)-pool DP of
 * qfish.torus._pool_dp for q-series factors, on int64 arrays under the same
 * product bound; it returns NotImplemented, and the caller runs its Python
 * loop, wherever a value would leave int64.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <limits.h>

/* Read xs[0..len) into buf.  Returns 1 when every element fits the int64
 * lane, 0 when some does not, -1 with TypeError for a non-int.  The scan
 * always covers every element, so a non-int raises before any handoff. */
static int
read_coeffs(PyObject **xs, Py_ssize_t len, long long *buf,
            unsigned long long *maxabs)
{
    unsigned long long m = 0;
    int fits = 1;
    for (Py_ssize_t i = 0; i < len; i++) {
        int overflow;
        long long v;
        if (!PyLong_Check(xs[i])) {
            PyErr_Format(PyExc_TypeError,
                         "coefficients must be int, not %.200s",
                         Py_TYPE(xs[i])->tp_name);
            return -1;
        }
        v = PyLong_AsLongLongAndOverflow(xs[i], &overflow);
        if (v == -1 && PyErr_Occurred())
            return -1;
        if (overflow || v == LLONG_MIN)
            fits = 0;
        else {
            unsigned long long u = v < 0 ? -(unsigned long long)v : (unsigned long long)v;
            if (u > m)
                m = u;
        }
        buf[i] = v;
    }
    *maxabs = m;
    return fits;
}

#define BITS(x) (64 - __builtin_clzll(x))

/* ma * mb * overlap < 2^62 for nonzero ma, mb and overlap, decided without
 * overflowing 64 bits: by bit lengths when they settle it, else exactly. */
static int
below_fast_limit(unsigned long long ma, unsigned long long mb,
                 unsigned long long overlap)
{
    const unsigned long long lim = ((unsigned long long)1 << 62) - 1;
    if (BITS(ma) + BITS(mb) + BITS(overlap) <= 62)
        return 1;
    return ma <= lim / mb && ma * mb <= lim / overlap;
}

/* acc[0..n) = the first n coefficients of pa[0..la) * pb[0..lb), la, lb <= n,
 * under the product bound, so no partial sum overflows. */
static void
conv_int64(const long long *pa, Py_ssize_t la, const long long *pb,
           Py_ssize_t lb, long long *acc, Py_ssize_t n)
{
    memset(acc, 0, (size_t)n * sizeof(long long));
    for (Py_ssize_t i = 0; i < la; i++) {
        const long long ai = pa[i];
        const Py_ssize_t jmax = lb < n - i ? lb : n - i;
        long long *row = acc + i;
        if (ai == 0)
            continue;
        for (Py_ssize_t j = 0; j < jmax; j++)
            row[j] += ai * pb[j];
    }
}

/* out[i] += x, by a checked C add when out[i] is an exact int in range.  Code
 * run by PyNumber_Add or by freeing an old item may resize out: check i. */
static int
add_into(PyObject *out, Py_ssize_t i, long long x)
{
    PyObject *item = PyList_GetItem(out, i), *v, *sum;
    long long y;
    int overflow;
    if (item == NULL)
        return -1;
    if (PyLong_CheckExact(item)) {
        y = PyLong_AsLongLongAndOverflow(item, &overflow);
        if (!overflow && !__builtin_add_overflow(y, x, &y))
            return (v = PyLong_FromLongLong(y)) ? PyList_SetItem(out, i, v) : -1;
    }
    if ((v = PyLong_FromLongLong(x)) == NULL)
        return -1;
    Py_INCREF(item);  /* PyNumber_Add may run code that drops it from out */
    sum = PyNumber_Add(item, v);
    Py_DECREF(item);
    Py_DECREF(v);
    return sum ? PyList_SetItem(out, i, sum) : -1;
}

/* The n values c[0 .. n-1] as a new list of ints. */
static inline PyObject *
int64_list(const long long *c, Py_ssize_t n)
{
    PyObject *res = PyList_New(n);
    if (res == NULL)
        return NULL;
    for (Py_ssize_t k = 0; k < n; k++) {
        PyObject *v = PyLong_FromLongLong(c[k]);
        if (v == NULL) {
            Py_DECREF(res);
            return NULL;
        }
        PyList_SET_ITEM(res, k, v);
    }
    return res;
}

static PyObject *
mul_int64(const long long *pa, Py_ssize_t la, const long long *pb,
          Py_ssize_t lb, long long *acc, Py_ssize_t n, PyObject *out,
          Py_ssize_t off)
{
    conv_int64(pa, la, pb, lb, acc, n);
    if (out == NULL)
        return int64_list(acc, n);
    for (Py_ssize_t k = 0; k < n; k++)
        if (acc[k] != 0 && add_into(out, off + k, acc[k]) < 0)
            return NULL;
    return Py_NewRef(out);
}

static PyObject *
prefix(PyObject *seq, Py_ssize_t len)
{
    return PyList_Check(seq) ? PyList_GetSlice(seq, 0, len) : PyTuple_GetSlice(seq, 0, len);
}

/* qfish._kernels.mul_trunc, fetched once at module init */
static PyObject *pure_mul_trunc;

/* First n coefficients of a * b, n already clipped to [1, la + lb - 1],
 * added into out[off:] unless out is NULL. */
static PyObject *
mul_impl(PyObject *seq_a, PyObject *seq_b, Py_ssize_t n, PyObject *out,
         Py_ssize_t off)
{
    PyObject **a = PySequence_Fast_ITEMS(seq_a), **b = PySequence_Fast_ITEMS(seq_b);
    /* coefficients at index >= n cannot reach the first n of the product */
    Py_ssize_t la = Py_MIN(PySequence_Fast_GET_SIZE(seq_a), n);
    Py_ssize_t lb = Py_MIN(PySequence_Fast_GET_SIZE(seq_b), n);
    unsigned long long ma, mb;
    int fa, fb;
    PyObject *res = NULL;
    /* one block: a's values, b's values, then n accumulator slots */
    long long *pa = PyMem_Malloc((size_t)(la + lb + n) * sizeof(long long)), *pb;
    if (pa == NULL)
        return PyErr_NoMemory();
    pb = pa + la;
    fa = read_coeffs(a, la, pa, &ma);
    fb = fa < 0 ? -1 : read_coeffs(b, lb, pb, &mb);
    if (fa == 1 && fb == 1 && (ma == 0 || mb == 0 || below_fast_limit(ma, mb, Py_MIN(la, lb)))) {
        res = mul_int64(pa, la, pb, lb, pb + lb, n, out, off);
    }
    else if (fb >= 0) {  /* fb < 0: a non-int, TypeError set */
        /* The pure kernel multiplies through the number protocol, which can
         * run Python code (an int subclass's __mul__) that mutates an
         * operand list, so hand it private copies of the prefixes in use. */
        PyObject *ca = prefix(seq_a, la), *cb = ca ? prefix(seq_b, lb) : NULL;
        if (cb != NULL)
            res = PyObject_CallFunction(pure_mul_trunc, "OOnOn", ca, cb, n,
                                        out ? out : Py_None, off);
        Py_XDECREF(ca);
        Py_XDECREF(cb);
    }
    PyMem_Free(pa);
    return res;
}

#define NOT_SEQ "operands must be sequences of int"

/* mul_trunc(a, b, n, out=None, off=0): the module's one entry point */
static PyObject *
kernel_mul_trunc(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *res = NULL, *out, *seq_a, *seq_b;
    Py_ssize_t n, off;
    if (nargs < 3 || nargs > 5) {
        PyErr_Format(PyExc_TypeError, "mul_trunc() takes 3 to 5 arguments (%zd given)", nargs);
        return NULL;
    }
    /* clipped rather than OverflowError: a huge n asks for every coefficient,
     * and a huge off is past the end of any out */
    n = PyNumber_AsSsize_t(args[2], NULL);
    if (n == -1 && PyErr_Occurred())
        return NULL;
    off = nargs > 4 ? PyNumber_AsSsize_t(args[4], NULL) : 0;
    if (off == -1 && PyErr_Occurred())
        return NULL;
    out = nargs > 3 && args[3] != Py_None ? args[3] : NULL;
    seq_a = PySequence_Fast(args[0], NOT_SEQ);
    seq_b = seq_a ? PySequence_Fast(args[1], NOT_SEQ) : NULL;
    if (seq_b != NULL) {
        Py_ssize_t la = PySequence_Fast_GET_SIZE(seq_a), lb = PySequence_Fast_GET_SIZE(seq_b);
        n = la == 0 || lb == 0 || n <= 0 ? 0 : Py_MIN(n, la + lb - 1);
        if (out != NULL && !PyList_Check(out))
            PyErr_Format(PyExc_TypeError, "out must be a list, not %.200s", Py_TYPE(out)->tp_name);
        else if (out != NULL && (off < 0 || PyList_GET_SIZE(out) - off < n))
            PyErr_SetString(PyExc_ValueError, "off must be >= 0 and out long enough for the product");
        else if (n == 0)
            res = out != NULL ? Py_NewRef(out) : PyList_New(0);
        else
            res = mul_impl(seq_a, seq_b, n, out, off);
    }
    Py_XDECREF(seq_a);
    Py_XDECREF(seq_b);
    return res;
}

/* -- the (S, A)-pool DP of qfish.torus._pool_dp, on int64 -----------------
 *
 * The same dynamic program as the Python loop in torus.py (whose comment
 * block states it), for the q-domain lift: a factor times q^s is the factor
 * with its low exponent moved by s.  A pool is a dense int64 coefficient
 * array with its low exponent; states are keyed by r + m d (d = 0 unless
 * graded) in a dense table.  Every factor is read before any work.  The run
 * gives up, returning NotImplemented so that the caller runs its loop, when
 * a coefficient or a low exponent does not fit, when a product breaks the
 * mul_trunc bound max|a| * max|b| * overlap < 2^62, when a checked add
 * overflows, or when m or the state table would pass M_MAX or TABLE_MAX. */

#define EXP_MAX ((long long)1 << 40)    /* |factor low| and |a| */
#define ORDER_MAX ((long long)1 << 62)  /* order clamped into [-ORDER_MAX, ORDER_MAX] */
#define M_MAX 65536
#define TABLE_MAX 262144
#define GIVE_UP 1                       /* a step's result besides 0 and -1 */

typedef struct {
    long long lo;       /* exponent of c[0] */
    Py_ssize_t len;
    long long *c;       /* buf + front; NULL: the zero pool, None in Python */
    long long *buf;     /* cap slots, zero outside c[0..len) */
    Py_ssize_t front, cap;
} pool_t;

typedef struct {
    pool_t s, a;
} state_t;

typedef struct {
    long long lo;
    Py_ssize_t len;
    long long *c;       /* NULL: a None factor */
    unsigned long long max;
} factor_t;

typedef struct {
    factor_t *fn, *fp;  /* factors for [n, j] and [n+1, j] */
    Py_ssize_t nf;
    state_t *cur, *nxt;
    Py_ssize_t keys;
    long long *acc;     /* one product's coefficients */
    Py_ssize_t acc_cap;
} dp_t;

static void
pool_free(pool_t *p)
{
    PyMem_Free(p->buf);
    p->c = p->buf = NULL;
    p->len = p->front = p->cap = 0;
}

static void
dp_free(dp_t *dp)
{
    for (Py_ssize_t j = 0; j < dp->nf; j++) {
        if (dp->fn)
            PyMem_Free(dp->fn[j].c);
        if (dp->fp)
            PyMem_Free(dp->fp[j].c);
    }
    for (Py_ssize_t k = 0; k < dp->keys; k++) {
        if (dp->cur) {
            pool_free(&dp->cur[k].s);
            pool_free(&dp->cur[k].a);
        }
        if (dp->nxt) {
            pool_free(&dp->nxt[k].s);
            pool_free(&dp->nxt[k].a);
        }
    }
    PyMem_Free(dp->fn);
    PyMem_Free(dp->fp);
    PyMem_Free(dp->cur);
    PyMem_Free(dp->nxt);
    PyMem_Free(dp->acc);
}

/* Read the factor pool [lo, coeffs] (None when allow_none) into f: 1 when it
 * fits, 0 when not, -1 with TypeError for a malformed pool or a non-int. */
static int
read_factor(PyObject *obj, int allow_none, factor_t *f)
{
    PyObject *seq, *cs;
    int fits, overflow;
    if (obj == Py_None && allow_none)
        return 1;
    seq = PySequence_Fast(obj, "factor pools must be [lo, coeffs]");
    if (seq == NULL)
        return -1;
    if (PySequence_Fast_GET_SIZE(seq) != 2 || !PyLong_Check(PySequence_Fast_GET_ITEM(seq, 0))) {
        Py_DECREF(seq);
        PyErr_SetString(PyExc_TypeError, "factor pools must be [lo, coeffs] with an int lo");
        return -1;
    }
    f->lo = PyLong_AsLongLongAndOverflow(PySequence_Fast_GET_ITEM(seq, 0), &overflow);
    fits = !overflow && f->lo <= EXP_MAX && f->lo >= -EXP_MAX;
    cs = PySequence_Fast(PySequence_Fast_GET_ITEM(seq, 1), NOT_SEQ);
    Py_DECREF(seq);
    if (cs == NULL)
        return -1;
    f->len = PySequence_Fast_GET_SIZE(cs);
    f->c = PyMem_Malloc((size_t)(f->len + 1) * sizeof(long long));
    if (f->c == NULL) {
        Py_DECREF(cs);
        PyErr_NoMemory();
        return -1;
    }
    overflow = read_coeffs(PySequence_Fast_ITEMS(cs), f->len, f->c, &f->max);
    Py_DECREF(cs);
    return overflow < 0 ? -1 : fits && overflow;
}

/* max |c[i]| over i < len into *out; 0 when some c[i] is LLONG_MIN */
static int
max_abs(const long long *c, Py_ssize_t len, unsigned long long *out)
{
    unsigned long long m = 0;
    for (Py_ssize_t i = 0; i < len; i++) {
        unsigned long long u;
        if (c[i] == LLONG_MIN)
            return 0;
        u = c[i] < 0 ? -(unsigned long long)c[i] : (unsigned long long)c[i];
        if (u > m)
            m = u;
    }
    *out = m;
    return 1;
}

/* Grow p to cover q^lo .. q^(lo+n-1); returns the index of q^lo in p->c,
 * or -1 with MemoryError.  A pool that outgrows its buffer at either end
 * moves to one twice its new length, centred, as products reach a pool at
 * falling low exponents as often as at rising ones. */
static Py_ssize_t
pool_cover(pool_t *p, long long lo, Py_ssize_t n)
{
    long long new_lo, hi;
    Py_ssize_t len, front;
    if (p->c == NULL) {
        if ((p->buf = PyMem_Calloc((size_t)n, sizeof(long long))) == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        p->c = p->buf;
        p->lo = lo;
        p->len = p->cap = n;
        p->front = 0;
        return 0;
    }
    new_lo = lo < p->lo ? lo : p->lo;
    hi = lo + n > p->lo + p->len ? lo + n : p->lo + p->len;
    len = (Py_ssize_t)(hi - new_lo);
    front = p->front - (Py_ssize_t)(p->lo - new_lo);
    if (front < 0 || front + len > p->cap) {
        long long *buf = PyMem_Calloc((size_t)(2 * len), sizeof(long long));
        if (buf == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        front = len / 2;
        memcpy(buf + front + (p->lo - new_lo), p->c, (size_t)p->len * sizeof(long long));
        PyMem_Free(p->buf);
        p->buf = buf;
        p->cap = 2 * len;
    }
    p->front = front;
    p->c = p->buf + front;
    p->lo = new_lo;
    p->len = len;
    return (Py_ssize_t)(lo - new_lo);
}

/* dst += q^lo xs[0..n), each add checked: 0, GIVE_UP on overflow, -1 */
static int
pool_add(pool_t *dst, long long lo, const long long *xs, Py_ssize_t n)
{
    Py_ssize_t off = pool_cover(dst, lo, n);
    long long *d;
    if (off < 0)
        return -1;
    d = dst->c + off;
    for (Py_ssize_t k = 0; k < n; k++)
        if (xs[k] && __builtin_add_overflow(d[k], xs[k], &d[k]))
            return GIVE_UP;
    return 0;
}

/* dst += src * q^shift f, cut below q^order when has_order; src_max is
 * max|src|.  0, GIVE_UP, or -1 with an exception set. */
static int
acc_mul(dp_t *dp, pool_t *dst, const pool_t *src, unsigned long long src_max,
        const factor_t *f, long long shift, int has_order, long long order)
{
    long long lo = src->lo + f->lo + shift;
    Py_ssize_t n, la, lb;
    unsigned long long ma = src_max, mb = f->max;
    if (src->len == 0 || f->len == 0)
        return 0;
    n = src->len + f->len - 1;
    if (has_order && order - lo < n)
        n = (Py_ssize_t)(order - lo);
    if (n <= 0)
        return 0;
    la = Py_MIN(src->len, n);
    lb = Py_MIN(f->len, n);
    if (ma && mb && !below_fast_limit(ma, mb, Py_MIN(la, lb))) {
        /* the kernel's bound is on the prefixes it reads */
        max_abs(src->c, la, &ma);
        max_abs(f->c, lb, &mb);
        if (ma && mb && !below_fast_limit(ma, mb, Py_MIN(la, lb)))
            return GIVE_UP;
    }
    if (n > dp->acc_cap) {
        PyMem_Free(dp->acc);
        if ((dp->acc = PyMem_Malloc((size_t)n * sizeof(long long))) == NULL) {
            dp->acc_cap = 0;
            PyErr_NoMemory();
            return -1;
        }
        dp->acc_cap = n;
    }
    conv_int64(src->c, la, f->c, lb, dp->acc, n);
    return pool_add(dst, lo, dp->acc, n);
}

/* The pool as [lo, coeffs] with its zero ends stripped. */
static PyObject *
pool_to_py(const pool_t *p)
{
    Py_ssize_t i0 = 0, i1 = p->len;
    PyObject *cs, *res, *lo;
    while (i0 < i1 && p->c[i0] == 0)
        i0++;
    while (i1 > i0 && p->c[i1 - 1] == 0)
        i1--;
    if ((cs = int64_list(p->c + i0, i1 - i0)) == NULL)
        return NULL;
    res = PyList_New(2);
    lo = PyLong_FromLongLong(p->lo + (long long)i0);
    if (res == NULL || lo == NULL) {
        Py_XDECREF(res);
        Py_XDECREF(lo);
        Py_DECREF(cs);
        return NULL;
    }
    PyList_SET_ITEM(res, 0, lo);
    PyList_SET_ITEM(res, 1, cs);
    return res;
}

/* The level loop on dp's factors and tables: 0, GIVE_UP, or -1. */
static int
run_levels(dp_t *dp, long long m, long long a_mod, long long dm, Py_ssize_t *hi,
           int has_order, long long order)
{
    for (long long level = 1; level < m; level++) {
        const int last = level == m - 1;
        Py_ssize_t nxt_hi = 0;
        state_t *tmp;
        for (Py_ssize_t key = 0; key < *hi; key++) {
            state_t *st = &dp->cur[key];
            const pool_t *sa;
            unsigned long long max_sa = 0, max_a = 0;
            long long r = key % m, j0 = 0, jstep = 1;
            int rc;
            if (st->s.c == NULL && st->a.c == NULL)
                continue;
            if (st->s.c != NULL && st->a.c != NULL
                && (rc = pool_add(&st->s, st->a.lo, st->a.c, st->a.len)) != 0)
                return rc;
            sa = st->s.c != NULL ? &st->s : &st->a;  /* S + A */
            if (!max_abs(sa->c, sa->len, &max_sa)
                || (st->a.c != NULL && !max_abs(st->a.c, st->a.len, &max_a)))
                return GIVE_UP;
            if (last) {  /* only the steps landing on r = a (mod m) */
                j0 = ((a_mod - r) % m + m) % m * (m - 1) % m;
                jstep = m;
            }
            for (long long j = j0; j < dp->nf; j += jstep) {
                const long long s = (r + level * j) / m, r2 = (r + level * j) % m;
                const Py_ssize_t k2 = (Py_ssize_t)(key - r + r2 + dm * j);
                if (has_order && dp->fp[j].lo + s >= order)
                    break;  /* lifted factor lows rise with j */
                if (dp->fn[j].c != NULL
                    && (rc = acc_mul(dp, &dp->nxt[k2].s, sa, max_sa, &dp->fn[j], s,
                                     has_order, order)) != 0)
                    return rc;
                if (st->a.c != NULL
                    && (rc = acc_mul(dp, &dp->nxt[k2 + dm].a, &st->a, max_a, &dp->fp[j], s,
                                     has_order, order)) != 0)
                    return rc;
                if (k2 + dm + 1 > nxt_hi)
                    nxt_hi = k2 + dm + 1;
            }
            pool_free(&st->s);
            pool_free(&st->a);
        }
        tmp = dp->cur;
        dp->cur = dp->nxt;
        dp->nxt = tmp;
        *hi = nxt_hi;
    }
    return 0;
}

/* pool_dp(m, a, fac_n, fac_np1, order, graded): torus._pool_dp's result for
 * the q-lift, or NotImplemented */
static PyObject *
kernel_pool_dp(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    dp_t dp = {0};
    PyObject *seq_n = NULL, *seq_p = NULL, *res = NULL;
    long long m, a, order = 0, a_div, a_mod, dm;
    Py_ssize_t hi = 1;
    int overflow, graded, has_order, fits = 1, rc;
    if (nargs != 6) {
        PyErr_Format(PyExc_TypeError, "pool_dp() takes 6 arguments (%zd given)", nargs);
        return NULL;
    }
    if (!PyLong_Check(args[0]) || !PyLong_Check(args[1])) {
        PyErr_SetString(PyExc_TypeError, "m and a must be int");
        return NULL;
    }
    m = PyLong_AsLongLongAndOverflow(args[0], &overflow);
    if (m == -1 && PyErr_Occurred())
        return NULL;
    if (!overflow && m < 1) {
        PyErr_SetString(PyExc_ValueError, "m must be >= 1");
        return NULL;
    }
    fits = !overflow && m <= M_MAX;
    a = PyLong_AsLongLongAndOverflow(args[1], &overflow);
    if (a == -1 && PyErr_Occurred())
        return NULL;
    fits = fits && !overflow && a <= EXP_MAX && a >= -EXP_MAX;
    has_order = args[4] != Py_None;
    if (has_order) {
        if (!PyLong_Check(args[4])) {
            PyErr_SetString(PyExc_TypeError, "order must be an int or None");
            return NULL;
        }
        order = PyLong_AsLongLongAndOverflow(args[4], &overflow);
        if (order == -1 && PyErr_Occurred())
            return NULL;
        order = overflow > 0 || order > ORDER_MAX ? ORDER_MAX
                : overflow < 0 || order < -ORDER_MAX ? -ORDER_MAX : order;
    }
    if ((graded = PyObject_IsTrue(args[5])) < 0)
        return NULL;
    /* private tuples: reading a factor can run code that mutates the lists */
    seq_n = PySequence_Tuple(args[2]);
    seq_p = seq_n ? PySequence_Tuple(args[3]) : NULL;
    if (seq_p == NULL)
        goto done;
    dp.nf = PyTuple_GET_SIZE(seq_p);
    if (m > 1 && PyTuple_GET_SIZE(seq_n) < dp.nf) {
        PyErr_SetString(PyExc_IndexError, "fac_n is shorter than fac_np1");
        goto done;
    }
    dp.fn = PyMem_Calloc((size_t)dp.nf + 1, sizeof(factor_t));
    dp.fp = PyMem_Calloc((size_t)dp.nf + 1, sizeof(factor_t));
    if (dp.fn == NULL || dp.fp == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    /* every factor is read (and a non-int refused) before any work */
    for (Py_ssize_t j = 0; m > 1 && j < dp.nf; j++) {
        int fn_ok = read_factor(PyTuple_GET_ITEM(seq_n, j), 1, &dp.fn[j]);
        int fp_ok = fn_ok < 0 ? -1 : read_factor(PyTuple_GET_ITEM(seq_p, j), 0, &dp.fp[j]);
        if (fp_ok < 0)
            goto done;
        fits = fits && fn_ok && fp_ok;
    }
    if (!fits)
        goto give_up;
    dm = graded ? m : 0;
    /* keys r + m d with d <= (m - 1) len(fac_np1) */
    if (graded && (m - 1) * (long long)dp.nf + 1 > TABLE_MAX / m)
        goto give_up;
    dp.keys = (Py_ssize_t)(graded ? m * ((m - 1) * (long long)dp.nf + 1) : m);
    dp.cur = PyMem_Calloc((size_t)dp.keys, sizeof(state_t));
    dp.nxt = PyMem_Calloc((size_t)dp.keys, sizeof(state_t));
    if (dp.cur == NULL || dp.nxt == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    a_mod = (a % m + m) % m;
    a_div = (a - a_mod) / m;
    {
        const long long one = 1;
        if (pool_add(&dp.cur[0].a, -a_div, &one, 1) < 0)  /* the start pool q^(-floor(a/m)) */
            goto done;
    }
    rc = run_levels(&dp, m, a_mod, dm, &hi, has_order, order);
    if (rc < 0)
        goto done;
    if (rc == GIVE_UP)
        goto give_up;
    res = graded ? PyDict_New() : Py_NewRef(Py_None);
    for (Py_ssize_t key = 0; res != NULL && key < hi; key++) {
        state_t *st = &dp.cur[key];
        PyObject *pool, *d;
        if (st->s.c == NULL && st->a.c == NULL)
            continue;
        if (st->s.c != NULL && st->a.c != NULL
            && (rc = pool_add(&st->s, st->a.lo, st->a.c, st->a.len)) != 0) {
            Py_CLEAR(res);
            if (rc == GIVE_UP)
                goto give_up;
            goto done;
        }
        pool = pool_to_py(st->s.c != NULL ? &st->s : &st->a);  /* the end S + A */
        if (pool == NULL || !graded) {
            Py_SETREF(res, pool);  /* one end state when not graded */
            continue;
        }
        d = PyLong_FromSsize_t(key / (Py_ssize_t)m);
        if (d == NULL || PyDict_SetItem(res, d, pool) < 0)
            Py_CLEAR(res);
        Py_XDECREF(d);
        Py_DECREF(pool);
    }
    goto done;
give_up:
    res = Py_NewRef(Py_NotImplemented);
done:
    dp_free(&dp);
    Py_XDECREF(seq_n);
    Py_XDECREF(seq_p);
    return res;
}

static PyMethodDef kernel_methods[] = {
    {"mul_trunc", (PyCFunction)(void (*)(void))kernel_mul_trunc, METH_FASTCALL,
     "mul_trunc(a, b, n, out=None, off=0, /)\n--\n\nFirst n coefficients of a * b "
     "(result length <= n); with out, added into out[off:] and out returned."},
    {"pool_dp", (PyCFunction)(void (*)(void))kernel_pool_dp, METH_FASTCALL,
     "pool_dp(m, a, fac_n, fac_np1, order, graded, /)\n--\n\nThe (S, A)-pool DP of "
     "qfish.torus._pool_dp for the q-lift, on int64; NotImplemented when a value "
     "leaves int64."},
    {NULL, NULL, 0, NULL}
};

static struct PyModuleDef kernel_module = {
    PyModuleDef_HEAD_INIT, "qfish._speedups",
    "Compiled int64 lane of qfish._kernels; other products go to its mul_trunc.",
    -1, kernel_methods
};

PyMODINIT_FUNC
PyInit__speedups(void)
{
    PyObject *pure = PyImport_ImportModule("qfish._kernels");
    if (pure == NULL)
        return NULL;
    Py_XSETREF(pure_mul_trunc, PyObject_GetAttrString(pure, "mul_trunc"));
    Py_DECREF(pure);
    if (pure_mul_trunc == NULL)
        return NULL;
    return PyModule_Create(&kernel_module);
}
