/* Compiled dense polynomial kernel (schoolbook, exact).
 *
 * Same contract as qfish._kernels, whose one entry point mul_trunc(a, b, n)
 * takes sequences of ints and returns a new list of ints, bit for bit equal
 * to the pure module; mul_trunc(a, b, n, out, off) adds the nonzero ones into
 * the list out[off:] instead (checked before any write) and returns out.  A
 * product runs here on C arrays when every coefficient fits
 * in a long long other than LLONG_MIN and max|a| * max|b| * overlap < 2^62,
 * so no partial sum can overflow.  Any other product is handed, with out,
 * to qfish._kernels.mul_trunc, the one big-integer convolution.
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

/* ma * mb * overlap < 2^62, decided without overflowing 64 bits. */
static int
below_fast_limit(unsigned long long ma, unsigned long long mb,
                 unsigned long long overlap)
{
    const unsigned long long lim = ((unsigned long long)1 << 62) - 1;
    return ma <= lim / mb && ma * mb <= lim / overlap;
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

static PyObject *
mul_int64(const long long *pa, Py_ssize_t la, const long long *pb,
          Py_ssize_t lb, long long *acc, Py_ssize_t n, PyObject *out,
          Py_ssize_t off)
{
    PyObject *res;
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
    if (out != NULL) {
        for (Py_ssize_t k = 0; k < n; k++)
            if (acc[k] != 0 && add_into(out, off + k, acc[k]) < 0)
                return NULL;
        return Py_NewRef(out);
    }
    res = PyList_New(n);
    if (res == NULL)
        return NULL;
    for (Py_ssize_t k = 0; k < n; k++) {
        PyObject *v = PyLong_FromLongLong(acc[k]);
        if (v == NULL) {
            Py_DECREF(res);
            return NULL;
        }
        PyList_SET_ITEM(res, k, v);
    }
    return res;
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

static PyMethodDef kernel_methods[] = {
    {"mul_trunc", (PyCFunction)(void (*)(void))kernel_mul_trunc, METH_FASTCALL,
     "mul_trunc(a, b, n, out=None, off=0, /)\n--\n\nFirst n coefficients of a * b "
     "(result length <= n); with out, added into out[off:] and out returned."},
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
