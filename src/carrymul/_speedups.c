/* Compiled digit-vector kernels.

   A C mirror of the six hot kernels of carrymul._kernels_py: add,
   mul_by_digit, incremental, schoolbook, check_invariant and oracle_mul.
   Each takes and returns the same lists, tuples and counters as its
   pure-Python spec (see that module for the representation and the
   counting rules), so the two backends can be compared with ==.

   Bases stop at 36, so a digit fits in a byte.  Every kernel copies its
   operands into byte buffers once, rejecting any digit that is not an int
   in 0..base-1, loops in C and turns only its results back into lists.
   The digit helpers below may write their output over one of their inputs:
   position i is always read before it is written. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <string.h>

#define MAX_BASE 36

typedef unsigned char u8;  /* one digit */

/* -- digit arithmetic ---------------------------------------------------- */

static Py_ssize_t
strip(const u8 *x, Py_ssize_t n)
{
    while (n && x[n - 1] == 0)
        n--;
    return n;
}

/* out = x + y; out needs room for max(lx, ly) + 1 digits.  Adds the
   digit_adds of _kernels_py.add to *adds and returns the length of out. */
static Py_ssize_t
add_into(const u8 *x, Py_ssize_t lx, const u8 *y, Py_ssize_t ly,
         u8 *out, int base, Py_ssize_t *adds)
{
    if (lx < ly) {
        const u8 *t = x;
        Py_ssize_t lt = lx;
        x = y, lx = ly, y = t, ly = lt;
    }
    int carry = 0;
    for (Py_ssize_t i = 0; i < lx; i++) {
        int t = x[i] + (i < ly ? y[i] : 0) + carry;
        carry = t >= base;
        out[i] = (u8)(carry ? t - base : t);
    }
    *adds += lx + carry;
    if (carry)
        out[lx++] = 1;
    return lx;
}

/* out = x * d; out needs room for lx + 1 digits.  A zero digit gives the
   empty vector, like the normalize call in _kernels_py.mul_by_digit. */
static Py_ssize_t
mul_into(const u8 *x, Py_ssize_t lx, int d, u8 *out, int base)
{
    if (d == 0)
        return 0;
    int carry = 0;
    for (Py_ssize_t i = 0; i < lx; i++) {
        int t = x[i] * d + carry;
        out[i] = (u8)(t % base);
        carry = t / base;
    }
    if (carry)
        out[lx++] = (u8)carry;
    return lx;
}

/* row = x * d * base**j, the shifted partial product; row needs room for
   lx + j + 1 digits.  A zero product stays empty, with no shift zeros. */
static Py_ssize_t
shifted_row(const u8 *x, Py_ssize_t lx, int d, Py_ssize_t j, u8 *row, int base)
{
    memset(row, 0, j);
    Py_ssize_t n = mul_into(x, lx, d, row + j, base);
    return n ? j + n : 0;
}

/* m = floor(m / 2) in place, from the top digit down; *bit gets m mod 2. */
static Py_ssize_t
halve(u8 *m, Py_ssize_t lm, int base, int *bit)
{
    int r = 0;
    for (Py_ssize_t i = lm - 1; i >= 0; i--) {
        int cur = r * base + m[i];
        m[i] = (u8)(cur >> 1);
        r = cur & 1;
    }
    *bit = r;
    return strip(m, lm);
}

/* -- conversion between Python objects and digit buffers ----------------- */

static int
read_digit(PyObject *o, int base, u8 *dst)
{
    if (!PyLong_CheckExact(o)) {
        PyErr_Format(PyExc_TypeError, "digit must be an int, not %.100s",
                     Py_TYPE(o)->tp_name);
        return -1;
    }
    int overflow;
    long v = PyLong_AsLongAndOverflow(o, &overflow);
    if (overflow || v < 0 || v >= base) {
        PyErr_Format(PyExc_ValueError, "digit %R out of range for base %d",
                     o, base);
        return -1;
    }
    *dst = (u8)v;
    return 0;
}

/* Read every item of a PySequence_Fast result into dst. */
static int
read_items(PyObject *fast, int base, u8 *dst)
{
    Py_ssize_t n = PySequence_Fast_GET_SIZE(fast);
    PyObject **items = PySequence_Fast_ITEMS(fast);
    for (Py_ssize_t i = 0; i < n; i++)
        if (read_digit(items[i], base, &dst[i]) < 0)
            return -1;
    return 0;
}

static u8 *
alloc(Py_ssize_t n)
{
    u8 *x = PyMem_Malloc(n + 1);
    if (x == NULL)
        PyErr_NoMemory();
    return x;
}

/* A new buffer holding the digits of seq, with room for extra more. */
static u8 *
load(PyObject *seq, int base, Py_ssize_t extra, Py_ssize_t *n)
{
    PyObject *fast = PySequence_Fast(seq, "digits must be a list or tuple");
    if (fast == NULL)
        return NULL;
    *n = PySequence_Fast_GET_SIZE(fast);
    u8 *x = alloc(*n + extra);
    if (x != NULL && read_items(fast, base, x) < 0) {
        PyMem_Free(x);
        x = NULL;
    }
    Py_DECREF(fast);
    return x;
}

static PyObject *
to_list(const u8 *x, Py_ssize_t n)
{
    PyObject *out = PyList_New(n);
    if (out == NULL)
        return NULL;
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *v = PyLong_FromLong(x[i]);
        if (v == NULL) {
            Py_DECREF(out);
            return NULL;
        }
        PyList_SET_ITEM(out, i, v);
    }
    return out;
}

/* A tuple of n new references, which it takes over: NULL, with the error
   set, if any of them is NULL or the tuple cannot be made. */
static PyObject *
pack(Py_ssize_t n, PyObject *const *items)
{
    PyObject *t = PyTuple_New(n);
    for (Py_ssize_t i = 0; i < n; i++) {
        if (t != NULL && items[i] != NULL) {
            PyTuple_SET_ITEM(t, i, items[i]);
            continue;
        }
        Py_CLEAR(t);
        Py_XDECREF(items[i]);
    }
    return t;
}

#define SIZE(n) PyLong_FromSsize_t(n)

/* Check the argument count and read the base, which is always last. */
static int
parse(const char *name, Py_ssize_t nargs, Py_ssize_t want,
      PyObject *const *args, int *base)
{
    if (nargs != want) {
        PyErr_Format(PyExc_TypeError, "%s() takes %zd arguments (%zd given)",
                     name, want, nargs);
        return -1;
    }
    long v = PyLong_AsLong(args[want - 1]);
    if (v == -1 && PyErr_Occurred())
        return -1;
    if (v < 2 || v > MAX_BASE) {
        PyErr_Format(PyExc_ValueError, "base must be in 2..%d, got %ld",
                     MAX_BASE, v);
        return -1;
    }
    *base = (int)v;
    return 0;
}

/* -- the kernels ---------------------------------------------------------- */

static PyObject *
py_add(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    int base;
    Py_ssize_t la, lb, adds = 0;
    u8 *a = NULL, *b = NULL;
    PyObject *res = NULL;
    if (parse("add", nargs, 3, args, &base) < 0
        || !(a = load(args[0], base, 1, &la))
        || !(b = load(args[1], base, 1, &lb)))
        goto done;
    u8 *out = la >= lb ? a : b;
    Py_ssize_t lout = add_into(a, la, b, lb, out, base, &adds);
    res = pack(2, (PyObject *[]){to_list(out, lout), SIZE(adds)});
done:
    PyMem_Free(a);
    PyMem_Free(b);
    return res;
}

static PyObject *
py_mul_by_digit(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    int base;
    u8 d;
    Py_ssize_t la;
    u8 *a = NULL;
    PyObject *res = NULL;
    if (parse("mul_by_digit", nargs, 3, args, &base) < 0
        || read_digit(args[1], base, &d) < 0
        || !(a = load(args[0], base, 1, &la)))
        goto done;
    Py_ssize_t lout = mul_into(a, la, d, a, base);
    res = pack(3, (PyObject *[]){to_list(a, lout), SIZE(la), SIZE(la)});
done:
    PyMem_Free(a);
    return res;
}

/* Step k writes its sum s over out[k:], where out[k] is the emitted digit
   and out[k+1:] the carry that step k+1 adds to a * b[k+1].  So out ends
   up holding the emitted digits followed by the final carry: the product. */
static PyObject *
py_incremental(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    int base;
    Py_ssize_t la, lb, lc = 0, adds = 0, unused = 0;
    u8 *a = NULL, *b = NULL, *t = NULL, *out = NULL;
    PyObject *steps = NULL, *res = NULL;
    if (parse("incremental", nargs, 3, args, &base) < 0
        || !(a = load(args[0], base, 0, &la))
        || !(b = load(args[1], base, 0, &lb))
        || !(t = alloc(la + 1)) || !(out = alloc(la + lb + 2))
        || !(steps = PyList_New(lb)))
        goto done;
    for (Py_ssize_t k = 0; k < lb; k++) {
        u8 *s = out + k;
        Py_ssize_t lt = mul_into(a, la, b[k], t, base);
        /* step 0 has no carry in, and its copy of t counts no additions */
        Py_ssize_t ls = add_into(t, lt, s, lc, s, base, k ? &adds : &unused);
        adds += la;
        if (ls == 0)
            s[0] = 0;
        lc = ls ? ls - 1 : 0;
        PyObject *sum = to_list(s, ls);
        PyObject *step = pack(3, (PyObject *[]){
            sum, PyLong_FromLong(s[0]), sum ? PyList_GetSlice(sum, 1, ls) : NULL});
        if (step == NULL)
            goto done;
        PyList_SET_ITEM(steps, k, step);
    }
    res = pack(4, (PyObject *[]){Py_NewRef(steps), to_list(out, strip(out, lb + lc)),
                                 SIZE(la * lb), SIZE(adds)});
done:
    Py_XDECREF(steps);
    PyMem_Free(a);
    PyMem_Free(b);
    PyMem_Free(t);
    PyMem_Free(out);
    return res;
}

static PyObject *
py_schoolbook(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    int base;
    Py_ssize_t la, lb, lacc = 0, adds = 0, unused = 0;
    u8 *a = NULL, *b = NULL, *row = NULL, *acc = NULL;
    PyObject *rows = NULL, *res = NULL;
    if (parse("schoolbook", nargs, 3, args, &base) < 0
        || !(a = load(args[0], base, 0, &la))
        || !(b = load(args[1], base, 0, &lb))
        || !(row = alloc(la + lb + 1)) || !(acc = alloc(la + lb + 2))
        || !(rows = PyList_New(lb)))
        goto done;
    for (Py_ssize_t j = 0; j < lb; j++) {
        Py_ssize_t lrow = shifted_row(a, la, b[j], j, row, base);
        PyObject *r = to_list(row, lrow);
        if (r == NULL)
            goto done;
        PyList_SET_ITEM(rows, j, r);
        adds += la;
        /* row 0 is copied into the empty sum without counting additions */
        lacc = add_into(acc, lacc, row, lrow, acc, base, j ? &adds : &unused);
    }
    res = pack(4, (PyObject *[]){Py_NewRef(rows), to_list(acc, lacc),
                                 SIZE(la * lb), SIZE(adds)});
done:
    Py_XDECREF(rows);
    PyMem_Free(a);
    PyMem_Free(b);
    PyMem_Free(row);
    PyMem_Free(acc);
    return res;
}

/* steps holds (s, r, carry) tuples whose carry is a list or tuple, as the
   incremental kernels make them.  lhs keeps the emitted digits r_0..r_k in
   lhs[0..k]; step k's carry is read in above them, and step k+1's digit
   then overwrites its lowest place.  rhs accumulates a * b[j] * base**j
   from a and b alone. */
static PyObject *
py_check_invariant(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    int base;
    Py_ssize_t la, lb, n, cap, lrhs = 0, unused = 0;
    u8 *a = NULL, *b = NULL, *row = NULL, *rhs = NULL, *lhs = NULL;
    PyObject *steps = NULL, *flags = NULL, *res = NULL;
    if (parse("check_invariant", nargs, 4, args, &base) < 0
        || !(a = load(args[0], base, 0, &la))
        || !(b = load(args[1], base, 0, &lb))
        || !(steps = PySequence_Fast(args[2], "steps must be a list")))
        goto done;
    n = PySequence_Fast_GET_SIZE(steps);
    cap = n + la + 2;
    if (!(row = alloc(la + lb + 1)) || !(rhs = alloc(la + lb + 2))
        || !(lhs = alloc(cap)) || !(flags = PyList_New(n)))
        goto done;
    for (Py_ssize_t k = 0; k < n; k++) {
        PyObject *step = PySequence_Fast_GET_ITEM(steps, k), *carry;
        if (!PyTuple_Check(step) || PyTuple_GET_SIZE(step) != 3
            || !(PyList_Check(carry = PyTuple_GET_ITEM(step, 2))
                 || PyTuple_Check(carry))) {
            PyErr_SetString(PyExc_TypeError, "a step must be (s, r, carry)");
            goto done;
        }
        int ok = 0;
        if (k < lb) {  /* later steps have no multiplier digit: False */
            Py_ssize_t llhs = k + 1 + PySequence_Fast_GET_SIZE(carry);
            if (llhs > cap) {
                u8 *grown = PyMem_Realloc(lhs, llhs);
                if (grown == NULL) {
                    PyErr_NoMemory();
                    goto done;
                }
                lhs = grown, cap = llhs;
            }
            if (read_digit(PyTuple_GET_ITEM(step, 1), base, &lhs[k]) < 0
                || read_items(carry, base, lhs + k + 1) < 0)
                goto done;
            Py_ssize_t lrow = shifted_row(a, la, b[k], k, row, base);
            lrhs = add_into(rhs, lrhs, row, lrow, rhs, base, &unused);
            ok = strip(lhs, llhs) == lrhs && memcmp(lhs, rhs, lrhs) == 0;
        }
        PyList_SET_ITEM(flags, k, PyBool_FromLong(ok));
    }
    res = Py_NewRef(flags);
done:
    Py_XDECREF(steps);
    Py_XDECREF(flags);
    PyMem_Free(a);
    PyMem_Free(b);
    PyMem_Free(row);
    PyMem_Free(rhs);
    PyMem_Free(lhs);
    return res;
}

/* Binary double-and-add over add_into and halve only, so the oracle shares
   no code with mul_into or either multiplication kernel. */
static PyObject *
py_oracle_mul(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    int base, bit;
    Py_ssize_t la, lm, lacc = 0, unused = 0;
    u8 *addend = NULL, *m = NULL, *acc = NULL;
    PyObject *res = NULL;
    if (parse("oracle_mul", nargs, 3, args, &base) < 0
        || !(m = load(args[1], base, 0, &lm))
        || !(addend = load(args[0], base, lm + 1, &la))
        || !(acc = alloc(la + lm + 1)))
        goto done;
    while (lm) {
        lm = halve(m, lm, base, &bit);
        if (bit)
            lacc = add_into(acc, lacc, addend, la, acc, base, &unused);
        if (lm)
            la = add_into(addend, la, addend, la, addend, base, &unused);
    }
    res = to_list(acc, lacc);
done:
    PyMem_Free(addend);
    PyMem_Free(m);
    PyMem_Free(acc);
    return res;
}

#define KERNEL(name, doc) \
    {#name, (PyCFunction)(void (*)(void))py_##name, METH_FASTCALL, doc}

static PyMethodDef methods[] = {
    KERNEL(add, "add(a, b, base) -> (a + b, adds)"),
    KERNEL(mul_by_digit, "mul_by_digit(a, d, base) -> (a * d, mults, adds)"),
    KERNEL(incremental, "incremental(a, b, base) -> (steps, a * b, mults, adds)"),
    KERNEL(schoolbook, "schoolbook(a, b, base) -> (rows, a * b, mults, adds)"),
    KERNEL(check_invariant, "check_invariant(a, b, steps, base) -> [bool]"),
    KERNEL(oracle_mul, "oracle_mul(a, b, base) -> a * b by double-and-add"),
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, .m_name = "carrymul._speedups", .m_size = -1,
    .m_doc = "Compiled mirror of the hot kernels of carrymul._kernels_py.",
    .m_methods = methods,
};

PyMODINIT_FUNC
PyInit__speedups(void)
{
    return PyModule_Create(&module);
}
