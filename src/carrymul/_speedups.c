/* Compiled digit-vector kernels.

   A C mirror of the five kernels of carrymul._kernels_py that multiply,
   trace and verify run: incremental_steps, incremental_product,
   schoolbook, check_invariant and oracle_mul.  Each takes and returns the
   same lists, tuples and counters as its pure-Python spec (see that module
   for the representation and the counting rules), so the two backends can
   be compared with ==; incremental_steps returns an iterator, as the spec
   is a generator.  incremental_product runs the paper's step on limbs of g
   digits (described in its spec's docstring and in the README); the
   others work digit by digit.

   Bases stop at 36, so a digit fits in a byte.  Every kernel copies its
   operands into byte buffers once, rejecting any digit that is not an int
   in 0..base-1, loops in C and turns only its results back into lists.
   The digit helpers below may write their output over one of their inputs:
   position i is always read before it is written. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>

#define MAX_BASE 36
#define LIMB_LIMIT (UINT64_C(1) << 30)
#define SEQ(o) (PyList_Check(o) || PyTuple_Check(o))

typedef unsigned char u8;  /* one digit */

/* -- digit arithmetic ---------------------------------------------------- */

static Py_ssize_t
strip(const u8 *x, Py_ssize_t n)
{
    while (n && x[n - 1] == 0)
        n--;
    return n;
}

/* out = x + y; out needs room for max(lx, ly) + 1 digits.  Returns the
   length of out, which is also the digit_adds of _kernels_py.add. */
static Py_ssize_t
add_into(const u8 *x, Py_ssize_t lx, const u8 *y, Py_ssize_t ly,
         u8 *out, int base)
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
    if (carry)
        out[lx++] = 1;
    return lx;
}

/* out = x * d; out needs room for lx + 1 digits.  A zero digit gives the
   empty vector, like the strip_high_zeros call in _kernels_py.mul_by_digit. */
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

/* s[0..lx] += x * d, where s[lx] is still zero: one fused pass of the
   paper's step.  x[i] * d + s[i] + c stays below base * base, so the carry
   c is always one digit. */
static void
mul_add_into(const u8 *x, Py_ssize_t lx, int d, u8 *s, int base)
{
    int c = 0;
    for (Py_ssize_t i = 0; i < lx; i++) {
        int t = x[i] * d + s[i] + c;
        s[i] = (u8)(t % base);
        c = t / base;
    }
    s[lx] = (u8)c;
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

/* -- limbs: g digits in one uint32_t --------------------------------------- */

/* g and base**g for the largest g with base**g <= 2**30: one more digit
   than _kernels_py.limb_radix in bases 2, 4, 8 and 32.  A limb product plus
   two limbs stays below 2**60, so a uint64_t holds a limb step's values. */
static int
limb_radix(int base, uint32_t *radix)
{
    int g = 1;
    uint32_t r = (uint32_t)base;
    while ((uint64_t)r * base <= LIMB_LIMIT) {
        r *= (uint32_t)base;
        g++;
    }
    *radix = r;
    return g;
}

/* The limb of x[lo..lo+g), fewer digits at the top end of x[0..n). */
static uint32_t
pack_limb(const u8 *x, Py_ssize_t n, Py_ssize_t lo, int g, int base)
{
    Py_ssize_t i = lo + g < n ? lo + g : n;
    uint32_t limb = 0;
    while (i > lo)
        limb = limb * (uint32_t)base + x[--i];
    return limb;
}

/* Write the digits of limb over out[0..], up to its highest nonzero one:
   the zero digits above it, up to the limb's g, are left as they are. */
static void
unpack_limb(uint32_t limb, u8 *out, int base)
{
    for (; limb; limb /= (uint32_t)base)
        *out++ = (u8)(limb % (uint32_t)base);
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

static u8 *
alloc(Py_ssize_t n)
{
    u8 *x = PyMem_Malloc(n + 1);
    if (x == NULL)
        PyErr_NoMemory();
    return x;
}

/* A new buffer holding the digits of seq. */
static u8 *
load(PyObject *seq, int base, Py_ssize_t *n)
{
    PyObject *fast = PySequence_Fast(seq, "digits must be a list or tuple");
    if (fast == NULL)
        return NULL;
    *n = PySequence_Fast_GET_SIZE(fast);
    u8 *x = alloc(*n);
    PyObject **items = PySequence_Fast_ITEMS(fast);
    for (Py_ssize_t i = 0; x != NULL && i < *n; i++)
        if (read_digit(items[i], base, &x[i]) < 0) {
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

/* incremental_steps(a, b, base): an iterator over the steps (s, r, carry),
   made one at a time.  It parses and checks its arguments at the call, so a
   bad digit raises before any step, and then holds only byte buffers: no
   Python reference, so no GC support.  Step k writes its sum s over out[k:],
   where out[k] is the emitted digit and out[k+1:] the carry that step k+1
   adds to a * b[k+1]. */
typedef struct {
    PyObject_HEAD
    int base;
    Py_ssize_t la, lb, lc, k;
    u8 *a, *b, *t, *out;
} Steps;

static void
steps_dealloc(Steps *it)
{
    PyMem_Free(it->a);
    PyMem_Free(it->b);
    PyMem_Free(it->t);
    PyMem_Free(it->out);
    PyObject_Free(it);
}

static PyObject *
steps_next(Steps *it)
{
    if (it->k == it->lb)
        return NULL;
    u8 *s = it->out + it->k;
    Py_ssize_t lt = mul_into(it->a, it->la, it->b[it->k++], it->t, it->base);
    Py_ssize_t ls = add_into(it->t, lt, s, it->lc, s, it->base);
    if (ls == 0)
        s[0] = 0;
    it->lc = ls ? ls - 1 : 0;
    PyObject *sum = to_list(s, ls);
    /* "N" takes over each reference, and drops them all on failure */
    return Py_BuildValue("(NiN)", sum, s[0],
                         sum ? PyList_GetSlice(sum, 1, ls) : NULL);
}

static PyTypeObject StepsType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "carrymul._speedups.incremental_steps",
    .tp_basicsize = sizeof(Steps),
    .tp_dealloc = (destructor)steps_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_iter = PyObject_SelfIter,
    .tp_iternext = (iternextfunc)steps_next,
};

static PyObject *
py_incremental_steps(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Steps *it = PyObject_New(Steps, &StepsType);
    if (it == NULL)
        return NULL;
    it->lc = it->k = 0;
    it->a = it->b = it->t = it->out = NULL;  /* what steps_dealloc frees */
    if (parse("incremental_steps", nargs, 3, args, &it->base) < 0
        || !(it->a = load(args[0], it->base, &it->la))
        || !(it->b = load(args[1], it->base, &it->lb))
        || !(it->t = alloc(it->la + 1))
        || !(it->out = alloc(it->la + it->lb + 2)))
        Py_CLEAR(it);
    return (PyObject *)it;
}

/* The product of incremental_steps without its steps: the paper's step in
   radix base**g, here on uint32_t arrays of n limbs.  Step k runs
   A * (limb k of b) + carry from the low limb up; the low limb of the sum
   goes to out[k..k+g) and the limbs above it, each one place lower, are
   the next carry.  The last carry's limbs are unpacked above the rest. */
static PyObject *
py_incremental_product(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    int base, g;
    uint32_t radix;
    Py_ssize_t la, lb, n, k = 0;
    u8 *a = NULL, *b = NULL, *out = NULL;
    uint32_t *limbs = NULL, *carry;
    PyObject *res = NULL;
    if (parse("incremental_product", nargs, 3, args, &base) < 0
        || !(a = load(args[0], base, &la))
        || !(b = load(args[1], base, &lb)))
        goto done;
    if (la == 0 || lb == 0) {
        res = PyList_New(0);
        goto done;
    }
    g = limb_radix(base, &radix);
    n = (la + g - 1) / g;
    /* the carry into step 0 is zero, and unpack_limb leaves the zero
       digits above a limb's highest nonzero one unwritten */
    if (!(limbs = PyMem_Calloc(2 * n, sizeof(uint32_t)))
        || !(out = PyMem_Calloc(la + lb + 2 * g, 1))) {
        PyErr_NoMemory();
        goto done;
    }
    carry = limbs + n;
    for (Py_ssize_t i = 0; i < n; i++)
        limbs[i] = pack_limb(a, la, i * g, g, base);
    for (; k < lb; k += g) {
        uint64_t d = pack_limb(b, lb, k, g, base);
        uint64_t t = limbs[0] * d + carry[0], c = t / radix;
        uint32_t r = (uint32_t)(t % radix);
        for (Py_ssize_t i = 1; i < n; i++) {
            t = limbs[i] * d + carry[i] + c;
            carry[i - 1] = (uint32_t)(t % radix);
            c = t / radix;
        }
        carry[n - 1] = (uint32_t)c;
        unpack_limb(r, out + k, base);
    }
    for (Py_ssize_t i = 0; i < n; i++)  /* k is now g * (steps run) */
        unpack_limb(carry[i], out + k + i * g, base);
    res = to_list(out, strip(out, k + n * g));
done:
    PyMem_Free(a);
    PyMem_Free(b);
    PyMem_Free(limbs);
    PyMem_Free(out);
    return res;
}

static PyObject *
py_schoolbook(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    int base;
    Py_ssize_t la, lb, lacc = 0, adds;
    u8 *a = NULL, *b = NULL, *row = NULL, *acc = NULL;
    PyObject *rows = NULL, *res = NULL;
    if (parse("schoolbook", nargs, 3, args, &base) < 0
        || !(a = load(args[0], base, &la))
        || !(b = load(args[1], base, &lb))
        || !(row = alloc(la + lb + 1)) || !(acc = alloc(la + lb + 2))
        || !(rows = PyList_New(lb)))
        goto done;
    adds = la * lb;
    for (Py_ssize_t j = 0; j < lb; j++) {
        Py_ssize_t lrow = shifted_row(a, la, b[j], j, row, base);
        PyObject *r = to_list(row, lrow);
        if (r == NULL)
            goto done;
        PyList_SET_ITEM(rows, j, r);
        lacc = add_into(acc, lacc, row, lrow, acc, base);
        if (j)  /* row 0 is copied into the empty sum: no addition */
            adds += lacc;
    }
    res = Py_BuildValue("(ONnn)", rows, to_list(acc, lacc), la * lb, adds);
done:
    Py_XDECREF(rows);
    PyMem_Free(a);
    PyMem_Free(b);
    PyMem_Free(row);
    PyMem_Free(acc);
    return res;
}

/* steps is any iterable of (s, r, carry) tuples whose s and carry are
   lists or tuples, as incremental_steps makes them; it is read one step at
   a time, and an exception it raises is passed on.  rhs accumulates
   a * b[j] * base**j from a and b alone: step k adds a * b[k] at offset k,
   after which rhs[k] is final.  So step k holds iff r_0..r_k equal
   rhs[0..k] (latched in low_ok), the carry equals rhs[k+1..k+la] and s
   equals rhs[k..k+la] by value, which then makes s = r + base * carry.
   Every r, carry and s digit of steps below len(b) is read, mismatch or
   not, so a bad digit always raises. */
static PyObject *
py_check_invariant(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    int base, low_ok = 1;
    Py_ssize_t la, lb;
    u8 *a = NULL, *b = NULL, *rhs = NULL;
    PyObject *steps = NULL, *step = NULL, *flags = NULL, *res = NULL;
    if (parse("check_invariant", nargs, 4, args, &base) < 0
        || !(a = load(args[0], base, &la))
        || !(b = load(args[1], base, &lb))
        || !(steps = PyObject_GetIter(args[2]))
        || !(rhs = alloc(la + lb)) || !(flags = PyList_New(0)))
        goto done;
    memset(rhs, 0, la + lb);
    for (Py_ssize_t k = 0; (step = PyIter_Next(steps)); k++) {
        PyObject *seq[2];
        if (!PyTuple_Check(step) || PyTuple_GET_SIZE(step) != 3
            || !SEQ(seq[0] = PyTuple_GET_ITEM(step, 2))
            || !SEQ(seq[1] = PyTuple_GET_ITEM(step, 0))) {
            PyErr_SetString(PyExc_TypeError, "a step must be (s, r, carry)");
            goto done;
        }
        int ok = 0;
        if (k < lb) {  /* later steps have no multiplier digit: False */
            u8 r;
            if (read_digit(PyTuple_GET_ITEM(step, 1), base, &r) < 0)
                goto done;
            mul_add_into(a, la, b[k], rhs + k, base);
            low_ok &= r == rhs[k];
            ok = low_ok;
            /* the carry (j = 0) against rhs[k+1..], then s (j = 1) against
               rhs[k..], by value: digits past either end count as zeros */
            for (Py_ssize_t j = 0, lx = la; j < 2; j++, lx++) {
                const u8 *x = rhs + k + 1 - j;
                Py_ssize_t lv = PySequence_Fast_GET_SIZE(seq[j]), i;
                PyObject **items = PySequence_Fast_ITEMS(seq[j]);
                for (i = 0; i < lv; i++) {
                    u8 digit;
                    if (read_digit(items[i], base, &digit) < 0)
                        goto done;
                    ok &= digit == (i < lx ? x[i] : 0);
                }
                for (; i < lx; i++)
                    ok &= x[i] == 0;
            }
        }
        if (PyList_Append(flags, ok ? Py_True : Py_False) < 0)
            goto done;
        Py_CLEAR(step);
    }
    if (!PyErr_Occurred())
        res = Py_NewRef(flags);
done:
    Py_XDECREF(step);
    Py_XDECREF(steps);
    Py_XDECREF(flags);
    PyMem_Free(a);
    PyMem_Free(b);
    PyMem_Free(rhs);
    return res;
}

/* Digit-serial double-and-add over add_into alone, as
   _kernels_py.oracle_mul.  The doublings a * 2**i (at most six) sit in
   slots of la + 6 digits.  acc for the digits b[k..] sits at out + k, so
   acc * base is one pointer step down and a zero write.  The oracle never
   calls mul_into, but it shares add_into with incremental_steps (carry
   add) and schoolbook (row sum); verify's int route is the one that shares
   nothing. */
static PyObject *
py_oracle_mul(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    int base, nd = 1;
    Py_ssize_t la, lb, lacc = 0, ld[6];
    u8 *a = NULL, *b = NULL, *dbl = NULL, *out = NULL;
    PyObject *res = NULL;
    if (parse("oracle_mul", nargs, 3, args, &base) < 0
        || !(a = load(args[0], base, &la))
        || !(b = load(args[1], base, &lb))
        || !(dbl = alloc(6 * (la + 6))) || !(out = alloc(la + lb)))
        goto done;
    memcpy(dbl, a, la);
    ld[0] = la;
    for (; 1 << nd < base; nd++) {
        u8 *x = dbl + (nd - 1) * (la + 6);
        ld[nd] = add_into(x, ld[nd - 1], x, ld[nd - 1], x + la + 6, base);
    }
    for (Py_ssize_t k = lb - 1; k >= 0; k--) {
        u8 *acc = out + k;
        if (lacc)
            acc[0] = 0, lacc++;
        for (int i = 0, d = b[k]; d; i++, d >>= 1)
            if (d & 1)
                lacc = add_into(acc, lacc, dbl + i * (la + 6), ld[i], acc, base);
    }
    res = to_list(out, lacc);
done:
    PyMem_Free(a);
    PyMem_Free(b);
    PyMem_Free(dbl);
    PyMem_Free(out);
    return res;
}

#define KERNEL(name, doc) \
    {#name, (PyCFunction)(void (*)(void))py_##name, METH_FASTCALL, doc}

static PyMethodDef methods[] = {
    KERNEL(incremental_steps, "incremental_steps(a, b, base) -> iter of steps"),
    KERNEL(incremental_product, "incremental_product(a, b, base) -> a * b"),
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
    return PyType_Ready(&StepsType) < 0 ? NULL : PyModule_Create(&module);
}
