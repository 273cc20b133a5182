"""Pure-Python digit-vector kernels.

This is the reference backend and the spec.  ``carrymul._speedups`` (one
hand-written C file) is a compiled mirror of the six kernels that multiply,
trace and verify run: incremental, incremental_steps, incremental_product,
schoolbook, check_invariant and oracle_mul.  On valid input the two must stay
identical, counters included (see tests/test_backends.py).  The remaining
helpers, add and mul_by_digit among them, live here only.

Every kernel works digit by digit except incremental_product, the kernel
behind ``multiply``: it runs the paper's step in radix base**g, with
base**g <= 2**30 (``limb_radix``), holding a and its one carry as Python
ints, so CPython's C limb loops multiply and divide them; it converts
between digits and limbs only at its edges.  incremental (the trace),
check_invariant (verify) and the counters stay digit-level, since they
audit the "same digit work" claim.

The kernels are internal and unchecked: they trust their caller to pass
canonical digits in 0..base-1, and on anything else their output is
undefined (``incremental([300], [3], 10)`` returns ``[0, 90]`` here, while
the C kernels raise).  The checks live at the public entry points
(``Natural``, ``parse_natural``, ``from_int``,
``algorithms.check_invariant``), which reject bad digits alike on both
backends, so the verify hot path pays for no check.

Representation: a natural number is a sequence of int digits, little-endian
(index i holds the coefficient of base**i), canonical (no trailing high-order
zeros), with zero as the empty sequence.  Kernels take lists or tuples and
return lists.

Output rule, which both backends must keep: given canonical inputs of exact
ints in 0..base-1, every digit vector a kernel returns (results, step sums,
carries, rows) is canonical and every digit it returns, emitted step digits
included, is an exact int in 0..base-1.  The package wraps these outputs in
``Natural`` without checking them again (``digits.wrap``).

Counter conventions (fixed, so operation counts are deterministic):
  * add: one digit_add per digit position processed (max of the two lengths),
    plus one when a final carry digit is emitted: the length of the sum.
  * mul_by_digit: one digit_mult per digit of the multiplicand, zeros
    included; one digit_add per position for carry absorption.  Placing a
    final carry digit is not an addition and does not tick.

The helpers return digits only; the kernels (tally, for a stream of
incremental steps) count in closed form:
digit_mults = len(a)*len(b) and digit_adds = len(a)*len(b) plus the sum of
len(s_k) over k >= 1 (incremental) or of len(acc_j) over j >= 1
(schoolbook, acc_j being the running sum of rows 0..j).
"""

from functools import cache


def strip_high_zeros(digits):
    """Strip high-order zeros; zero becomes the empty list."""
    n = len(digits)
    while n and digits[n - 1] == 0:
        n -= 1
    return digits[:n]


def add(a, b, base):
    """Return a + b."""
    la, lb = len(a), len(b)
    if la < lb:
        a, b = b, a
        la, lb = lb, la
    out = [0] * la
    carry = 0
    for i in range(lb):
        t = a[i] + b[i] + carry
        if t >= base:
            out[i] = t - base
            carry = 1
        else:
            out[i] = t
            carry = 0
    for i in range(lb, la):
        t = a[i] + carry
        if t >= base:
            out[i] = t - base
            carry = 1
        else:
            out[i] = t
            carry = 0
    if carry:
        out.append(carry)
    return out


def mul_by_digit(a, d, base):
    """Return a * d for a single digit d."""
    la = len(a)
    out = [0] * la
    carry = 0
    for i in range(la):
        carry, out[i] = divmod(a[i] * d + carry, base)
    if carry:
        out.append(carry)
    # only d == 0 can leave high zeros
    return strip_high_zeros(out) if d == 0 else out


def divmod_base(n):
    """Split off the units digit: (remaining high part, lowest digit)."""
    if not n:
        return [], 0
    return n[1:], n[0]


def shift(n, k):
    """Multiply by base**k.  Zero stays the empty list."""
    if not n:
        return []
    return [0] * k + list(n)


def incremental_steps(a, b, base):
    """Yield the incremental algorithm's steps, (s, r, carry_out) in order,
    holding only the last carry.  Step 0 computes s = a*b[0]; step k >= 1,
    s = a*b[k] + carry.  Each step emits r = s mod base and carries
    floor(s / base), which may be as long as a."""
    carry = []
    for k, d in enumerate(b):
        s = mul_by_digit(a, d, base)
        if k:
            s = add(s, carry, base)
        carry, r = divmod_base(s)
        yield s, r, carry


def tally(a, b, steps):
    """(result, digit_mults, digit_adds) of incremental's steps, read once:
    result = final carry * base**len(b) + sum(r[k] * base**k), and the
    counters in closed form."""
    emitted, carry, adds = [], [], len(a) * len(b)
    for k, (s, r, carry) in enumerate(steps):
        emitted.append(r)
        adds += len(s) if k else 0
    return strip_high_zeros(emitted + carry), len(a) * len(b), adds


def incremental(a, b, base):
    """(steps, result, digit_mults, digit_adds), steps listed in order."""
    steps = list(incremental_steps(a, b, base))
    return (steps, *tally(a, b, steps))


LIMB_LIMIT = 1 << 30


@cache
def limb_radix(base):
    """(g, base**g) for the largest g with base**g <= 2**30, computed once
    per base on first use.

    g is 30/9/7/5 for bases 2/10/16/36.  A limb of g digits is then one
    CPython int digit (one uint32_t in C), so multiplying by a limb, and
    dividing by a base**g below 2**30, take CPython's single-digit paths;
    in C a limb product plus two limbs stays below 2**60.
    """
    g, radix = 1, base
    while radix * base <= LIMB_LIMIT:
        g += 1
        radix *= base
    return g, radix


def _pack(digits, lo, g, base):
    """The limb of digits[lo:lo+g] (fewer digits at the top end)."""
    limb = 0
    for d in reversed(digits[lo : lo + g]):
        limb = limb * base + d
    return limb


def _unpack(limb, out, lo, base):
    """Write the digits of limb over out[lo:], up to its highest nonzero one."""
    while limb:
        limb, out[lo] = divmod(limb, base)
        lo += 1


def incremental_product(a, b, base):
    """The product of ``incremental`` alone, holding a and one carry as ints.

    This is the paper's step run in radix R = base**g (see ``limb_radix``):
    a is packed once into one int A, and step k multiplies it by the k-th
    limb of b, packed when the step runs, and adds the carry:
    ``carry, r = divmod(A * d + carry, R)``.  The low limb r is emitted,
    unpacked straight into the output, and the carry, below A, goes on to
    the next step.  CPython's own limb loops do the multiply and the
    divide, with R one int digit.  At the end the carry is split into limbs
    by the same divmod and unpacked above the emitted limbs.  No step's sum
    or carry is kept and no counters are returned: ``incremental``, the
    trace, verify and the counters stay digit-level.  Digits cross between
    int and list one limb at a time, never through ``str``.
    """
    la, lb = len(a), len(b)
    if not la or not lb:
        return []
    g, radix = limb_radix(base)
    big_a = 0
    for i in range((la - 1) // g * g, -1, -g):
        big_a = big_a * radix + _pack(a, i, g, base)
    out = [0] * (la + lb + 2 * g)
    carry = 0
    for k in range(0, lb, g):
        carry, r = divmod(big_a * _pack(b, k, g, base) + carry, radix)
        _unpack(r, out, k, base)
    # result = carry * base**top + the emitted limbs, top = g * (steps run)
    top = k + g
    while carry:
        carry, r = divmod(carry, radix)
        _unpack(r, out, top, base)
        top += g
    while top and out[top - 1] == 0:
        top -= 1
    del out[top:]
    return out


def schoolbook(a, b, base):
    """Classical long multiplication: all shifted rows, then one final sum.

    Returns (rows, result, digit_mults, digit_adds).  Rows are kept whole
    and summed left to right so the counters are deterministic.
    """
    rows = [shift(mul_by_digit(a, d, base), j) for j, d in enumerate(b)]
    mults = adds = len(a) * len(b)
    acc = rows[0] if rows else []
    for row in rows[1:]:
        acc = add(acc, row, base)
        adds += len(acc)
    return rows, acc, mults, adds


def check_invariant(a, b, steps, base):
    """Per-step truth of the carry-propagation invariant.

    Entry k is True iff

        sum(r[i] * base**i for i <= k) + base**(k+1) * carry_out(k)
            == sum((a * b[j]) * base**j for j <= k)

    The right side is recomputed from a and b alone, in one buffer: step k
    adds a * b[k] in place at offset k, so digit k is final from then on.
    Only the emitted digit and carry of each step are read back from the
    steps (they are what is being checked).  So step k holds iff every
    r[i] (i <= k) equals digit i, latched, and the carry equals the digits
    above k by value (high zeros ignored): O(len(a)) work per step.
    """
    la, lb = len(a), len(b)
    rhs = [0] * (la + lb)
    low_ok = True
    flags = []
    for k, (_, r, carry) in enumerate(steps):
        if k >= lb:
            flags.append(False)
            continue
        d = b[k]
        c = 0
        for j, x in enumerate(a, k):
            c, rhs[j] = divmod(x * d + rhs[j] + c, base)
        rhs[k + la] = c
        low_ok = low_ok and r == rhs[k]
        high = strip_high_zeros(rhs[k + 1 : k + la + 1])
        flags.append(low_ok and strip_high_zeros(list(carry)) == high)
    return flags


def oracle_mul(a, b, base):
    """Ground-truth product by digit-serial double-and-add over add alone.

    The doublings a * 2**i, one per bit of a digit (at most six, for bases
    33..36), are built once as add(x, x).  Horner's rule then walks b from
    its top digit: acc = acc * base + the sum of the doublings that the bits
    of the digit select, where * base is a one-place shift of acc.  So the
    oracle never calls mul_by_digit, divmod_base or shift.  It does share
    add with incremental (carry add) and schoolbook (row sum); the int route
    of verify is the one that shares nothing with the kernels.
    """
    doubles = [a]
    while 1 << len(doubles) < base:
        doubles.append(add(doubles[-1], doubles[-1], base))
    acc = []
    for d in reversed(b):
        if acc:
            acc.insert(0, 0)
        for x in doubles:
            if d & 1:
                acc = add(acc, x, base)
            d >>= 1
    return acc
