"""Pure-Python digit-vector kernels.

This is the reference backend and the spec.  ``carrymul._speedups`` (one
hand-written C file) is a compiled mirror of its six hot kernels: add,
mul_by_digit, incremental, schoolbook, check_invariant and oracle_mul.  On
valid input the two must stay identical, counters included (see
tests/test_backends.py); the C kernels also reject a digit that is not an
int in 0..base-1.  The remaining helpers live here only.

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
    plus one when a final carry digit is emitted.
  * mul_by_digit: one digit_mult per digit of the multiplicand, zeros
    included; one digit_add per position for carry absorption.  Placing a
    final carry digit is not an addition and does not tick.
"""


def normalize(digits):
    """Strip high-order zeros; zero becomes the empty list."""
    n = len(digits)
    while n and digits[n - 1] == 0:
        n -= 1
    return digits[:n]


def compare(a, b):
    """-1, 0 or 1 as a is below, equal to or above b.  Length decides first."""
    la, lb = len(a), len(b)
    if la != lb:
        return -1 if la < lb else 1
    for i in range(la - 1, -1, -1):
        if a[i] != b[i]:
            return -1 if a[i] < b[i] else 1
    return 0


def add(a, b, base):
    """Return (a + b, digit_adds)."""
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
    adds = la
    if carry:
        out.append(carry)
        adds += 1
    return out, adds


def mul_by_digit(a, d, base):
    """Return (a * d, digit_mults, digit_adds) for a single digit d."""
    la = len(a)
    out = [0] * la
    carry = 0
    for i in range(la):
        carry, out[i] = divmod(a[i] * d + carry, base)
    if carry:
        out.append(carry)
    # only d == 0 can leave high zeros
    return normalize(out) if d == 0 else out, la, la


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


def incremental(a, b, base):
    """Multiply by emitting one result digit per step of the multiplier.

    Step 0 computes s = a*b[0]; step k >= 1 computes s = a*b[k] + carry.
    Each step emits r = s mod base and carries floor(s / base), which may be
    as long as a.  Returns (steps, result, digit_mults, digit_adds) where
    steps is a list of (s, r, carry_out) triples in step order.
    """
    steps = []
    mults = 0
    adds = 0
    carry = []
    rdigits = []
    for k in range(len(b)):
        s, m, ad = mul_by_digit(a, b[k], base)
        mults += m
        adds += ad
        if k:
            s, ad = add(s, carry, base)
            adds += ad
        carry, r = divmod_base(s)
        steps.append((s, r, carry))
        rdigits.append(r)
    n = len(b)
    if n == 0:
        return steps, [], mults, adds
    # result = carry * base**n + sum(r[i] * base**i): shift then place digits
    out = [0] * n + carry
    for i in range(n):
        out[i] = rdigits[i]
    return steps, normalize(out), mults, adds


def schoolbook(a, b, base):
    """Classical long multiplication: all shifted rows, then one final sum.

    Returns (rows, result, digit_mults, digit_adds).  Rows are kept whole
    and summed left to right so the counters are deterministic.
    """
    rows = []
    mults = 0
    adds = 0
    for j in range(len(b)):
        p, m, ad = mul_by_digit(a, b[j], base)
        mults += m
        adds += ad
        rows.append(shift(p, j))
    if not rows:
        return rows, [], mults, adds
    acc = rows[0]
    for j in range(1, len(rows)):
        acc, ad = add(acc, rows[j], base)
        adds += ad
    return rows, acc, mults, adds


def check_invariant(a, b, steps, base):
    """Per-step truth of the carry-propagation invariant.

    Entry k is True iff

        sum(r[i] * base**i for i <= k) + base**(k+1) * carry_out(k)
            == sum((a * b[j]) * base**j for j <= k)

    The right side is recomputed from a and b alone; only the emitted digit
    and carry of each step are read back from the steps (they are what is
    being checked).  Everything is exact digit-vector arithmetic.
    """
    flags = []
    rhs = []
    rpref = []
    for k, (_, r, carry) in enumerate(steps):
        if k >= len(b):
            flags.append(False)
            continue
        p, _, _ = mul_by_digit(a, b[k], base)
        rhs, _ = add(rhs, shift(p, k), base)
        rpref.append(r)
        lhs = normalize(rpref + list(carry))
        flags.append(compare(lhs, rhs) == 0)
    return flags


def _halve(n, base):
    """(floor(n / 2), n mod 2) by short division from the top digit down."""
    q = [0] * len(n)
    r = 0
    for i in range(len(n) - 1, -1, -1):
        cur = r * base + n[i]
        q[i] = cur >> 1
        r = cur & 1
    return normalize(q), r


def oracle_mul(a, b, base):
    """Ground-truth product via binary double-and-add.

    Uses only add (doubling is add(x, x)) plus a private halving of the
    multiplier, so it shares no code path with mul_by_digit, divmod_base or
    either multiplication algorithm.
    """
    acc = []
    addend = list(a)
    m = list(b)
    while m:
        m, bit = _halve(m, base)
        if bit:
            acc, _ = add(acc, addend, base)
        if m:
            addend, _ = add(addend, addend, base)
    return acc
