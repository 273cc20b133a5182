"""Pure-Python digit-vector kernels.

This is the reference backend and the spec.  ``carrymul._speedups`` (one
hand-written C file) is a compiled mirror of the six kernels that multiply,
trace and verify run: incremental, incremental_steps, incremental_product,
schoolbook, check_invariant and oracle_mul.  On valid input the two must stay
identical, counters included (see tests/test_backends.py).  The remaining
helpers, add and mul_by_digit among them, live here only.

Every kernel works digit by digit except incremental_product, the kernel
behind ``multiply``: it runs the paper's step in radix base**g, with
base**g < 2**30 (``limb_radix``), holding a and its one carry as Python
ints, so CPython's C limb loops multiply and divide them.  It converts
between digits and limbs only at its edges, and there in C-level calls
too: a is parsed from glyph text by one ``int(glyphs, base)`` per chunk
of at most ``CHUNK`` (640) glyphs, each limb of b by one per step, and
each emitted limb is written as ceil(g/h) lookups of h digits in a
per-base table (``piece_table``).  incremental (the trace),
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

import sys
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
PIECE_LIMIT = 1 << 11
# the smallest cap CPython lets int <-> str conversion take (640), so a parse
# of at most CHUNK glyphs never raises, whatever the cap is set to; Pythons
# before 3.10.7 have no cap and no such field
CHUNK = getattr(sys.int_info, "str_digits_check_threshold", 640)
# digit v -> its glyph, the text int(glyphs, base) parses; bytes 36..255
# map to 0xFF, which int() rejects
GLYPHS = b"0123456789abcdefghijklmnopqrstuvwxyz".ljust(256, b"\xff")


@cache
def limb_radix(base):
    """(g, base**g) for the largest g with base**g < 2**30, computed once
    per base on first use.

    g is 29/9/7/5 for bases 2/10/16/36.  A limb of g digits is then one
    CPython int digit (one uint32_t in C), so multiplying by a limb, and
    dividing by base**g, take CPython's single-digit paths; in C a limb
    product plus two limbs stays below 2**60.
    """
    g, radix = 1, base
    while radix * base < LIMB_LIMIT:
        g += 1
        radix *= base
    return g, radix


@cache
def piece_table(base):
    """(h, rows, top_rows), built once per base on first use: h is the
    largest count with base**h <= 2**11, capped at g (``limb_radix``), and
    rows[v] is the h little-endian digits of v < base**h, as bytes.  A limb
    is written as ceil(g/h) pieces of h digits, low first; when h does not
    divide g, its top g mod h digits come from top_rows, the rows with that
    many digits (top_rows is rows otherwise).
    """
    g = limb_radix(base)[0]
    digits = [bytes((d,)) for d in range(base)]
    levels = [[b""]]  # levels[j]: the rows of j digits
    while len(levels) <= g and len(levels[-1]) * base <= PIECE_LIMIT:
        levels.append([d + row for row in levels[-1] for d in digits])
    h = len(levels) - 1
    return h, levels[h], levels[g % h or h]


def incremental_product(a, b, base):
    """The product of ``incremental`` alone, holding a and one carry as ints.

    This is the paper's step run in radix R = base**g (see ``limb_radix``),
    one step per limb of b: ``carry, r = divmod(A * b_k + carry, R)``.  The
    low limb r is emitted and the carry, below A, goes on to the next step;
    after the last step the carry is split into limbs by the same divmod.
    CPython's own limb loops do the multiply and the divide, with R one int
    digit.  No step's sum or carry is kept and no counters are returned:
    ``incremental``, the trace, verify and the counters stay digit-level.

    Digits cross into ints as glyph text: a and b are each translated once
    into their glyphs, high digit first.  A is parsed in chunks of at most
    ``CHUNK`` glyphs, one ``int(glyphs, base)`` each, the short head chunk
    first, and the chunks are joined by Horner's rule in radix
    base**CHUNK (Knuth, TAOCP Vol. 2 §4.4).  b is padded with zero glyphs
    to whole limbs, and its limbs are parsed as the steps run, one
    ``int()`` of g glyphs per step, low limb first.  No parse exceeds
    CHUNK glyphs, so CPython's cap on int <-> str digits never applies.
    Each emitted limb is written into one bytearray as ceil(g/h) lookups in
    ``piece_table``.
    """
    la, lb = len(a), len(b)
    if not la or not lb:
        return []
    g, radix = limb_radix(base)
    h, rows, top_rows = piece_table(base)
    divisors = (base**h,) * ((g - 1) // h)  # one per piece below the top
    glyphs = bytes(reversed(a)).translate(GLYPHS)
    head = (la - 1) % CHUNK + 1
    big_a = int(glyphs[:head], base)
    if la > CHUNK:
        chunk_radix = base**CHUNK
        for i in range(head, la, CHUNK):
            big_a = big_a * chunk_radix + int(glyphs[i : i + CHUNK], base)
    k = (lb + g - 1) // g * g  # b's glyphs not yet stepped over
    glyphs = bytes(reversed(b)).translate(GLYPHS).rjust(k, b"0")
    out = bytearray()
    carry = 0
    while k or carry:
        if k:
            carry, r = divmod(big_a * int(glyphs[k - g : k], base) + carry, radix)
            k -= g
        else:  # the steps are done: split the carry into limbs
            carry, r = divmod(carry, radix)
        for piece in divisors:
            r, low = divmod(r, piece)
            out += rows[low]
        out += top_rows[r]
    del glyphs  # the list below sets the peak: hold no more beside it
    while out and not out[-1]:
        out.pop()
    return list(out)


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
