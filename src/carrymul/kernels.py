"""Backend selection: compiled extension when available, pure Python otherwise.

``impl`` is the module the rest of the package calls into for the six
kernels that ``multiply``, ``trace`` and ``verify`` run: ``incremental``,
``incremental_steps`` (a generator in Python, a list in C), ``schoolbook``,
``incremental_product``, ``check_invariant`` and ``oracle_mul``, over
little-endian digit lists or tuples (see ``_kernels_py`` for the output rule
and the counters).  ``incremental_product``, which ``multiply`` runs,
works in radix base**g (g digits per limb, base**g < 2**30) in both
backends: the pure-Python one holds the multiplicand and its one carry as
two ints, parses the multiplicand from glyph text with one ``int()``
call per chunk of at most 640 glyphs and each multiplier limb with one per
step, and writes each emitted limb as a few table lookups; the C one holds
uint32_t limb arrays.  The trace, verify and the
counters stay digit-level.  The other helpers (``add``, ``mul_by_digit``,
``strip_high_zeros``, ``divmod_base``, ``shift``, and ``tally``, which
reads either backend's incremental steps) exist only in ``_kernels_py``
and are called from there directly.

The kernels are internal and unchecked: only digits that a public entry
point has already validated may reach them, and the two backends need not
agree on anything else.
"""

from carrymul import _kernels_py

try:
    from carrymul import _speedups as _compiled
except ImportError:  # extension not built; pure Python still fully works
    _compiled = None

impl = _compiled if _compiled is not None else _kernels_py

BACKEND = "compiled" if _compiled is not None else "python"


def available_backends():
    names = ["python"]
    if _compiled is not None:
        names.append("compiled")
    return names


def get_backend(name):
    """Return a kernel module by name ('python' or 'compiled')."""
    if name == "python":
        return _kernels_py
    if name == "compiled":
        if _compiled is None:
            raise ValueError("compiled backend is not available")
        return _compiled
    raise ValueError(f"unknown backend {name!r}")
