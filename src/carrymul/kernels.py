"""Backend selection: compiled extension when available, pure Python otherwise.

``impl`` is the module the rest of the package calls into for the five
kernels that ``multiply``, ``trace`` and ``verify`` run:
``incremental_steps``, ``incremental_product``, ``schoolbook``,
``check_invariant`` and ``oracle_mul``, over little-endian digit lists or
tuples (see ``_kernels_py`` for the output rule and the counters).  Both
backends return the same values and yield the incremental steps one at a
time.  ``incremental_product`` runs the paper's step on limbs of digits
(see its docstring in ``_kernels_py`` and the README); the trace, verify
and the counters stay digit-level.  The other helpers (``incremental``,
``add``, ``mul_by_digit``, ``strip_high_zeros``, ``divmod_base``,
``shift``, and ``tally``, which reads either backend's incremental steps)
exist only in ``_kernels_py`` and are called from there directly.

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
