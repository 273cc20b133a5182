"""Backend selection: compiled extension when available, pure Python otherwise.

``impl`` is the module the rest of the package calls into for the six hot
kernels: ``add``, ``mul_by_digit``, ``incremental``, ``schoolbook``,
``check_invariant`` and ``oracle_mul``.  Both backends expose them over
little-endian digit lists or tuples (see ``_kernels_py`` for the
representation, the output rule and the counter conventions).  The small
helpers (``normalize``, ``compare``, ``divmod_base``, ``shift``) exist only
in ``_kernels_py`` and are called from there directly.
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
