"""The elimination kernel.

There is one kernel, the pure-Python Gauss-Jordan elimination in
``_kernel_py``. Callers reach it through the ``kernel`` attribute of this
module (``kernel.rref_rational``, ``kernel.rref_mod``) so that a tracer can
wrap it in one place. ``linalg`` imports this module on its first
elimination or solve, so a call that never eliminates never loads it.
"""

from . import _kernel_py as kernel

# exported as moddef.kernel_backend
kernel_backend = "python"
