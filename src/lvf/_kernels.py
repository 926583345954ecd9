"""Kernel backend selection.

Imports the compiled term-map kernels when they were built, otherwise
the pure twin.  ``LVF_PURE=1`` in the environment forces the pure
backend.  The exact elimination has a single implementation, in the
pure module, on every backend.
"""

import os

from lvf import _kernels_py

if os.environ.get("LVF_PURE"):
    _impl = _kernels_py
else:
    try:
        from lvf import _kernels_c as _impl  # type: ignore[attr-defined]
    except ImportError:
        _impl = _kernels_py

BACKEND = _impl.__name__.rsplit("_", 1)[-1]  # "c" or "py"

pp_add = _impl.pp_add
pp_scale = _impl.pp_scale
pp_mul = _impl.pp_mul
pmono_mul = _impl.pmono_mul
exp_add = _impl.exp_add
ep_add = _impl.ep_add
ep_scale = _impl.ep_scale
ep_mul = _impl.ep_mul
ep_diff = _impl.ep_diff
rref = _kernels_py.rref
echelon_insert = _kernels_py.echelon_insert
back_substitute = _kernels_py.back_substitute
