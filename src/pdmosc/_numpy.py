"""numpy, bound here once and imported at its first use.

Every module of the package takes ``np`` from here.  The closed-form
spectrum (``scan``, ``jafarov``, ``solve`` without ``--samples``) is pure
Python, so a command that builds no array never pays numpy's import.  A
process that imported numpy first keeps its own module; a missing numpy
raises the usual ModuleNotFoundError at ``import pdmosc``.

Before Python 3.12 the lazy load is not thread-safe: a program that calls
pdmosc from several threads should import numpy first.
"""

from __future__ import annotations

import importlib.util
import sys
from types import ModuleType


def _bind() -> ModuleType:
    module = sys.modules.get("numpy")
    if module is not None:
        return module
    spec = importlib.util.find_spec("numpy")
    if spec is None:
        # not installed, or blocked by a None in sys.modules: the plain import raises
        import numpy

        return numpy
    # the recipe of the importlib docs: the module's code runs at its first attribute access
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules["numpy"] = module
    loader.exec_module(module)
    return module


np = _bind()
