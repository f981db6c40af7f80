"""Multi-level hypergraph decomposition, pattern analysis, and generation."""

import sys

from .core import *
from .decompose import *
from .generators import *
from .io import *
from .metrics import *
from .recovery import *
from .tailfit import *

__version__ = "0.1.0"

_MODULES = ("core", "decompose", "generators", "io", "metrics", "recovery", "tailfit")
# `decompose` names the function here, so the modules come from sys.modules.
__all__ = sorted(name for m in _MODULES for name in sys.modules[f"{__name__}.{m}"].__all__)
