"""Measurement designs, Fisher-information bounds, and qubit tomography
simulation for single-copy and collective two-copy schemes.

The package's public names are those that the ``__all__`` lists of its
modules declare; ``opfile`` and ``cli`` are reached as submodules."""

from .matcore import *
from .states import *
from .designs import *
from .povm import *
from .fisher import *
from .tomosim import *

__version__ = "0.1.0"
