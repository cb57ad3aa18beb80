"""Higher q,t-Catalan polynomials, continuous Dyck path statistics, and the
limiting measures that connect them.

Each module's ``__all__`` is its public API, and the package re-exports all
five."""

from .discrete import *
from .qtpoly import *
from .continuous import *
from .measure import *
from .limit import *

__version__ = "0.1.0"
