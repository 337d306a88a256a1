"""Exact bound-state multiplets of the spiked decadic oscillator.

Solvers for the closed-form N-plets of V(r) = r^10 + a r^8 + b r^6 + c r^4
+ d r^2 + f/r^2, independent residual verification, asymptotic decay-wedge
enumeration with left-right mirror pairing, and complex-contour shooting
cross-checks.
"""

__version__ = "0.1.0"

# republish each module's public interface, named once in its __all__
from .model import *
from .polynomial import *
from .recurrence import *
from .shooting import *
from .solvers import *
from .verify import *
from .wedges import *
from . import model, polynomial, recurrence, shooting, solvers, verify, wedges

__all__ = ["__version__", *(name for module in (model, polynomial, recurrence, shooting,
                                                  solvers, verify, wedges)
                            for name in module.__all__)]
