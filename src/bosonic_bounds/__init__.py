"""Entanglement and optical-nonclassicality measures for multimode bosonic states.

Two state representations are supported: Gaussian states given by quadrature
mean and covariance, and truncated Fock-space states.  On top of the
measures (entanglement entropy, logarithmic negativity, total noise per
mode, quadrature coherence scale) the package evaluates the inequalities
tying them together, solves the equal-entropy photon split they involve,
and ships sweep and audit drivers plus a command line front end.
"""

__version__ = "0.1.0"

from .bounds import *
from .errors import *
from .experiments import *
from .fock import *
from .gaussian import *
from .symplectic import *
