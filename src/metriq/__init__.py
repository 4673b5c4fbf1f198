"""Metric-aware spectral toolkit for non-hermitian lattice and boson models.

The package builds Hamiltonians that are hermitian with respect to a
positive-definite metric rather than the Dirac inner product, together
with the machinery to certify that: metric square roots, eta-adjoints,
hermitian-equivalent forms, norm-conserving evolution, and a check engine
with a batch CLI on top.

Layout
------
``linops``
    Metric algebra on dense matrices, for metrics a user supplies:
    adjoints, square roots, the modified inner product; spectra, evolution.
``bosonic``
    Truncated Fock spaces, deformed quadratic boson forms, Bogoliubov
    frequencies, the two-boson su(2) realization and the collective-spin
    model built from it.
``oscillator2d``
    The two-dimensional anisotropic oscillator with an imaginary cross
    stiffness, worked in the angular-momentum (chiral) basis.
``spinchain``
    Asymmetric XXZ chains, inverse-chord exchange rings, lattice fermions
    via the string mapping, and the quantum-group boundary limit.
``verify``
    The standardized check suite, run on a diagonal metric's weights, and
    graded-matrix identities.
``cli``
    JSON-config batch front end (``metriq run | spectrum | verify``); not
    imported here.

Each module's ``__all__`` is the one list of its public names, and the
package re-exports them all.
"""

__version__ = "0.1.0"

from .linops import *
from .bosonic import *
from .oscillator2d import *
from .spinchain import *
from .verify import *

__all__ = ["__version__", *linops.__all__, *bosonic.__all__, *oscillator2d.__all__,
           *spinchain.__all__, *verify.__all__]
