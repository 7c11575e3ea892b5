"""Spectral certification of stochastic Kronecker sums.

Builds the d^2-by-d^2 discrete/continuous stochastic Kronecker sums of a
matrix family, certifies their spectral radius/abscissa from the extreme
eigenvalues of small d-by-d Hermitian companion matrices, propagates the
covariance of the underlying bilinear stochastic systems exactly, and
validates all of it by Monte Carlo simulation.

Import names from the submodules, e.g.
``from kronspec.kronsum import classify_stability``.
"""

__version__ = "0.1.0"
