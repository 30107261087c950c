"""Critical long-range percolation lab.

Samples percolation configurations on finite boxes of Z^d (nearest
ell-infinity neighbors always wired, long edges wired with the critical
1 - exp(-beta * integral) kernel), measures chemical distances and
geodesics, estimates the distance exponent and geodesic box dimension,
and exactly verifies the combinatorial machinery used in that analysis:
blocking-witness (generalized Sperner) families, firework spreading
tails, and annulus-crossing probabilities.
"""

# numpy 2 imports these submodules on first use, and runs use both
# (np.unique reaches numpy.ma); importing them with the package keeps
# that cost out of the first call
import numpy.ma  # noqa: F401
import numpy.random  # noqa: F401

__version__ = "0.1.0"
