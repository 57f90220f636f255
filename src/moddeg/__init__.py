"""moddeg: certified lower bounds on modular degrees of rational elliptic curves.

A numerical-analysis library that computes fundamental-parallelogram
areas via the AGM, certifies every explicit constant in the chain of
lemmas behind the degree bounds (area bound, zero-free regions for
symmetric-square L-functions, the L-value lower bound, local fudge
factors), and assembles per-curve lower bounds with consistency checks
against known modular degrees.
"""

__version__ = "0.1.0"

from . import agm, bounds, curves, fudge, lvalue, report, specfun, zerofree
