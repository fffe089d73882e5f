"""Exact toolkit for almost simplicial polytopes.

An almost simplicial polytope is a polytope all of whose facets are
simplices except possibly one.  The package constructs the two extremal
families (an almost-cyclic family maximizing faces and an almost-stacked
family minimizing them), enumerates faces both geometrically and
combinatorially, and verifies the enumerative identities, shelling
structure, minimizer recognition, and skeleton rigidity that tie the two
routes together.  All arithmetic is exact: points and facet planes are
primitive integer vectors, ranks come from integer elimination, and
rationals appear only where point coordinates are read or written.
"""

__version__ = "0.1.0"
