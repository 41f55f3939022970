"""Numeric tolerances, fixed in one place.

ATOL_ALGEBRAIC bounds identities that hold exactly in real arithmetic
(unitarity, norm preservation, closed-form agreement, the binary entropy
identities).  ATOL_NORM is the looser bound deciding whether a probability
distribution counts as normalized.  INEQ_SLACK is the absolute slack applied
to the physical inequality predicates (the entropic bound and the duality
trade-off).
"""

ATOL_ALGEBRAIC = 1e-12
ATOL_NORM = 1e-9
INEQ_SLACK = 1e-9
