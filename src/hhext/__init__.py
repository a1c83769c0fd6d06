"""Exact Hochschild (co)homology of ungraded exterior algebras.

Everything is computed over exact scalars (rationals or prime fields),
in three independent ways, one module each, none importing another:
closed formulas (``formulas``), the minimal resolution and its
(co)chain complexes (``resolution``), and oracles (``complexes``: the
reduced bar complex, the commutator quotient).  The cup product ring
(``ring``) reads the resolution; ``cli`` compares the three.
"""

__version__ = "0.1.0"
