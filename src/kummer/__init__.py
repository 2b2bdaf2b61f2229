"""Exact verification engine for Kummer varieties of 2-coverings.

Subpackage map: gf2/fp/smith/lattice (exact linear algebra), groups (finite
group engine), reps + cohomology (G-modules and H^0/H^1), galois (certified
Galois groups), disjoint (splitting-field disjointness), picard (the
exceptional-class lattice filtration), pipeline + cli (verdicts).
"""
