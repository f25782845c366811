"""exacthom: exact-arithmetic homological algebra over the rationals.

Chain complexes with rational coefficients (an `int` when integral, otherwise
a `Fraction`, never a `float`), Hochschild / cyclic / Connes homology of
finite-dimensional associative algebras, Lie algebra homology of matrix
algebras, stable-range comparisons between the two, and Cech homology of
finite covers with precosheaf coefficients. Every number is exact; nothing
here ever touches a float.
"""

__version__ = "0.1.0"
