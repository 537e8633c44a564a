"""ybforge: exact construction and verification of Yang-Baxter operator
families and Jordan (co)algebra structures from structure-constant data.

All arithmetic is exact rational and pure Python; every identity check is
a matrix equality, an exact coefficient expansion or a degree-certified
grid test.
"""
__version__ = "0.1.0"

__all__ = ["__version__"]
