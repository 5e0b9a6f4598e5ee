"""qacm: exact cohomology tables and aCM/Ulrich scans for rank-2 sheaves on
the reducible quadric surface X = {xy = 0} in P3."""

__version__ = "0.1.0"
