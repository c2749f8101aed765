"""Exact Gassmann certification for Heisenberg groups over finite rings.

The package constructs twisted horizontal subgroup families, certifies
almost-conjugacy by exhaustive computation, verifies cospectrality of the
associated Schreier coset graphs with exact integer spectra, scans
residue degrees in prime-degree cyclic fields, and certifies the
counting, growth, and tower inequalities with arbitrary precision.
Each module is imported by its own name, so a command loads only the
modules it runs.
"""

__version__ = "0.1.0"
