"""Exact combinatorics of three arithmetic sites and the maps between them.

Submodules: ratpoly (exact kernel), supernatural, bigpicture, conway,
dessins, belyi, bostconnes, points, arboreal, kernels (numpy), cli.
Import them by name (`from arithsite import belyi`); the package itself
imports nothing, so that each CLI call loads only the modules it uses.
"""

__version__ = "0.1.0"

# Python refuses int <-> str conversions of more than 4300 digits by default.
# This cap admits every integer that one argument can spell (Linux limits an
# argv string to 128 KiB); printing an integer this long takes about 0.3 s.
# cli sets it as the interpreter's limit, and ratpoly.parse_rational refuses
# a decimal exponent past it, which would build a longer integer.
MAX_INT_DIGITS = 131072
