"""Exact combinatorics of three arithmetic sites and the maps between them.

Submodules: ratpoly (exact kernel), supernatural, bigpicture, conway,
dessins, belyi, bostconnes, points, arboreal, kernels (numpy), cli.
Import them by name (`from arithsite import belyi`); the package itself
imports nothing, so that each CLI call loads only the modules it uses.
"""

__version__ = "0.1.0"
