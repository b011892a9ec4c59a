"""Exact combinatorics of three arithmetic sites and the maps between them.

Submodules: ratpoly (exact kernel), supernatural, bigpicture, conway,
dessins, belyi, bostconnes, points, arboreal, kernels (numpy), cli.
"""

from . import (  # noqa: F401
    arboreal,
    belyi,
    bigpicture,
    bostconnes,
    conway,
    dessins,
    kernels,
    points,
    ratpoly,
    supernatural,
)
from .belyi import BelyiPoly, b_dk
from .bigpicture import PIC_ONE, PicClass
from .conway import Letter
from .dessins import FramedDessin, Passport
from .points import TruncatedChain
from .ratpoly import Mat2Q, PolyQ
from .supernatural import Supernatural

__version__ = "0.1.0"

__all__ = [
    "arboreal",
    "belyi",
    "bigpicture",
    "bostconnes",
    "conway",
    "dessins",
    "kernels",
    "points",
    "ratpoly",
    "supernatural",
    "BelyiPoly",
    "b_dk",
    "PIC_ONE",
    "PicClass",
    "Letter",
    "FramedDessin",
    "Passport",
    "TruncatedChain",
    "Mat2Q",
    "PolyQ",
    "Supernatural",
    "__version__",
]
