"""Exact combinatorics of three arithmetic sites and the maps between them.

Submodules: literals (rational and JSON literal readers), ratpoly (exact
kernel), supernatural, bigpicture, conway, dessins, belyi, bostconnes,
points, arboreal, kernels (numpy), cli.  Import them by name
(`from arithsite import belyi`); the package itself imports nothing, so that
each CLI call loads only the modules its verb runs: no record is a
dataclass, the `bp`, `cw`, `sn`, `ds`, `bc` and `pt` verbs never load the
polynomial kernel, and only `ar tree` and `ar dot` load numpy.

Records follow one rule: a record that checks its fields is built only by its
__new__, which record() makes _make, _replace and copy call (PicClass defines
its own _make), or, when a theorem proves the fields valid, by the one
private builder _trusted of its module.
"""

__version__ = "0.1.0"

# Python refuses int <-> str conversions of more than 4300 digits by default.
# This cap admits every integer that one argument can spell (Linux limits an
# argv string to 128 KiB); printing an integer this long takes about 0.3 s.
# cli sets it as the interpreter's limit, and literals.parse_rational refuses
# a decimal exponent past it, which would build a longer integer.
MAX_INT_DIGITS = 131072

# MAX_EXACT_DEGREE caps the degree of the exact polynomials built from user
# input: each term of ratpoly.parse_poly and belyi.b_dk (and the dessin of the
# same degree, dessins.e_dessin), the composite of belyi.compose_count_check,
# and arboreal.composite, the tests' oracle.  On a 2-core Xeon host a
# composite and its squarefree check took 0.05 s together at degree 512
# (B_{8,3} three times), 0.12 s at degree 729 and 2.2-2.5 s at degree 2187
# (B_{3,1} six and seven times), the gcd taking most of it: cost climbs
# steeply with the degree.  The check of `by compose-count` took 0.06 s at
# degree 512 (B_{32,16} and B_{16,8}) and 28 s at degree 4096 (B_{64,32} twice).
MAX_EXACT_DEGREE = 512


def record(name: str, fields: str):
    """A namedtuple base whose _make, and so _replace, builds through the subclass's __new__."""
    import collections  # the package imports nothing at load
    base = collections.namedtuple(name, fields)
    base._make = classmethod(lambda cls, values: cls(*values))
    return base
