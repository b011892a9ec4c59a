"""Per-layer spans recorded from outside the library.

A Tracer replaces the public functions named in LAYERS by wrappers that
count calls and accumulate self time: span duration minus the time of the
wrapped spans nested inside it, so recursion (class_to_word) and layered
calls (compose -> __mul__) are each charged once.  Every binding of a wrapped
function is replaced, including copies made by `from .x import y` in other
arithsite modules and class aliases such as PolyQ.__rmul__.

Two ratios are measured where the work happens:
- bigpicture.fiber.kept_ratio: classes returned by fiber / hyperdistance
  calls made under fiber (the waste of the breadth-first search);
- arboreal.build_tree.cert_share: time under squarefree_level while
  build_tree is open / build_tree time (the exact certification share).

For CLI children the tracer also keeps, per call, the interpreter start,
the `import arithsite.cli` time and the time inside `cli.main`.
"""

from __future__ import annotations

import importlib
import sys
from statistics import median
from time import perf_counter

# (module, qualified name) of every wrapped public function, by layer
LAYERS = (
    ("ratpoly", "PolyQ.__mul__"),
    ("ratpoly", "PolyQ.compose"),
    ("ratpoly", "PolyQ.divmod"),
    ("ratpoly", "poly_gcd"),
    ("ratpoly", "squarefree_part"),
    ("ratpoly", "multiplicity_counts"),
    ("ratpoly", "Mat2Q.inv"),
    ("ratpoly", "primitive_form"),
    ("bigpicture", "hyperdistance"),
    ("bigpicture", "neighbours"),
    ("bigpicture", "fiber"),
    ("conway", "normalize"),
    ("conway", "class_to_word"),
    ("conway", "word_to_class"),
    ("conway", "divide_left"),
    ("conway", "mul"),
    ("belyi", "is_dynamical_belyi"),
    ("belyi", "compose"),
    ("belyi", "poly_passport"),
    ("belyi", "black_count"),
    ("belyi", "beta_word"),
    ("dessins", "compose"),
    ("dessins", "anatomy"),
    ("dessins", "validate"),
    ("dessins", "passport"),
    ("arboreal", "build_tree"),
    ("arboreal", "squarefree_level"),
    ("arboreal", "composite"),
    ("kernels", "dk_batch"),
    ("kernels", "newton_chain"),
    ("kernels", "min_pairwise_gap"),
    ("kernels", "chain_values"),
)

NAMES = tuple(f"{mod}.{qual}" for mod, qual in LAYERS)
FIBER, HYPERDISTANCE = "bigpicture.fiber", "bigpicture.hyperdistance"
BUILD_TREE, SQUAREFREE = "arboreal.build_tree", "arboreal.squarefree_level"
CLI_SPANS = ("interp_s", "import_s", "main_s")


class Tracer:
    """Span counters for the functions in LAYERS; records only while `active`."""

    def __init__(self):
        self.active = False
        self.calls = dict.fromkeys(NAMES, 0)
        self.self_s = dict.fromkeys(NAMES, 0.0)
        self.fiber_kept = 0
        self.fiber_hyperdistance = 0
        self.tree_s = 0.0
        self.cert_s = 0.0
        self.cli = {key: [] for key in CLI_SPANS}
        self._open = dict.fromkeys(NAMES, 0)
        self._child = []  # time of wrapped child spans, one slot per open span
        self._patched = []  # (holder, name, original) of every replaced binding

    def install(self) -> None:
        """Wrap every function in LAYERS, wherever arithsite binds it."""
        mods = [m for name, m in list(sys.modules.items()) if name.startswith("arithsite")]
        for (mod, qual), name in zip(LAYERS, NAMES):
            owner = importlib.import_module(f"arithsite.{mod}")
            for part in qual.split(".")[:-1]:
                owner = getattr(owner, part)
            original = getattr(owner, qual.split(".")[-1])
            wrapper = self._wrap(name, original)
            holders = [owner] if owner not in mods else []
            for holder in holders + mods:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)
                        self._patched.append((holder, key, original))

    def uninstall(self) -> None:
        """Put back every binding that install replaced."""
        for holder, key, original in self._patched:
            setattr(holder, key, original)
        self._patched.clear()

    def _wrap(self, name, fn):
        def span(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self._open[name] += 1
            if name == HYPERDISTANCE and self._open[FIBER]:
                self.fiber_hyperdistance += 1
            self._child.append(0.0)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = self._child.pop()
                self._open[name] -= 1
                self.calls[name] += 1
                self.self_s[name] += dt - child
                if self._child:
                    self._child[-1] += dt
                if name == BUILD_TREE and not self._open[BUILD_TREE]:
                    self.tree_s += dt
                elif name == SQUAREFREE and self._open[BUILD_TREE] and not self._open[SQUAREFREE]:
                    self.cert_s += dt
            if name == FIBER:
                self.fiber_kept += len(out)
            return out

        span.__wrapped__ = fn
        return span

    def export(self) -> dict:
        return {
            "calls": self.calls,
            "self_s": self.self_s,
            "fiber_kept": self.fiber_kept,
            "fiber_hyperdistance": self.fiber_hyperdistance,
            "tree_s": self.tree_s,
            "cert_s": self.cert_s,
            "cli": self.cli,
        }

    def merge_child(self, stats: dict) -> None:
        """Add the counters a CLI child exported."""
        for name in NAMES:
            self.calls[name] += stats["calls"][name]
            self.self_s[name] += stats["self_s"][name]
        for key in ("fiber_kept", "fiber_hyperdistance", "tree_s", "cert_s"):
            setattr(self, key, getattr(self, key) + stats[key])
        for key in CLI_SPANS:
            self.cli[key] += stats["cli"][key]

    def metrics(self) -> dict:
        """Per-layer metrics; a ratio whose base is zero reads 0."""
        out = {}
        for name in NAMES:
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.self_s"] = (self.self_s[name], "s")
        fh = self.fiber_hyperdistance
        out["bigpicture.fiber.kept_ratio"] = (self.fiber_kept / fh if fh else 0.0, "ratio")
        out["arboreal.build_tree.cert_share"] = (self.cert_s / self.tree_s if self.tree_s else 0.0, "ratio")
        for key in CLI_SPANS:
            out[f"cli.{key}"] = (median(self.cli[key]) if self.cli[key] else 0.0, "s")
        return out

    def attributed_s(self) -> float:
        """Time covered by named spans: whole CLI children, else layer self times."""
        if self.cli["main_s"]:
            return sum(sum(v) for v in self.cli.values())
        return sum(self.self_s.values())
