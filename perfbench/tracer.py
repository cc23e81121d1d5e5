"""Per-layer spans recorded from outside the oddcycle package.

The tracer replaces the listed public functions and methods with wrappers
that keep a stack of open spans.  A span's self time is its duration minus
the time covered by the spans opened inside it, so nested layers are not
counted twice.  A call into a layer from inside the same layer (``gcd``
calling ``pseudo_rem``, ``decimal_str`` calling ``refined``) stays part of
the outer span and is not counted as a separate call.

Nothing under ``src/`` is modified on disk: the wrappers are installed in
the running interpreter only.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
from time import perf_counter

# layer -> targets, each "module.function" or "module.Class.method";
# a target a later version of the package no longer has reports zero calls
LAYERS: dict[str, tuple[str, ...]] = {
    "graphs.odd_cycle": ("graphs.odd_cycle_rows", "graphs.is_odd_cycle_graph"),
    "graphs.iso": ("graphs.is_isomorphic",),
    "graphs.aut": ("graphs.automorphism_count",),
    "graphs.blocks": ("graphs.block_decomposition", "graphs.long_odd_cycles"),
    "matching.profile": ("matching.matching_profile",),
    "polynomials.sign_at": ("polynomials.IntPolynomial.sign_at",),
    "polynomials.gcd": (
        "polynomials.IntPolynomial.gcd",
        "polynomials.IntPolynomial.pseudo_rem",
        "polynomials.IntPolynomial.exact_div",
    ),
    "polynomials.squarefree": (
        "polynomials.IntPolynomial.squarefree_part",
        "polynomials.IntPolynomial.squarefree_decomposition",
    ),
    "roots.isolate": ("roots.max_real_root",),
    "roots.refine": ("roots.AlgebraicRoot.refined", "roots.AlgebraicRoot.decimal_str"),
    "roots.compare": ("roots.compare_roots",),
    "roots.sign_of": ("roots.AlgebraicRoot.sign_of",),
    "roots.count_above": ("roots.count_roots_above",),
    "skew.det_values": ("skew.char_poly_values",),
    # skew_char_poly's determinants are the det_values layer, so its self
    # time is the Fraction Newton interpolation
    "skew.interpolate": ("skew.skew_char_poly",),
    "kelmans.transform": ("kelmans.kelmans_transform",),
    "kelmans.reduce": ("kelmans.reduce_to_F",),
    "kelmans.dominance": ("kelmans.dominance",),
    "extremal.sweep": (
        "extremal.verify_classification",
        "extremal.verify_conjecture",
        "extremal.verify_monotonicity",
        "extremal.verify_reduction",
        "extremal.verify_dominance",
        "extremal.verify_identity",
        "extremal.verify_radius",
        "extremal.verify_oracles",
    ),
    "extremal.reps": ("extremal.connected_odd_cycle_reps",),
}

# layers whose calls answer yes or no; accept_ratio is the share of yes
COUNT_ACCEPTED = frozenset({"graphs.odd_cycle"})


def package_modules(package) -> list:
    """The package and every submodule, except ``__main__``, which exits
    the interpreter on import."""
    out = [package]
    for info in pkgutil.iter_modules(package.__path__):
        if info.name != "__main__":
            out.append(importlib.import_module(f"{package.__name__}.{info.name}"))
    return out


class Tracer:
    """Span stack plus per-layer call counts, self time and accepted calls."""

    def __init__(self) -> None:
        self.enabled = False
        self.calls = dict.fromkeys(LAYERS, 0)
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.accepted = dict.fromkeys(LAYERS, 0)
        self._stack: list[list] = []

    def install(self, package) -> None:
        """Wrap every target, wherever a package module holds a reference."""
        modules = package_modules(package)
        by_name = {m.__name__.rpartition(".")[2]: m for m in modules[1:]}
        for layer, targets in LAYERS.items():
            for target in targets:
                mod_name, _, path = target.partition(".")
                owner = by_name.get(mod_name)
                if owner is None:
                    continue
                *class_path, attr = path.split(".")
                for name in class_path:
                    owner = getattr(owner, name, None)
                original = getattr(owner, attr, None)
                if original is None:
                    continue
                wrapped = self._wrap(layer, original)
                if class_path:
                    setattr(owner, attr, wrapped)
                    continue
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapped)

    def _wrap(self, layer: str, fn):
        stack = self._stack
        calls, self_s, accepted = self.calls, self.self_s, self.accepted
        count_accepted = layer in COUNT_ACCEPTED

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if not self.enabled or (stack and stack[-1][0] == layer):
                return fn(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                self_s[layer] += dt - frame[1]
                calls[layer] += 1
                if stack:
                    stack[-1][1] += dt
            if count_accepted and result:
                accepted[layer] += 1
            return result

        return wrapped

    def layer_values(self) -> dict[str, float]:
        """Flat ``layer.calls`` / ``layer.self_s`` / ``layer.accept_ratio``."""
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.self_s"] = self.self_s[layer]
            if layer in COUNT_ACCEPTED:
                calls = self.calls[layer]
                out[f"{layer}.accept_ratio"] = self.accepted[layer] / calls if calls else 0.0
        return out
