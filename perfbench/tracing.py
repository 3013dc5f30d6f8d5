"""Per-layer counts and self times for the traced run.

Wrappers go around realbook's layer functions wherever a caller looks
the name up: in every realbook module that bound the function by name
(``openbook.word_matrix`` as well as ``mcg.word_matrix``) and on the
class for methods (``IntMatrix.__matmul__``).  A layer's self time is
the time inside its spans minus the time inside spans nested in them.
Spans are aggregated in memory, per layer and per benchmark op, and
written out when the run ends.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

from checks import HANDLES

STAB_TYPES = tuple(HANDLES)

# (module, attribute, layer) of every timed span
SPANS = [
    ("realbook.intalg", "IntMatrix.__matmul__", "intalg.matmul"),
    ("realbook.intalg", "smith_normal_form", "intalg.snf"),
    ("realbook.mcg", "word_matrix", "mcg.word_matrix"),
    ("realbook.mcg", "transport_arc", "mcg.transport_arc"),
    ("realbook.mcg", "words_equal", "mcg.words_equal"),
    ("realbook.openbook", "stabilize", "openbook.stabilize"),
    ("realbook.openbook", "check_reality", "openbook.check_reality"),
    ("realbook.openbook", "h1_of_manifold", "openbook.h1"),
    ("realbook.openbook", "enumerate_sites", "openbook.enumerate_sites"),
    ("realbook.surface", "validate_involution", "surface.validate_involution"),
    ("realbook.heegaard", "heegaard_data", "heegaard.heegaard_data"),
    ("realbook.heegaard", "real_part", "heegaard.real_part"),
    ("realbook.catalog", "build", "catalog.build"),
    ("realbook.jsonio", "loads", "jsonio.loads"),
    ("realbook.jsonio", "dumps", "jsonio.dumps"),
    ("realbook.contact", "k_threshold", "contact.k_threshold"),
    ("realbook.contact", "contact_report", "contact.report"),
    ("realbook.contact", "build_profiles", "contact.profiles"),
    ("realbook.contact", "solid_torus_extension_check", "contact.profiles"),
] + [("realbook.openbook", f"_stab_{t}", f"openbook.stabilize_{t}") for t in STAB_TYPES]

# FormSampler methods that evaluate the s x theta x t grid once each
GRID_METHODS = ("alpha_components", "defect_grid", "k_term_grid")


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.maxima: dict[str, int] = defaultdict(int)
        self.ops: list[dict] = []
        self._stack: list[float] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------

    def _note(self, layer: str, args, result, error) -> None:
        """Layer-specific counts taken at the span boundary."""
        if layer in ("mcg.word_matrix", "mcg.transport_arc"):
            self.counts[layer + "_letters"] += len(args[1] if len(args) > 1 else [])
        elif layer == "intalg.snf":
            rows, cols = args[0].shape
            self.maxima["intalg.snf_max_rows"] = max(self.maxima["intalg.snf_max_rows"], rows)
            self.maxima["intalg.snf_max_cols"] = max(self.maxima["intalg.snf_max_cols"], cols)
        elif layer == "openbook.stabilize" and error is not None:
            if type(error).__name__ == "StabilizationError":
                self.counts["openbook.stabilize_rejected"] += 1
        elif layer == "openbook.check_reality" and result is not None:
            if result.witness == "stabilization chain":
                self.counts["openbook.reality_by_chain"] += 1
        elif layer == "jsonio.loads":
            self.counts["jsonio.bytes"] += len(args[0])
        elif layer == "jsonio.dumps" and result is not None:
            self.counts["jsonio.bytes"] += len(result)

    def _span(self, layer: str, fn):
        stack = self._stack

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = time.perf_counter()
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                error = e
                raise
            finally:
                dt = time.perf_counter() - t0
                self.self_s[layer] += dt - stack.pop()
                if stack:
                    stack[-1] += dt
                self.calls[layer] += 1
                self._note(layer, args, result, error)

        wrapper.__wrapped__ = fn
        return wrapper

    def _grid_counter(self, fn):
        def wrapper(sampler, *args, **kwargs):
            self.counts["contact.grid_points"] += sampler.resolution ** 3
            return fn(sampler, *args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ----------------------------------------------------

    def _replace_everywhere(self, orig, wrapper) -> None:
        for name, module in list(sys.modules.items()):
            if not name.startswith("realbook") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is orig:
                    self._undo.append((module, attr, orig))
                    setattr(module, attr, wrapper)

    def install(self) -> None:
        """Wrap the layers of every realbook module already imported."""
        for modname, attr, layer in SPANS:
            module = sys.modules.get(modname)
            if module is None:
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                orig = vars(cls)[meth]
                self._undo.append((cls, meth, orig))
                setattr(cls, meth, self._span(layer, orig))
            else:
                orig = getattr(module, attr)
                self._replace_everywhere(orig, self._span(layer, orig))
        if "realbook.contact" not in sys.modules:
            return
        sampler = sys.modules["realbook.contact"].FormSampler
        for meth in GRID_METHODS:
            orig = vars(sampler)[meth]
            self._undo.append((sampler, meth, orig))
            setattr(sampler, meth, self._grid_counter(orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # -- per-op breakdown --------------------------------------------------

    def op_done(self, label: str, before: dict[str, float]) -> None:
        """Record the self time each layer spent in one benchmark op;
        ``before`` is a copy of ``self_s`` taken when the op started."""
        spent = {k: round(v - before.get(k, 0.0), 6) for k, v in self.self_s.items()
                 if v - before.get(k, 0.0) > 0}
        self.ops.append({"op": label, "self_s": spent})
