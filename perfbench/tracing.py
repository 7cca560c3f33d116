"""Span and counter wrappers for traced benchmark runs.

``Tracer.install()`` rebinds public functions of each lieforms layer to
wrappers that record a span: a call count and self time, that is the
span's duration minus the time its child spans cover.  The rebinding also
replaces the copies other lieforms modules hold through ``from ... import``
and covers ``LieAlgebra.__init__``.  FieldElement operators and
automorphism calls get counting wrappers only; their time falls into the
calling span's self time.  Everything stays in memory; ``report()`` gives
the totals per traced pass once the run ends.
"""

import functools
import inspect
import sys
import time

LAYERS = ("fields", "polynomials", "linalg", "liealg", "descent",
          "pfaffian", "decompose", "manifest", "cli")

# fields gets spans only on its coarse entry points; its operators are
# counted below.
FIELD_SPANS = ("coords_over", "lift_to", "power_basis_over", "galois_group",
               "parse_element", "format_element", "sqrt_or_none")

# Public functions left unwrapped so their time stays in the caller's self
# time: pfaffian_form's self time is then the Pfaffian expansion.
UNWRAPPED = {("pfaffian", "pfaffian")}

# Span names that metrics refer to; every other span is "<layer>.<name>".
NAMED = {
    ("linalg", "rref"): "linalg.rref",
    ("linalg", "mat_mul"): "linalg.mat_mul",
    ("liealg", "verify_morphism"): "liealg.verify",
    ("liealg", "verify_sigma_isomorphism"): "liealg.verify",
    ("liealg", "fingerprint"): "liealg.fingerprint",
    ("pfaffian", "pfaffian_form"): "pfaffian.pfaffian_form",
    ("decompose", "centroid_basis"): "decompose.centroid_basis",
    ("decompose", "radical"): "decompose.radical",
    ("decompose", "minpoly_of_matrix"): "decompose.minpoly",
    ("decompose", "isomorphism_verdict"): "decompose.oracle",
}

# Methods wrapped as spans: (layer, class name, method names).
METHOD_SPANS = (
    ("polynomials", "Polynomial",
     ("__add__", "__sub__", "__mul__", "__neg__", "__divmod__",
      "__floordiv__", "__mod__", "__pow__", "scale", "shift", "monic",
      "derivative", "eval")),
    ("manifest", "Manifest",
     ("field", "algebra", "algebra_field_name", "add_field", "add_algebra",
      "entities")),
)

# FieldElement / Automorphism attributes counted under fields.<op>.
COUNTED = (
    ("FieldElement", ("__mul__", "__rmul__"), "mul"),
    ("FieldElement", ("__add__", "__radd__", "__sub__", "__rsub__"), "add"),
    ("FieldElement", ("inverse",), "inv"),
    ("FieldElement", ("is_zero",), "is_zero"),
    ("Automorphism", ("__call__",), "aut"),
)
COUNTED_OPS = tuple(op for _, _, op in COUNTED)


def _public_functions(module):
    return [(name, fn) for name, fn in vars(module).items()
            if not name.startswith("_") and inspect.isfunction(fn)
            and fn.__module__ == module.__name__]


class Tracer:
    """Span totals and operator counts of one traced process."""

    def __init__(self):
        self.calls = {}
        self.self_s = {}
        self.counts = {}
        self._stack = []
        self._op_cells = {op: [0] for op in COUNTED_OPS}
        self._passes = []

    # ------------------------------------------------------------ wrappers

    def span(self, name, fn, observe=None):
        calls, self_s, stack = self.calls, self.self_s, self._stack
        calls.setdefault(name, 0)
        self_s.setdefault(name, 0.0)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                calls[name] += 1
                self_s[name] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
            if observe is not None:
                observe(result)
            return result
        return wrapper

    @staticmethod
    def counter(fn, cell):
        @functools.wraps(fn)
        def wrapper(*args):
            cell[0] += 1
            return fn(*args)
        return wrapper

    def _observe_oracle(self, verdict):
        self._bump("decompose.oracle.decided", verdict.status != "unknown")

    def _observe_decomposition(self, dec):
        from lieforms.decompose import CERTIFIED
        self._bump("decompose.summands", len(dec.summands))
        self._bump("decompose.certified",
                   sum(s.certificate == CERTIFIED for s in dec.summands))

    def _bump(self, key, by):
        self.counts[key] = self.counts.get(key, 0) + int(by)

    # ------------------------------------------------------------ install

    def install(self):
        import lieforms
        import lieforms.cli  # noqa: F401  (loads every layer)
        replaced = {}
        for layer in LAYERS:
            module = sys.modules["lieforms." + layer]
            for name, fn in _public_functions(module):
                if ((layer == "fields" and name not in FIELD_SPANS)
                        or (layer, name) in UNWRAPPED):
                    continue
                span_name = NAMED.get((layer, name), "%s.%s" % (layer, name))
                observe = None
                if span_name == "decompose.oracle":
                    observe = self._observe_oracle
                elif name == "decompose_indecomposable":
                    observe = self._observe_decomposition
                replaced[fn] = self.span(span_name, fn, observe)
        for module in [m for n, m in sys.modules.items()
                       if n == "lieforms" or n.startswith("lieforms.")]:
            for name, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in replaced:
                    setattr(module, name, replaced[value])
        lie = lieforms.liealg.LieAlgebra
        lie.__init__ = self.span("liealg.construct", lie.__init__)
        for layer, cls_name, methods in METHOD_SPANS:
            cls = getattr(sys.modules["lieforms." + layer], cls_name)
            for meth in methods:
                setattr(cls, meth, self.span("%s.%s.%s" % (layer, cls_name,
                                                           meth),
                                             vars(cls)[meth]))
        for cls_name, methods, op in COUNTED:
            cls = getattr(lieforms.fields, cls_name)
            for meth in methods:
                setattr(cls, meth, self.counter(vars(cls)[meth],
                                                self._op_cells[op]))

    # ------------------------------------------------------------ results

    def snapshot(self):
        counts = dict(self.counts)
        counts.update({"fields.%s" % op: cell[0]
                       for op, cell in self._op_cells.items()})
        counts.update({"calls:" + k: v for k, v in self.calls.items()})
        return counts

    def end_pass(self):
        """Mark the end of a traced pass, for the per-pass count check."""
        self._passes.append(self.snapshot())

    def report(self):
        """Totals per traced pass, and whether every pass counted alike."""
        n = len(self._passes)
        per_pass = []
        previous = {}
        for snap in self._passes:
            per_pass.append({k: v - previous.get(k, 0)
                             for k, v in snap.items()})
            previous = snap
        repeat = all(p == per_pass[0] for p in per_pass)
        final = self._passes[-1]
        return {
            "passes": n,
            "counts_repeat": repeat,
            "counts": {k: v / n for k, v in final.items()
                       if not k.startswith("calls:")},
            "calls": {k: self.calls[k] / n for k in self.calls},
            "self_s": {k: self.self_s[k] / n for k in self.self_s},
        }
