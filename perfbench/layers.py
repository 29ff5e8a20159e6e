"""Per-layer tracing from outside the library.

A layer is a group of nommon's public functions. ``Tracer.install``
replaces every binding of each of them, in every loaded ``nommon``
module and in the modules passed in, with a wrapper that keeps a stack
of open spans; modules import these functions by name, so patching
the defining module alone would miss most calls. Spans are not kept
one per call: each exit adds its count, total time and self time to
the (layer, calling layer) pair. Self time is the span's time minus
the time of its child spans.
"""

import sys
import time
from math import perm

# (layer, defining module, functions; "Class.method" for methods)
LAYERS = (
    ("kernel", "nommon.kernel", ("min_coset", "apply_positions")),
    ("sets.element", "nommon.sets", ("Element.__init__",)),
    ("sets.s_orbit", "nommon.sets", ("s_orbit_reps", "s_orbit_key")),
    ("sets.pair", "nommon.sets", ("ProductSet.pair", "pair_pattern")),
    ("sets.product", "nommon.sets", ("product_set",)),
    ("monoid.multiply", "nommon.monoid", ("NominalMonoid.multiply",)),
    ("monoid.validate", "nommon.monoid", ("validate_monoid", "validate_morphism")),
    ("monoid.quotient", "nommon.monoid", ("quotient",)),
    ("monoid.enumerate", "nommon.monoid", ("enumerate_small_monoids", "find_isomorphism")),
    ("fssets.normalize", "nommon.fssets", ("FsSubset.__init__",)),
    ("fssets.boolean", "nommon.fssets", ("fs_boolean",)),
    ("fssets.hull", "nommon.fssets", ("hull",)),
    ("language.syntactic", "nommon.language", ("syntactic_congruence", "syntactic_monoid")),
    ("language.member", "nommon.language", ("member", "eval_word")),
    ("bounds.bounded", "nommon.bounds", ("is_s_bounded", "enumerate_s_bounded")),
    ("bounds.join", "nommon.bounds", ("join_s_bounded",)),
    ("prolimit.stage", "nommon.prolimit", ("build_stage", "extend_stage")),
    ("prolimit.dist", "nommon.prolimit", ("d_s", "materialize_scope")),
    ("textfmt", "nommon.textfmt", ("serialize", "parse")),
)

# extra per-layer metrics: (name, unit, better)
EXTRAS = (
    ("sets.s_orbit.reps", "count", "lower"),
    ("sets.product.orbits", "count", "lower"),
    ("monoid.multiply.hit_ratio", "ratio", "higher"),
    ("monoid.enumerate.ticks_per_found", "ticks", "lower"),
    ("language.syntactic.contexts", "count", "lower"),
    ("bounds.bounded.accept_ratio", "ratio", "higher"),
    ("textfmt.bytes", "B", "lower"),
)

ROOT = "op"  # the calling layer of spans opened by the benchmark itself

# frame slots: layer, child time, "a sets.pair call ran directly inside",
# function name
LAYER, CHILD, PAIRED, NAME = range(4)


def _budget_arg(args, kwargs, position):
    return kwargs.get("budget", args[position] if len(args) > position else None)


def _context_count(m, p):
    """|E| of syntactic_congruence: elements supported by supp(p) plus 4k
    fresh atoms. Position groups act freely on injective tuples, so an
    orbit of dim d contributes n!/(n-d)! / |G| elements."""
    n = len(p.support) + 4 * m.carrier.bound
    return sum(perm(n, o.dim) // len(o.group) for o in m.carrier.orbits)


class Tracer:
    """Installs layer wrappers and aggregates their spans."""

    def __init__(self):
        self.stack = [[ROOT, 0.0, False, None]]
        self.stats = {}  # (layer, calling layer) -> [calls, total s, self s]
        self.counts = dict.fromkeys(
            ("reps", "orbits", "multiply_hits", "enum_ticks", "enum_found",
             "contexts", "congruences", "bounded_checked", "bounded_ok", "bytes"),
            0,
        )
        self._undo = []

    # -- hooks: (args, kwargs, result, frame, parent, before) -> None ------

    def _post_reps(self, args, kwargs, result, frame, parent, before):
        if frame[NAME] == "s_orbit_reps":
            self.counts["reps"] += len(result)

    def _post_orbits(self, args, kwargs, result, frame, parent, before):
        self.counts["orbits"] += len(result.set.orbits)

    def _post_pair(self, args, kwargs, result, frame, parent, before):
        parent[PAIRED] = True

    def _post_multiply(self, args, kwargs, result, frame, parent, before):
        if not frame[PAIRED]:
            self.counts["multiply_hits"] += 1

    def _pre_enumerate(self, args, kwargs, frame):
        if frame[NAME] == "enumerate_small_monoids":
            budget = _budget_arg(args, kwargs, 2)
            return None if budget is None else (budget, budget.used)
        return None

    def _post_enumerate(self, args, kwargs, result, frame, parent, before):
        if before is not None:
            budget, used = before
            self.counts["enum_ticks"] += budget.used - used
            self.counts["enum_found"] += len(result)

    def _pre_syntactic(self, args, kwargs, frame):
        if frame[NAME] == "syntactic_congruence":
            self.counts["contexts"] += _context_count(args[0], args[1])
            self.counts["congruences"] += 1

    def _post_bounded(self, args, kwargs, result, frame, parent, before):
        if frame[NAME] == "is_s_bounded" and parent[NAME] == "enumerate_s_bounded":
            self.counts["bounded_checked"] += 1
            self.counts["bounded_ok"] += bool(result.ok)

    def _post_textfmt(self, args, kwargs, result, frame, parent, before):
        if frame[NAME] == "serialize":
            self.counts["bytes"] += len(result.encode())

    def _hooks(self, layer):
        return {
            "sets.s_orbit": (None, self._post_reps),
            "sets.product": (None, self._post_orbits),
            "sets.pair": (None, self._post_pair),
            "monoid.multiply": (None, self._post_multiply),
            "monoid.enumerate": (self._pre_enumerate, self._post_enumerate),
            "language.syntactic": (self._pre_syntactic, None),
            "bounds.bounded": (None, self._post_bounded),
            "textfmt": (None, self._post_textfmt),
        }.get(layer, (None, None))

    def _wrap(self, layer, fn, pre, post):
        stack = self.stack
        stats = self.stats
        clock = time.perf_counter
        name = fn.__name__

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [layer, 0.0, False, name]
            stack.append(frame)
            before = pre(args, kwargs, frame) if pre else None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                parent[CHILD] += dt
                key = (layer, parent[LAYER])
                entry = stats.get(key)
                if entry is None:
                    entry = stats[key] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += dt
                entry[2] += dt - frame[CHILD]
            if post:
                post(args, kwargs, result, frame, parent, before)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, extra_modules=()):
        """Wrap every binding of every layer function."""
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "nommon" or n.startswith("nommon."))
        ]
        modules += list(extra_modules)
        for layer, module_name, names in LAYERS:
            pre, post = self._hooks(layer)
            home = sys.modules[module_name]
            for qualname in names:
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[attr]
                    setattr(cls, attr, self._wrap(layer, original, pre, post))
                    self._undo.append((cls, attr, original))
                    continue
                original = getattr(home, qualname)
                wrapper = self._wrap(layer, original, pre, post)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
                            self._undo.append((mod, key, original))

    def uninstall(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    # -- results ---------------------------------------------------------

    def layer_totals(self):
        """layer -> (calls, self seconds), for every layer in the table."""
        out = {layer: [0, 0.0] for layer, _, _ in LAYERS}
        for (layer, _caller), (calls, _total, self_s) in self.stats.items():
            out[layer][0] += calls
            out[layer][1] += self_s
        return out

    def metrics(self):
        """name -> (value, unit) for the per-layer calls, self time and extras."""
        c = self.counts
        totals = self.layer_totals()
        out = {}
        for layer, (calls, self_s) in totals.items():
            out[f"{layer}.calls"] = (calls, "count")
            out[f"{layer}.self_s"] = (self_s, "s")
        multiplies = totals["monoid.multiply"][0]
        values = {
            "sets.s_orbit.reps": c["reps"],
            "sets.product.orbits": c["orbits"],
            "monoid.multiply.hit_ratio": c["multiply_hits"] / multiplies if multiplies else 0.0,
            "monoid.enumerate.ticks_per_found": (
                c["enum_ticks"] / c["enum_found"] if c["enum_found"] else 0.0
            ),
            "language.syntactic.contexts": (
                c["contexts"] / c["congruences"] if c["congruences"] else 0.0
            ),
            "bounds.bounded.accept_ratio": (
                c["bounded_ok"] / c["bounded_checked"] if c["bounded_checked"] else 0.0
            ),
            "textfmt.bytes": c["bytes"],
        }
        for name, unit, _better in EXTRAS:
            out[name] = (values[name], unit)
        return out
