"""Outside-in layer tracing for the sweep benchmark.

The tracer replaces layer entry points at the names their callers look
them up by (``weylchar._kernels.ymul`` for ``_kernels.ymul(...)`` in
``weyl``, ``weylchar.verify.dual_character`` for the name ``verify``
imported, and so on), so no file of the program changes.  Every wrapped
call adds to its name's count, busy time and self time; instance- and
character-level calls are also kept as spans (id, name, start, end,
parent id).  Sweep instances are timed by wrapping
``DiagramFamily.instances``: an instance's span runs from the moment it
is yielded until the engine asks for the next one.

A call's self time is its duration minus the durations of the wrapped
calls it made.  The bookkeeping a wrapper does after the call returns,
counters included, is charged to ``trace.tail_s`` rather than to the
caller, so that ``verify.self_s`` plus every layer's self time plus
``trace.tail_s`` equals the traced sweep time.
"""
from __future__ import annotations

import importlib
import time
from collections import defaultdict

clock = time.perf_counter

# Layer names, in the order the benchmark reports them.
LAYERS = ("weyl", "kernels", "diagrams", "polynomials", "schubert")


class Tracer:
    def __init__(self):
        self.stack = []  # open frames: [child seconds, span id or None]
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # name -> calls, busy, self
        self.spans = []
        self.counts = defaultdict(int)
        self.multisets = set()
        self.tail_s = 0.0
        self._next_id = 0
        self.root = None  # (frame, start, end) of the traced sweep

    # -- frames ---------------------------------------------------------

    def _open(self, span):
        span_id = None
        if span:
            self._next_id += 1
            span_id = self._next_id
        frame = [0.0, span_id]
        self.stack.append(frame)
        return frame

    def _close(self, name, frame, start, end):
        """Pop ``frame``; return the frame it reports to."""
        stack = self.stack
        if stack[-1] is frame:
            stack.pop()
        else:  # a generator closed out of order, e.g. by a truncated sweep
            stack.remove(frame)
        dur = end - start
        stat = self.stats[name]
        stat[0] += 1
        stat[1] += dur
        stat[2] += dur - frame[0]
        parent = stack[-1]
        parent[0] += dur
        if frame[1] is not None:
            self.spans.append((frame[1], name, start, end, parent[1]))
        return parent

    def _charge_tail(self, parent, end):
        tail = clock() - end
        parent[0] += tail
        self.tail_s += tail

    # -- installation ---------------------------------------------------

    def wrap(self, owner, attr, name, span=False, observe=None):
        """Replace ``owner.attr`` by a timed wrapper recorded under ``name``."""
        fn = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            frame = self._open(span)
            start = clock()
            done = False
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                end = clock()
                parent = self._close(name, frame, start, end)
                if done and observe is not None:
                    observe(args, result)
                self._charge_tail(parent, end)

        if isinstance(owner.__dict__[attr], (classmethod, staticmethod)):
            wrapper = staticmethod(wrapper)  # ``fn`` is already bound
        setattr(owner, attr, wrapper)

    def wrap_instances(self, family_class):
        """Give every instance a ``verify.instance`` span."""
        original = family_class.instances
        tracer = self

        def instances(family):
            for item in original(family):
                frame = tracer._open(True)
                start = clock()
                try:
                    yield item
                finally:
                    end = clock()
                    tracer._charge_tail(tracer._close("verify.instance", frame, start, end), end)

        family_class.instances = instances

    def install(self):
        # import_module, because the package re-exports a function named schubert
        kernels, diagrams, polynomials, schubert, verify, weyl = (
            importlib.import_module(f"weylchar.{name}")
            for name in ("_kernels", "diagrams", "polynomials", "schubert", "verify", "weyl")
        )

        counts = self.counts

        def on_character(args, chi):
            counts["weyl.principal_sum"] += polynomials.principal_specialization(chi)

        def on_group(args, classes):
            columns = args[0]
            self.multisets.add(tuple(sorted(c for c in columns if c)))
            counts["kernels.group_by_weight.classes"] += len(classes)
            for members in classes.values():
                counts["kernels.group_by_weight.members"] += len(members)
                counts["kernels.group_by_weight.multi_member_classes"] += len(members) > 1

        def on_ymul(args, product):
            counts["kernels.ymul.terms_out"] += len(product)

        def on_rank(args, rank):
            rows = args[0]
            counts["kernels.bareiss_rank.cells"] += len(rows) * len(rows[0]) if rows else 0
            counts["kernels.bareiss_rank.full_rank"] += rank == len(rows)
            counts["kernels.bareiss_rank.max_rows"] = max(
                counts["kernels.bareiss_rank.max_rows"], len(rows)
            )

        def on_support(args, weights):
            counts["kernels.weight_support.weights"] += len(weights)

        def on_pattern(args, hit):
            counts["diagrams.contains_pattern.hits"] += bool(hit)

        self.wrap_instances(verify.DiagramFamily)
        self.wrap(verify, "dual_character", "weyl.dual_character", span=True, observe=on_character)
        self.wrap(verify, "character_support", "weyl.character_support", span=True)
        self.wrap(weyl, "coefficient_rank", "weyl.coefficient_rank")
        self.wrap(kernels, "group_by_weight", "kernels.group_by_weight", observe=on_group)
        self.wrap(kernels, "column_det", "kernels.column_det")
        self.wrap(kernels, "ymul", "kernels.ymul", observe=on_ymul)
        self.wrap(kernels, "bareiss_rank", "kernels.bareiss_rank", observe=on_rank)
        self.wrap(kernels, "weight_support", "kernels.weight_support", observe=on_support)
        self.wrap(kernels, "column_ideal", "kernels.column_ideal")
        if kernels.BACKEND == "pure":
            core_py = importlib.import_module("weylchar._core_py")
            # the pure kernels call their column ideals by module global
            self.wrap(core_py, "column_ideal", "kernels.column_ideal")
        self.wrap(verify, "contains_pattern", "diagrams.contains_pattern", observe=on_pattern)
        self.wrap(polynomials.Polynomial, "from_terms", "polynomials.from_terms")
        for module in (weyl, polynomials, diagrams, schubert):
            self.wrap(module, "monomial", "polynomials.monomial")
        self.wrap(verify, "zero_one_witness", "polynomials.zero_one_witness")
        for module in (schubert, polynomials):
            self.wrap(module, "divided_difference", "polynomials.divided_difference")
        self.wrap(verify, "schubert", "schubert.schubert", span=True)
        self.wrap(verify, "macdonald_specialization", "schubert.macdonald_specialization", span=True)

    # -- the traced sweep -----------------------------------------------

    def run(self, sweep):
        """Run ``sweep()`` as the root span; return (result, seconds)."""
        root = self._open(True)
        start = clock()
        result = sweep()
        end = clock()
        self.stack.pop()
        self.root = (root, start, end)
        self.spans.append((root[1], "verify.sweep", start, end, None))
        return result, end - start

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict:
        root, start, end = self.root
        sweep_s = end - start
        stats = self.stats
        counts = self.counts

        def calls(name):
            return stats.get(name, (0, 0.0, 0.0))[0]

        def busy(name):
            return stats.get(name, (0, 0.0, 0.0))[1]

        def self_s(name):
            return stats.get(name, (0, 0.0, 0.0))[2]

        layer_self = {
            layer: sum(v[2] for k, v in stats.items() if k.startswith(layer + "."))
            for layer in LAYERS
        }
        verify_self = sweep_s - root[0] + self_s("verify.instance")
        char_ms = sorted(
            (e - s) * 1e3 for _, name, s, e, _ in self.spans if name == "weyl.dual_character"
        )
        computed = calls("kernels.group_by_weight")
        distinct = len(self.multisets)
        rank_calls = calls("kernels.bareiss_rank")
        return {
            "verify.instances": calls("verify.instance"),
            "verify.self_s": verify_self,
            "weyl.dual_character.calls": calls("weyl.dual_character"),
            "weyl.dual_character.s": busy("weyl.dual_character"),
            "weyl.dual_character.p99_ms": _percentile(char_ms, 0.99),
            "weyl.characters_computed": computed,
            "weyl.distinct_multisets": distinct,
            "weyl.recompute_ratio": computed / distinct if distinct else 0.0,
            "weyl.self_s": layer_self["weyl"],
            "weyl.coefficient_rank.self_s": self_s("weyl.coefficient_rank"),
            "weyl.principal_sum": counts["weyl.principal_sum"],
            "kernels.group_by_weight.s": busy("kernels.group_by_weight"),
            "kernels.group_by_weight.members": counts["kernels.group_by_weight.members"],
            "kernels.group_by_weight.classes": counts["kernels.group_by_weight.classes"],
            "kernels.group_by_weight.multi_member_classes":
                counts["kernels.group_by_weight.multi_member_classes"],
            "kernels.ymul.calls": calls("kernels.ymul"),
            "kernels.ymul.s": busy("kernels.ymul"),
            "kernels.ymul.terms_out": counts["kernels.ymul.terms_out"],
            "kernels.column_det.calls": calls("kernels.column_det"),
            "kernels.column_det.s": busy("kernels.column_det"),
            "kernels.bareiss_rank.calls": rank_calls,
            "kernels.bareiss_rank.s": busy("kernels.bareiss_rank"),
            "kernels.bareiss_rank.cells": counts["kernels.bareiss_rank.cells"],
            "kernels.bareiss_rank.max_rows": counts["kernels.bareiss_rank.max_rows"],
            "kernels.bareiss_rank.full_rank_share":
                counts["kernels.bareiss_rank.full_rank"] / rank_calls if rank_calls else 0.0,
            "kernels.weight_support.calls": calls("kernels.weight_support"),
            "kernels.weight_support.s": busy("kernels.weight_support"),
            "kernels.weight_support.weights": counts["kernels.weight_support.weights"],
            "kernels.column_ideal.calls": calls("kernels.column_ideal"),
            "kernels.column_ideal.s": busy("kernels.column_ideal"),
            "kernels.self_s": layer_self["kernels"],
            "diagrams.contains_pattern.calls": calls("diagrams.contains_pattern"),
            "diagrams.contains_pattern.s": busy("diagrams.contains_pattern"),
            "diagrams.contains_pattern.hits": counts["diagrams.contains_pattern.hits"],
            "diagrams.self_s": layer_self["diagrams"],
            "polynomials.from_terms.s": busy("polynomials.from_terms"),
            "polynomials.monomial.calls": calls("polynomials.monomial"),
            "polynomials.monomial.s": busy("polynomials.monomial"),
            "polynomials.zero_one_witness.s": busy("polynomials.zero_one_witness"),
            "polynomials.divided_difference.s": busy("polynomials.divided_difference"),
            "polynomials.self_s": layer_self["polynomials"],
            "schubert.schubert.s": busy("schubert.schubert"),
            "schubert.macdonald_specialization.s": busy("schubert.macdonald_specialization"),
            "schubert.self_s": layer_self["schubert"],
            "trace.sweep_s": sweep_s,
            "trace.tail_s": self.tail_s,
            "trace.accounted_share":
                (verify_self + sum(layer_self.values()) + self.tail_s) / sweep_s,
        }

    def dump(self) -> dict:
        """Aggregates and spans, for writing out once the sweep has ended."""
        return {
            "stats": {
                name: {"calls": v[0], "busy_s": v[1], "self_s": v[2]}
                for name, v in sorted(self.stats.items())
            },
            "spans": self.spans,
        }


def _percentile(sorted_values, q):
    if not sorted_values:
        return 0.0
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]
