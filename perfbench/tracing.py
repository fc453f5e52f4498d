"""Outside-in layer tracing for the fclosure engine.

The tracer wraps the public functions of the engine modules from outside:
each wrapper replaces the original in every ``fclosure.*`` namespace that
holds it, so calls inside one module (``intersect`` calling
``groebner_basis``) and across modules (``frobenius`` calling the
``groebner_basis`` it imported by name) are both seen.  Nothing under
``src/`` is edited.

Spans are aggregated as they close instead of being stored: for every
wrapped function the tracer keeps the call count, the total time of its
outermost (non-reentrant) spans, and its self time, which is a span's
duration minus the durations of the spans it caused.  It also counts each
(caller, callee) edge, which the benchmark uses to prove that intra-module
calls are captured.

A few layers get extra counters, read at the layer boundary:

* ``groebner_basis``: fresh computations (the ideal had no cached basis),
  and how many of those repeat a generator set already computed fresh in
  the same round; the largest basis returned.
* ``frobenius_preimage``: calls with e > 0, and how many of them nested
  exactly one ``frobenius_root`` call (the root fast path answered).
* ``frobenius_closure``: failures by budget kind.
* ``sample_parameter_ideals``: draws attempted and accepted.

``MonomialOrder.key``/``BlockOrder.key`` and ``Polynomial.__mul__`` are hot
enough that they are only counted, by patching the classes.  A block-order
key evaluates its base order's key, so it counts twice.
"""

from __future__ import annotations

import inspect
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

# engine modules whose public functions are wrapped; ``cli`` is a thin
# argparse/JSON shell and gets no layer of its own
LAYERS = ("polyring", "ideals", "frobenius", "sequences", "genfrac", "workbench")
BUDGET_KINDS = ("basis", "pairs", "degree")


class _Frame:
    __slots__ = ("name", "child", "roots")

    def __init__(self, name):
        self.name = name
        self.child = 0.0
        self.roots = 0


class Tracer:
    """Installs counting/timing wrappers into the loaded ``fclosure``
    modules.  Wrappers record only inside :meth:`recording`; outside it they
    call straight through, so output checks do not disturb the counters."""

    def __init__(self):
        self._patches = []  # (owner, attribute, original)
        self.recording_on = False
        self.reset()

    # -- state ---------------------------------------------------------------

    def reset(self):
        self.stack = []
        self.calls = Counter()
        self.total = Counter()
        self.self_time = Counter()
        self.edges = Counter()
        self.active = Counter()
        self.counts = Counter()
        self.seen_gens = set()

    @contextmanager
    def recording(self):
        """Record one round from a clean state."""
        self.reset()
        self.recording_on = True
        try:
            yield self
        finally:
            self.recording_on = False

    # -- installation ----------------------------------------------------------

    def install(self):
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if name == "fclosure" or name.startswith("fclosure.")
        }
        wrappers = {}
        for layer in LAYERS:
            mod = modules[f"fclosure.{layer}"]
            for name, fn in vars(mod).items():
                if name.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        for mod in modules.values():
            for name, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(mod, name, hit[1])

        polyring = modules["fclosure.polyring"]
        for cls in (polyring.MonomialOrder, polyring.BlockOrder):
            self._patch(cls, "key", self._count(cls.key, "polyring.order_key.calls"))
        mul = self._count(polyring.Polynomial.__mul__, "polyring.mul.calls")
        self._patch(polyring.Polynomial, "__mul__", mul)
        self._patch(polyring.Polynomial, "__rmul__", mul)

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _patch(self, owner, name, replacement):
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, replacement)

    def _count(self, fn, counter):
        tracer = self

        def counted(*args):
            if tracer.recording_on:
                tracer.counts[counter] += 1
            return fn(*args)

        return counted

    def _wrap(self, name, fn):
        tracer = self
        # per-layer hooks are the methods named _before_<function>/_after_<function>
        before = getattr(self, "_before_" + name.split(".")[1], None)
        after = getattr(self, "_after_" + name.split(".")[1], None)

        def traced(*args, **kwargs):
            if not tracer.recording_on:
                return fn(*args, **kwargs)
            stack = tracer.stack
            frame = _Frame(name)
            if stack:
                tracer.edges[(stack[-1].name, name)] += 1
            if before is not None:
                before(frame, args, kwargs)
            tracer.active[name] += 1
            stack.append(frame)
            result = exc = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                dt = perf_counter() - t0
                stack.pop()
                tracer.active[name] -= 1
                if stack:
                    stack[-1].child += dt
                tracer.calls[name] += 1
                tracer.self_time[name] += dt - frame.child
                if not tracer.active[name]:
                    tracer.total[name] += dt
                if after is not None:
                    after(frame, args, kwargs, result, exc)

        traced.__wrapped__ = fn
        return traced

    # -- per-layer hooks ---------------------------------------------------------

    def _before_groebner_basis(self, frame, args, kwargs):
        ideal = args[0]
        if ideal._basis is not None:
            return
        self.counts["ideals.groebner_basis.fresh"] += 1
        ring = ideal.ring
        key = (
            ring.p,
            ring.variables,
            repr(ring.order),
            tuple(tuple(sorted(g._terms.items())) for g in ideal.gens),
        )
        if key in self.seen_gens:
            self.counts["ideals.groebner_basis.repeat"] += 1
        else:
            self.seen_gens.add(key)

    def _after_groebner_basis(self, frame, args, kwargs, result, exc):
        if result is not None:
            top = self.counts["ideals.groebner_basis.max_len"]
            self.counts["ideals.groebner_basis.max_len"] = max(top, len(result))

    def _after_frobenius_root(self, frame, args, kwargs, result, exc):
        for outer in reversed(self.stack):
            if outer.name == "frobenius.frobenius_preimage":
                outer.roots += 1
                break

    def _after_frobenius_preimage(self, frame, args, kwargs, result, exc):
        e = args[1] if len(args) > 1 else kwargs["e"]
        e = getattr(e, "e", e)
        if e > 0:
            self.counts["frobenius.frobenius_preimage.calls_e_pos"] += 1
            if frame.roots == 1 and exc is None:
                self.counts["frobenius.frobenius_preimage.fastpath"] += 1

    def _after_frobenius_closure(self, frame, args, kwargs, result, exc):
        kind = getattr(exc, "kind", None)  # set on BudgetExceededError only
        if kind is not None:
            self.counts["frobenius.frobenius_closure.failed"] += 1
            self.counts[f"frobenius.frobenius_closure.failed.{kind}"] += 1

    def _after_sample_parameter_ideals(self, frame, args, kwargs, result, exc):
        if result is not None:
            self.counts["workbench.sample_parameter_ideals.attempts"] += result.attempts
            self.counts["workbench.sample_parameter_ideals.accepted"] += len(result.sequences)

    # -- results -------------------------------------------------------------------

    def counters(self):
        """The deterministic part of one round: every count, no times."""
        out = {f"{name}.calls": n for name, n in self.calls.items()}
        out.update(self.counts)
        out.update({f"edge:{a}->{b}": n for (a, b), n in self.edges.items()})
        return dict(sorted(out.items()))

    def times(self):
        out = {}
        for name in self.calls:
            out[f"{name}.self_s"] = self.self_time[name]
            out[f"{name}.total_s"] = self.total[name]
        return out
