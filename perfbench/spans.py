"""Spans around the calls into each ``disconn`` module, recorded from outside.

:meth:`Tracer.install` replaces public functions and methods of the
package with wrappers that record one span per call: its name, start,
end, the span that was open when it started, and the run id.  Nothing
under ``src/`` changes; the wrappers are set on the classes and in every
module namespace that imported the function by name.

A span is named ``<layer>.<operation>``; the layer is the module that owns
the work.  ``evaluate`` and ``evaluate_many`` on forms built by
``riemannian_form`` are integrations and are named ``riemannian.*``; on
every other form they are ``connection.*``.  Self
time is a span's duration minus the durations of its direct children, so
``form_from_lift -> lift_many -> evaluate_many`` charges each level only
for its own work.  The wrapper's own cost lands in the parent's self time.
"""

import functools
import json
import os
import time
from collections import Counter, defaultdict

#: layers in report order
LAYERS = ("cli", "verify", "connection", "riemannian", "bundle", "rng")


class Tracer:
    """In-memory span recorder for one traced call."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        # (name, start_ns, end_ns, parent index or -1, items); a slot is
        # reserved at entry so children can refer to their parent by index
        self.spans = []
        self.pair_steps = 0
        self._open = []
        self._integrator_steps = {}

    # -- recording -----------------------------------------------------------

    def _wrap(self, fn, name, items=None):
        """Wrapper recording a span per call; ``name`` may be a callable of the args."""
        spans, open_ = self.spans, self._open
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = open_[-1] if open_ else -1
            label = name(args) if callable(name) else name
            count = items(args) if items else 1
            open_.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                open_.pop()
                spans[index] = (label, start, end, parent, count)

        return wrapper

    def _form_call(self, fn, operation: str, items):
        """Wrap a form method, naming integrations ``riemannian.*``."""
        steps_of = self._integrator_steps

        def name(args):
            entry = steps_of.get(id(args[0]))
            if entry is None:
                return f"connection.{operation}"
            self.pair_steps += items(args) * entry[1]
            return f"riemannian.{operation}"

        return self._wrap(fn, name, items)

    def _factory(self, fn, name: str, default_steps: int):
        """Wrap an integrator-form factory, remembering its step count."""
        wrapped = self._wrap(fn, name)

        @functools.wraps(fn)
        def factory(*args, **kwargs):
            form = wrapped(*args, **kwargs)
            steps = args[0] if args else kwargs.get("steps", default_steps)
            # keep the form alive so its id cannot be reused
            self._integrator_steps[id(form)] = (form, steps)
            return form

        return factory

    def install(self, disconn) -> None:
        """Wrap the public calls of every layer for the rest of the process."""
        from disconn import bundle, cli, connection, riemannian, rng, verify

        one = lambda args: 1  # noqa: E731
        many = lambda args: len(args[1])  # noqa: E731
        form_cls = connection.DiscreteConnectionForm
        form_cls.evaluate = self._form_call(form_cls.evaluate, "evaluate", one)
        form_cls.evaluate_many = self._form_call(form_cls.evaluate_many,
                                                 "evaluate_many", many)
        form_cls.in_domain = self._wrap(form_cls.in_domain, "connection.in_domain")
        lift_cls = connection.DiscreteHorizontalLift
        lift_cls.lift = self._wrap(lift_cls.lift, "connection.lift")
        lift_cls.lift_many = self._wrap(lift_cls.lift_many, "connection.lift_many", many)
        lift_cls.in_domain = self._wrap(lift_cls.in_domain, "connection.in_domain")
        for bundle_cls in (bundle.HopfBundle, bundle.TrivialBundle):
            bundle_cls.sample_point = self._wrap(bundle_cls.sample_point,
                                                 "bundle.sample_point")
            bundle_cls.act = self._wrap(bundle_cls.act, "bundle.act")

        functions = {
            cli.run_cli: self._wrap(cli.run_cli, "cli.run_cli"),
            verify.check_axioms: self._wrap(verify.check_axioms, "verify.check_axioms"),
            connection.lift_from_form: self._wrap(connection.lift_from_form,
                                                  "connection.lift_from_form"),
            connection.form_from_lift: self._wrap(connection.form_from_lift,
                                                  "connection.form_from_lift"),
            connection.slice_probe: self._wrap(connection.slice_probe,
                                               "connection.slice_probe"),
            riemannian.hopf_closed_form: self._wrap(riemannian.hopf_closed_form,
                                                    "riemannian.hopf_closed_form"),
            riemannian.riemannian_form: self._factory(
                riemannian.riemannian_form, "riemannian.riemannian_form",
                riemannian.DEFAULT_STEPS),
            rng.substream: self._wrap(rng.substream, "rng.substream"),
        }
        modules = (disconn, bundle, cli, connection, riemannian, rng, verify)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if callable(value) and value in functions:
                    setattr(module, attr, functions[value])

    # -- reporting -------------------------------------------------------------

    def summary(self) -> dict:
        """Counts and times per span name and self time per layer, in seconds."""
        calls = Counter()
        items = Counter()
        inclusive = defaultdict(int)
        self_ns = defaultdict(int)
        child_ns = [0] * len(self.spans)
        for index in range(len(self.spans) - 1, -1, -1):
            name, start, end, parent, count = self.spans[index]
            duration = end - start
            if parent >= 0:
                child_ns[parent] += duration
            calls[name] += 1
            items[name] += count
            inclusive[name] += duration
            self_ns[name] += duration - child_ns[index]
        layer_self = {layer: 0 for layer in LAYERS}
        for name, value in self_ns.items():
            layer_self[name.split(".", 1)[0]] += value
        return {
            "calls": dict(calls),
            "items": dict(items),
            "inclusive_s": {k: v * 1e-9 for k, v in inclusive.items()},
            "self_s": {k: v * 1e-9 for k, v in self_ns.items()},
            "layer_self_s": {k: v * 1e-9 for k, v in layer_self.items()},
            "pair_steps": self.pair_steps,
            "spans": len(self.spans),
        }

    def write(self, path: str) -> None:
        """Write the spans as JSON lines after a header naming the run and fields.

        Each span line is ``[name, start_ns, end_ns, parent, items]``; ``parent``
        is the line index (from 0, header excluded) of the enclosing span or -1.
        """
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"run": self.run_id, "fields": [
                "name", "start_ns", "end_ns", "parent", "items"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
