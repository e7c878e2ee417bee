"""In-process span tracer for the ontoembed package.

``Tracer.install()`` replaces every public function of each package module
(``ontology``, ``encoder``, ``losses``, ``trainer``, ``soup``, ``evalsuite``,
``cli``) with a wrapper that records one span per call: name, parent span,
start and end.  Calls between modules go through module attributes
(``enc.backward_batch``), and calls inside a module look the name up in the
module's globals, so both pass through the wrappers.  The wrappers neither
change arguments nor results, so a traced run writes the same bytes as an
untraced one.

A few functions also get counters (texts encoded, bytes serialised,
parameters changed by an optimizer step).  The work a counter does is
recorded as a ``trace.count`` span, so it is not charged to any layer.

Spans stay in memory until ``dump`` writes them out as JSON.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

import numpy as np

LAYERS = ("ontology", "encoder", "losses", "trainer", "soup", "evalsuite", "cli")
COUNT_SPAN = "trace.count"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _config_key(config) -> str:
    return f"{config.vocab_buckets}:{config.hash_seed}"


class Tracer:
    """Records spans and counts for one process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []          # [name, parent index, start, end]
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.texts: dict[str, set[str]] = {}  # encoder config key -> distinct texts
        self.originals: dict[str, object] = {}

    # -- recording --------------------------------------------------------

    def _open(self, name: str) -> list:
        span = [name, self.stack[-1] if self.stack else -1, self.clock(), 0.0]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[3] = self.clock()
        self.stack.pop()

    def _add(self, key: str, n: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + int(n)

    def _note_texts(self, config, texts) -> None:
        self.texts.setdefault(_config_key(config), set()).update(texts)

    def wrap(self, name: str, fn):
        before, after = self._counter(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = None
            if before is not None:
                span = self._open(COUNT_SPAN)
                state = before(args, kwargs)
                self._close(span)
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if after is not None:
                span = self._open(COUNT_SPAN)
                after(args, kwargs, result, state)
                self._close(span)
            return result

        return traced

    def _counter(self, name: str):
        """(before, after) hooks that update ``self.counts`` for ``name``."""
        def texts_of(index, key):
            def after(args, kwargs, result, state):
                config = _arg(args, kwargs, 1, "config")
                texts = _arg(args, kwargs, index, key)
                self._add(f"{name}.texts", len(texts))
                self._note_texts(config, texts)
            return after

        if name == "encoder.encode":
            def after(args, kwargs, result, state):
                self._add(f"{name}.texts", 1)
                self._note_texts(_arg(args, kwargs, 1, "config"), [_arg(args, kwargs, 2, "text")])
            return None, after
        if name in ("encoder.encode_batch", "encoder.backward_batch"):
            return None, texts_of(2, "texts")
        if name == "encoder.checkpoint_to_bytes":
            return None, lambda a, k, result, s: self._add(f"{name}.bytes", len(result))
        if name == "encoder.checkpoint_from_bytes":
            return None, lambda a, k, r, s: self._add(f"{name}.bytes", len(_arg(a, k, 0, "data")))
        if name == "evalsuite.eval_nel":
            return None, lambda a, k, r, s: self._add(
                f"{name}.mentions", len(_arg(a, k, 2, "dataset").rows))
        if name == "trainer.adamw_step":
            flatten = self.originals["encoder.flatten"]

            def before(args, kwargs):
                return np.array(flatten(_arg(args, kwargs, 0, "params")), copy=True)

            def after(args, kwargs, result, old):
                new = np.asarray(flatten(result[0]))
                self._add(f"{name}.params", np.count_nonzero(new != old))
            return before, after
        return None, None

    # -- installing -------------------------------------------------------

    def install(self, package: str = "ontoembed") -> None:
        """Wrap the public functions of every layer module of ``package``."""
        modules = {layer: importlib.import_module(f"{package}.{layer}") for layer in LAYERS}
        targets = []
        for layer, module in modules.items():
            for attr, obj in sorted(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__):
                    continue
                name = f"{layer}.{attr}"
                self.originals[name] = obj
                targets.append((module, attr, name, obj))
        for module, attr, name, obj in targets:
            setattr(module, attr, self.wrap(name, obj))

    # -- output -----------------------------------------------------------

    def dump(self, path: str) -> None:
        payload = {
            "spans": self.spans,
            "counts": self.counts,
            "texts": {key: sorted(texts) for key, texts in self.texts.items()},
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, _, start, end in spans]
    for _, parent, start, end in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own
