"""In-memory span recorder that wraps ttig's public functions from outside.

`Tracer.install` replaces every public function of the layer modules with a
wrapper that records one span per call: name, start, end, parent span and
the id of the benchmark operation it ran under. Module attributes are
replaced, so calls made through `module.fn` or through a bare name inside
the module itself are both seen; `uninstall` puts the originals back. ttig's
own files are never edited. Spans stay in memory until `write`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict

# every ttig module that a generation or training path runs; pipesim is an
# analytic cost model that none of them calls
LAYERS = ("tensor", "nn", "optim", "seq2seq", "sampling", "vq", "contrastive",
          "metrics", "scenes", "textproc", "pngio", "checkpoint", "cli")

NAME, START, END, PARENT, OP = range(5)


class Tracer:
    def __init__(self):
        self.spans = []    # [name, start, end, parent index or -1, op id]
        self.op = -1       # id of the benchmark operation now running
        self._stack = []
        self._saved = []

    def _wrap(self, module, attr, name, kind_arg):
        fn = getattr(module, attr)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = f"{name}.{args[0] if args else kwargs['op_kind']}" if kind_arg else name
            span = [label, clock(), 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()

        setattr(module, attr, traced)
        self._saved.append((module, attr, fn))

    def install(self):
        for layer in LAYERS:
            module = importlib.import_module(f"ttig.{layer}")
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__
                        or inspect.isgeneratorfunction(obj)):
                    continue
                # tensor.apply spans carry the op kind: tensor.apply.gelu, ...
                self._wrap(module, attr, f"{layer}.{attr}",
                           kind_arg=(layer, attr) == ("tensor", "apply"))

    def uninstall(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def write(self, path):
        names = sorted({s[NAME] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = {"fields": ["name", "start", "end", "parent", "op"], "names": names,
               "spans": [[index[s[NAME]], s[START], s[END], s[PARENT], s[OP]]
                         for s in self.spans]}
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, separators=(",", ":")))


class Summary:
    """Per-name totals over the spans that started inside a time window.

    Self time is a span's duration minus the time its direct children cover;
    calls run one at a time, so children never overlap. `scope` restricts the
    totals to the subtrees rooted at spans of that name.
    """

    def __init__(self, spans, window, scope=None):
        t0, t1 = window
        child = [0.0] * len(spans)
        inside = [False] * len(spans)
        for i, s in enumerate(spans):
            inside[i] = ((scope is None or s[NAME] == scope
                          or (s[PARENT] >= 0 and inside[s[PARENT]]))
                         and t0 <= s[START] <= t1)
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        self.total = defaultdict(float)   # inclusive seconds per name
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)  # self seconds per layer
        for i, s in enumerate(spans):
            if not inside[i]:
                continue
            dur = s[END] - s[START]
            self.total[s[NAME]] += dur
            self.calls[s[NAME]] += 1
            self.self_s[s[NAME].split(".", 1)[0]] += dur - child[i]

    def prefixed(self, table, prefix):
        """Sum of table entries whose name is prefix or starts with prefix + '.'."""
        return sum(v for k, v in table.items()
                   if k == prefix or k.startswith(prefix + "."))
