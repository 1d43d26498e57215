"""Spans and counters at meanscope's module boundaries, recorded from outside.

`Tracer.installed()` replaces public functions with timing wrappers at the
names through which their callers look them up (``laws.loewner_leq`` rather
than ``linalg.loewner_leq``, because laws imported the name), and restores
them on exit.  No file of the program changes.

A span is (id, name, start, end, parent id).  Calls are strictly nested in
one thread, so a span's children never overlap and its self time is its
duration minus the sum of its children's durations.  Spans stay in memory
until `write` is called at the end of the run.
"""

from __future__ import annotations

import json
import re
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from meanscope import cli, ensembles, laws, linalg, means

# (owner, attribute, span name); the owner is where callers look the name up.
SPANNED = (
    (cli, "main", "cli.main"),
    (laws, "sample_instance", "ensembles.sample"),
    (laws, "check_law", "laws.check"),
    (laws, "sweep_law", "laws.sweep_law"),
    (laws, "loewner_leq", "linalg.loewner_leq"),
    (laws, "power", "linalg.power"),
    (laws, "kron", "linalg.kron"),
    (laws, "pd_sum", "linalg.pd_sum"),
    (means, "mean", "means.mean"),
    # HermitianMatrix.decomposition looks eig_hermitian up as a linalg global.
    (linalg, "eig_hermitian", "linalg.eig"),
)

_NUMBER = re.compile(r"[-+]?\d[\d.]*(?:e[-+]?\d+)?")


def skip_category(reason):
    """A skip reason with its numbers blanked, so equal causes tally together."""
    return _NUMBER.sub("#", reason)


class Tracer:
    def __init__(self):
        self.unit = 0              # index of the unit being traced, set by the caller
        self.spans = []            # (id, name, start, end, parent id or -1)
        self.calls = Counter()     # name -> calls
        self.self_s = Counter()    # name -> summed self time
        self.total_s = Counter()   # name -> summed duration
        self.eig_us = defaultdict(list)   # dimension -> self time per call, us
        self.trials = []           # one dict per checked trial
        self.sweep_points = Counter()     # unit -> grid points swept
        self._stack = []           # [span id, summed child duration]
        self._next_id = 0
        self._sample = None        # (duration, eig calls before) of the last sample

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            frame = [span_id, 0.0]
            self._stack.append(frame)
            eig_before = self.calls["linalg.eig"]
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                self.spans.append((span_id, name, start, end,
                                   parent[0] if parent is not None else -1))
                self.calls[name] += 1
                self.self_s[name] += duration - frame[1]
                self.total_s[name] += duration
            self._observe(name, args, result, duration, duration - frame[1],
                          eig_before)
            return result
        return traced

    def _observe(self, name, args, result, duration, self_time, eig_before):
        if name == "linalg.eig":
            self.eig_us[args[0].n].append(self_time * 1e6)
        elif name == "ensembles.sample":
            self._sample = (duration, eig_before)
        elif name == "laws.check":
            sample_s, eig_start = self._sample or (0.0, eig_before)
            self._sample = None
            self.trials.append({
                "law": args[0], "unit": self.unit,
                "ms": (sample_s + duration) * 1e3,
                "eig": self.calls["linalg.eig"] - eig_start,
                "status": result.status, "skip_reason": result.skip_reason})
        elif name == "laws.sweep_law":
            self.sweep_points[self.unit] += len(result.points)

    def _count(self, name, fn):
        def counted(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    @contextmanager
    def installed(self):
        """Patch the boundaries for the duration of the block."""
        saved = []

        def patch(owner, attr, new):
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, new)

        try:
            for owner, attr, name in SPANNED:
                patch(owner, attr, self._wrap(name, getattr(owner, attr)))
            # random_pd is called from laws and, inside ensembles, from
            # random_pd_tuple and random_ordered_pair.
            random_pd = self._count("ensembles.random_pd", ensembles.random_pd)
            patch(ensembles, "random_pd", random_pd)
            patch(laws, "random_pd", random_pd)
            patch(linalg.HermitianMatrix, "__init__",
                  self._count("linalg.matrix_new",
                              linalg.HermitianMatrix.__init__))
            yield self
        finally:
            for owner, attr, old in reversed(saved):
                setattr(owner, attr, old)

    def skip_tally(self):
        """(law, reason with numbers blanked) -> skipped trials."""
        return Counter((t["law"], skip_category(t["skip_reason"]))
                       for t in self.trials if t["status"] == "skip")

    def write(self, path):
        """Write every span as one JSON list per line: id, name, start, end, parent."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
