"""Benchmark-side spans: one per call from the benchmark into a layer.

Spans are recorded by the benchmark's own files around public calls into
``repro`` (in-program spans are a later change), kept in memory, and
written out once at exit. A span is ``(id, parent, op, layer, name, start,
end)``; spans of one timed operation share its ``op`` id. A layer's self
time is its spans' duration minus the part their child spans cover.
"""

import contextlib
import json
import time

from spec import SHARE_GROUPS


class Recorder:
    """Collects spans when ``enabled``; a no-op context otherwise."""

    def __init__(self):
        self.enabled = False
        self.spans = []
        self._stack = []
        self._null = contextlib.nullcontext()

    def span(self, layer, name, op=None):
        if not self.enabled:
            return self._null
        return self._record(layer, name, op)

    @contextlib.contextmanager
    def _record(self, layer, name, op):
        parent = self._stack[-1] if self._stack else None
        if op is None and parent is not None:
            op = self.spans[parent]["op"]
        index = len(self.spans)
        entry = {
            "id": index, "parent": parent, "op": op, "layer": layer, "name": name,
            "start": time.perf_counter(), "end": None,
        }
        self.spans.append(entry)
        self._stack.append(index)
        try:
            yield entry
        finally:
            entry["end"] = time.perf_counter()
            self._stack.pop()

    def write(self, path, meta):
        with open(path, "w") as handle:
            json.dump({"meta": meta, "spans": self.spans}, handle)


def self_times(spans):
    """``{span id: duration minus children's durations}``."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def nesting_errors(spans, slack=1e-6):
    """Why ``spans`` do not form a forest; empty when they do."""
    by_id = {s["id"]: s for s in spans}
    errors = []
    for s in spans:
        if s["end"] is None or s["end"] < s["start"]:
            errors.append("span %d (%s) never closed" % (s["id"], s["name"]))
            continue
        if s["parent"] is None:
            continue
        parent = by_id.get(s["parent"])
        if parent is None:
            errors.append("span %d names missing parent %r" % (s["id"], s["parent"]))
        elif s["start"] < parent["start"] - slack or s["end"] > parent["end"] + slack:
            errors.append("span %d lies outside its parent %d" % (s["id"], parent["id"]))
    errors.extend(
        "span %d has negative self time %.3g" % (sid, own)
        for sid, own in self_times(spans).items()
        if own < -slack
    )
    return errors


def layer_shares(spans):
    """Self time per share-table column as a fraction of the root spans' wall."""
    own = self_times(spans)
    total = sum(s["end"] - s["start"] for s in spans if s["parent"] is None)
    column = {layer: group for group, layers in SHARE_GROUPS.items() for layer in layers}
    shares = dict.fromkeys(SHARE_GROUPS, 0.0)
    for s in spans:
        shares[column[s["layer"]]] += own[s["id"]]
    return {group: (value / total if total else 0.0) for group, value in shares.items()}
