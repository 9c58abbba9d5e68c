"""ASCII pipeline diagrams.

Renders a :class:`~repro.ir.PipelineProgram` as the feed-forward network
the paper draws in its figures (Fig. 1/7): stages in boxes, reference
accelerators in rounded nodes, queues as labelled arrows, in dataflow
order.
"""


def _labels(pipeline):
    labels = {("stage", s.index): "[%d: %s]" % (s.index, s.name) for s in pipeline.stages}
    for ra in pipeline.ras:
        labels[("ra", ra.raid)] = "(RA%d %s %s)" % (ra.raid, ra.mode, ra.array)
    return labels


def ascii_diagram(pipeline):
    """One line per dataflow hop, topologically ordered."""
    labels = _labels(pipeline)
    graph = pipeline.successors()
    order = pipeline.topo_order()

    lines = ["pipeline %s" % pipeline.name]
    hops = [(src, dst, qid) for src in order for dst, qid in graph[src]]
    if not hops:
        for node in order:
            lines.append("  %s" % labels[node])
        return "\n".join(lines)
    for src, dst, qid in hops:
        lines.append("  %-28s --q%-2d--> %s" % (labels[src], qid, labels[dst]))
    linked = {src for src, _dst, _qid in hops} | {dst for _src, dst, _qid in hops}
    for node in order:
        if node not in linked:
            lines.append("  %s (no queues)" % labels[node])
    return "\n".join(lines)
