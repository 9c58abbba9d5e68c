"""Regenerates paper Fig. 6: BFS speedup as passes are added.

Expected shape (paper): the dataflow-style mapping is *worse* than serial;
queues alone give a modest pipeline; adding control values *without* DCE
dips; DCE/handlers recover; reference accelerators give the largest jump;
all passes together approach (or match) the manually tuned pipeline.
"""


def test_fig6(figure):
    s = {r["variant"]: r["speedup"] for r in figure("fig6")}
    assert s["Dataflow-style"] < 1.05  # dataflow-style does not beat serial
    assert s["CV+R+Q"] < s["R+Q"]  # control values alone hurt (paper Sec. IV-B)
    assert s["DCE+CV+R+Q"] > s["CV+R+Q"]  # DCE recovers them
    assert s["All passes"] > 1.5
    assert s["All passes"] > 0.85 * s["Manually pipelined"]  # ~matches manual
