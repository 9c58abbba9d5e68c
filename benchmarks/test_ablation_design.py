"""Extension ablation: the Pipette design parameters the paper fixes.

Not a paper figure — supports Table III's choices: speedup saturates near
the paper's 24-deep queues, deep RA request parallelism is what makes RAs
win, and SMT time-multiplexing of stages holds up against spatial
placement (the load-balance argument of Sec. I).
"""

from repro.bench.experiments import cells


def test_ablation(figure):
    table = cells(figure("abl"), row="sweep")
    depth = table["queue depth"]
    assert depth["depth=24"] > depth["depth=2"]  # decoupling needs slack
    assert depth["depth=64"] < 1.25 * depth["depth=24"]  # saturates by 24
    mshr = table["RA parallelism"]
    assert mshr["ra_mshrs=16"] > mshr["ra_mshrs=1"]
