"""frontdoor: cold CLI starts and warm daemon round trips.

Closed loop, one client, one request in flight. A pass is one cold
``python -m repro emit k.c --format summary`` subprocess followed by twenty
round trips over a unix socket in a fixed 10 : 9 : 1 mix of ``emit`` (inline
source) : ``lint --bench X`` : ``demo --size 300``, all cache-warm. The
daemon runs with rate limiting off; otherwise its default 10 req/s bucket
is what would be measured. Every CLI/daemon output must equal the
in-process ``api.handle`` output.
"""

import os
import random
import statistics
import subprocess
import sys

from repro import api
from repro.client import ServiceClient
from repro.service.telemetry import parse_prometheus
from repro.workloads import ALL_BENCHMARKS

from common import Workload, median_ms, p99_ms
from spec import VERBS

CLI_KERNEL = "bfs"
DEMO = {"bench": "bfs", "size": 300}
LINT_BENCHES = 9


def _python(*args):
    """One fresh interpreter running ``args`` to completion."""
    return subprocess.run(
        [sys.executable] + list(args), capture_output=True, text=True, timeout=120
    )


class Frontdoor(Workload):
    name = "frontdoor"

    def __init__(self):
        self.requests = []
        self.expected = {}
        self.daemon = None
        self.client = None
        self.kernel = None

    def setup(self, ctx):
        benches = sorted(ALL_BENCHMARKS)
        for bench in benches:
            request = api.CompileRequest(source=ALL_BENCHMARKS[bench].SOURCE, fmt="summary")
            self.requests.append(("emit." + bench, "emit", request))
        for bench in benches[:LINT_BENCHES]:
            self.requests.append(("lint." + bench, "lint", api.LintRequest(bench=bench)))
        self.requests.append(("demo", "demo", api.RunRequest(seed=ctx.seed, **DEMO)))
        random.Random(ctx.seed).shuffle(self.requests)
        # The in-process answers are the reference; computing them also warms
        # the cache directory the daemon shares.
        self.expected = {op: api.handle(request).output for op, _, request in self.requests}

        self.kernel = os.path.join(ctx.work, "k.c")
        with open(self.kernel, "w") as handle:
            handle.write(ALL_BENCHMARKS[CLI_KERNEL].SOURCE)

        # The daemon inherits this process's one CPU; stay on it, so the
        # probe loop sees the speed mode the daemon's work runs in.
        ctx.host.cpus = sorted(os.sched_getaffinity(0))
        sock = os.path.join(ctx.work, "d.sock")
        self.daemon = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--socket", sock, "--workers", "1",
             "--rate", "0", "--quota", "0", "--quiet"],
            stdout=subprocess.DEVNULL,
        )
        self.client = ServiceClient(socket_path=sock, client_id="e2e")
        self.client.wait_ready(timeout=30, interval=0.01)
        for op, _, request in self.requests:
            self._check(ctx, "warm." + op, self.client.submit(request), self.expected[op])

    def teardown(self, ctx):
        if self.daemon is None:
            return
        try:
            if self.daemon.poll() is None:
                self.client.shutdown()
            self.daemon.wait(timeout=10)
        except Exception:
            self.daemon.kill()
            self.daemon.wait()
            raise

    @staticmethod
    def _check(ctx, op_id, response, expected):
        if response is None:
            return
        if response.exit_code != 0 or response.output != expected:
            ctx.fail(op_id, "exit %d, output %s in-process api.handle" % (
                response.exit_code, "equals" if response.output == expected else "differs from"))

    def one_pass(self, ctx):
        def cold():
            with ctx.rec.span("cli", "python -m repro emit"):
                return _python("-m", "repro", "emit", self.kernel, "--format", "summary")

        proc = ctx.op("cli.emit", cold)
        if proc is not None and (
            proc.returncode != 0 or proc.stdout != self.expected["emit." + CLI_KERNEL]
        ):
            ctx.fail("cli.emit", "exit %d, stdout %r" % (proc.returncode, proc.stdout[:80]))
        for op, verb, request in self.requests:
            def submit(verb=verb, request=request):
                with ctx.rec.span("service", "submit." + verb):
                    return self.client.submit(request)

            self._check(ctx, "rtt." + op, ctx.op("rtt." + op, submit), self.expected[op])

    # -- traced run only ------------------------------------------------------

    def extras(self, ctx, untraced):
        layers = ctx.layers
        verb_of = {"rtt." + op: verb for op, verb, _ in self.requests}
        rtts = {verb: [] for verb in VERBS}
        for op, walls in untraced.samples.items():
            if op in verb_of:
                rtts[verb_of[op]].extend(walls)
        every = [wall for walls in rtts.values() for wall in walls]
        layers["cli_cold_p50_ms"] = median_ms(untraced.samples["cli.emit"])
        layers["rtt_p50_ms"] = median_ms(every)
        layers["service.rtt_p99_ms"] = p99_ms(every)

        handled = {verb: [] for verb in VERBS}
        for _ in range(3):
            for _, verb, request in self.requests:
                handled[verb].append(ctx.clock(api.handle, request)[1])
        for verb in VERBS:
            layers["service.rtt_p50_ms." + verb] = median_ms(rtts[verb])
            layers["api.handle_p50_ms." + verb] = median_ms(handled[verb])
            layers["service.overhead_p50_ms." + verb] = median_ms(rtts[verb]) - median_ms(
                handled[verb]
            )

        pings = [ctx.clock(self.client.ping)[1] for _ in range(50)]
        layers["service.ping_p50_us"] = statistics.median(pings) * 1e6

        stats = self.client.server_stats()
        layers["service.rejected"] = stats["counts"]["rejected"]
        if stats["counts"]["rejected"]:
            ctx.fail("daemon", "%d requests rejected" % stats["counts"]["rejected"])
        for layer, counts in stats["cache"].items():
            lookups = counts["hits"] + counts["misses"]
            layers["cache.hit_ratio." + layer] = counts["hits"] / lookups if lookups else 0.0
        layers["service.server_p50_ms"] = _histogram_p50(self.client.telemetry()) * 1e3

        def cold(*args):
            return statistics.median(ctx.clock(_python, *args)[1] for _ in range(5))

        interp = cold("-c", "pass")
        imported = cold("-c", "import repro.cli")
        layers["cli.interp_start_ms"] = interp * 1e3
        layers["cli.import_ms"] = (imported - interp) * 1e3
        layers["cli.verb_p50_ms.emit"] = layers["cli_cold_p50_ms"]
        layers["cli.verb_p50_ms.lint"] = 1e3 * cold("-m", "repro", "lint", "--bench", CLI_KERNEL)


def _histogram_p50(text):
    """Median request latency (s) from the daemon's cumulative 1-2-5 buckets:
    the upper bound of the bucket that holds the middle observation."""
    cumulative = {}
    for (name, labels), value in parse_prometheus(text).items():
        if name.endswith("request_latency_seconds_bucket"):
            bound = float(dict(labels)["le"].replace("+Inf", "inf"))
            cumulative[bound] = cumulative.get(bound, 0.0) + value
    total = max(cumulative.values(), default=0.0)
    for bound in sorted(cumulative):
        if cumulative[bound] >= total / 2 and total:
            return bound
    return 0.0
