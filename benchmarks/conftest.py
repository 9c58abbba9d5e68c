"""Shared fixtures for the figure-regeneration benchmarks.

Each benchmark collects its registry entry (``repro.bench.experiments.FIGURES``)
exactly once (the experiments are multi-second simulations; statistical
repetition is meaningless for a deterministic simulator), prints the
paper-style table, and asserts the figure's shape over the records.
"""

import pytest

from repro.bench import experiments


@pytest.fixture
def once(benchmark):
    """Run the benchmarked callable a single time, pedantically."""

    def runner(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)

    return runner


@pytest.fixture
def figure(once):
    """Collect one registry entry, print its table, return its data."""

    def collect(name):
        data = once(experiments.collect_figures, [name])[name]
        print(experiments.FIGURES[name].render(data))
        return data

    return collect


@pytest.fixture(scope="session")
def fig9_suites():
    """The Fig. 9 suites, run once per session: Figs. 9, 10, 11 and 13 are
    four slices of these executions."""
    return experiments.fig9_suites()


@pytest.fixture(scope="session")
def suite_records(fig9_suites):
    """The RunRecords of the Fig. 9 suites."""
    return experiments.suite_records(fig9_suites)
