"""Shared plumbing for the figure-regeneration benchmarks.

Each benchmark runs one experiment from :mod:`repro.bench.experiments`
exactly once under pytest-benchmark timing and asserts the paper's shape
checks.  The rendered table and any ``BENCH_*.json`` the experiment
emits go to the test's temporary directory, so a test run leaves the
committed ``benchmarks/results/`` untouched; ``python -m repro.bench
<id>`` is the command that refreshes them.
"""

from __future__ import annotations

import pytest

from repro.bench import results, run_experiment


@pytest.fixture
def regenerate(benchmark, monkeypatch, tmp_path):
    """Run an experiment once under the benchmark timer; verify shape."""
    monkeypatch.setattr(results, "results_dir", lambda: tmp_path)

    def runner(exp_id: str):
        result = benchmark.pedantic(
            lambda: run_experiment(exp_id), rounds=1, iterations=1
        )
        result.write_report()
        failed = [desc for desc, ok in result.checks if not ok]
        assert result.ok, (
            f"{exp_id}: shape checks failed: {failed}\n{result.text}"
        )
        return result

    return runner
