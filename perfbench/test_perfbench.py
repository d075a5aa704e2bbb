"""The benchmark's own tests: ``python3 -m pytest perfbench -q``.

Smoke-size runs (tiny rule bases, one-second phases) check that every
metric named in ``BENCHMARK.json`` comes out with its unit, that each
correctness gate passes on the code as it is and trips on a perturbed
reference, that the seed changes the inputs but not the metric names,
and that the compare mode's verdicts follow its rules.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

import compare
import driver
import run
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

NAMES = [w["name"] for w in SPEC["workloads"]]


def smoke(name: str, seed: int, trace: bool, tmp_path) -> dict:
    return driver.run_benchmark(name, seed, 1.0, trace, str(tmp_path),
                                smoke=True)


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_emits_every_metric_with_its_unit(name, trace, tmp_path):
    result = smoke(name, 1, trace, tmp_path)
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def fed_setup(name: str, tmp_path):
    """A smoke workload with every input handed to one set-up node."""
    workload, sizes = driver.make_workload(name, 3, 1.0, str(tmp_path),
                                           smoke=True)
    setup, _times = driver.timed_setups(workload, str(tmp_path), 1)
    feed = driver.Feed(workload, setup, workload.first_input)
    feed.closed_loop(sum(sizes.values()))
    feed.flush()
    return workload, setup, feed.next


def perturb_ticker(expected, observed):
    rule = next(iter(expected["alerts"]))
    expected["alerts"][rule] += 1


def perturb_cep(expected, observed):
    assert expected["prefix"], "the oracle prefix must contain firings"
    expected["prefix"].pop()


def perturb_orders_ledger(expected, observed):
    uri = "http://shop.example/ledger-0"
    sold = expected["documents"][uri].first("sold").value
    expected["documents"][uri] = workloads.u(
        "ledger", workloads.d("sold", sold + 1))


def perturb_orders_recovery(expected, observed):
    uri = "http://shop.example/book-0"
    observed["recovered"][uri] = observed["recovered"][uri].append(
        workloads.d("stray", 1))


@pytest.mark.parametrize("name, perturb", [
    ("ticker", perturb_ticker),
    ("cep", perturb_cep),
    ("orders", perturb_orders_ledger),
    ("orders", perturb_orders_recovery),
])
def test_gate_passes_and_trips_on_a_perturbed_reference(name, perturb,
                                                        tmp_path):
    workload, setup, n = fed_setup(name, tmp_path)
    expected = workload.reference(n)
    observed = workload.observe(setup, n)
    assert workload.compare(expected, observed) == []
    perturb(expected, observed)
    assert workload.compare(expected, observed) != []


def test_failed_gate_prints_no_metrics_and_exits_1(monkeypatch, capsys,
                                                   tmp_path):
    original = workloads.Ticker.reference

    def corrupted(self, n):
        expected = original(self, n)
        expected["firings"] += 1
        return expected

    monkeypatch.setattr(workloads.Ticker, "reference", corrupted)
    status = run.main(["--workload", "ticker", "--seed", "1", "--seconds",
                       "1", "--smoke", "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert status == 1
    assert "correctness gate failed" in captured.err
    assert '"metrics"' not in captured.out
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("name", NAMES)
def test_seed_changes_inputs_not_metric_names(name, tmp_path):
    first, _ = driver.make_workload(name, 1, 1.0, str(tmp_path / "a"),
                                    smoke=True)
    second, _ = driver.make_workload(name, 2, 1.0, str(tmp_path / "b"),
                                     smoke=True)
    again, _ = driver.make_workload(name, 1, 1.0, str(tmp_path / "c"),
                                    smoke=True)
    assert first.inputs != second.inputs
    assert first.inputs == again.inputs
    names = [set(smoke(name, seed, False, tmp_path / f"s{seed}")["metrics"])
             for seed in (1, 2)]
    assert names[0] == names[1]


def test_cep_mix_drifts_half_way_through_each_phase(tmp_path):
    workload, sizes = driver.make_workload("cep", 1, 1.0, str(tmp_path),
                                           smoke=True)
    start = sizes["warmup"]
    half = sizes["saturating"] // 2
    uniform = [spec[0] for _at, spec in workload.inputs[start:start + half]]
    skewed = [spec[0] for _at, spec in
              workload.inputs[start + half:start + 2 * half]]
    assert uniform.count("view") < skewed.count("view")
    assert uniform.count("purchase") > skewed.count("purchase")


def test_run_outside_a_full_checkout_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "cep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


class TestSpeedFactors:
    def probe_log(self, times):
        """A probe whose log holds one probe per second with *times*."""
        probe = driver.SpeedProbe()
        for second, took in enumerate(times):
            probe.log(float(second), took)
        return probe

    def test_factor_takes_the_probes_inside_and_around_a_stretch(self):
        ref = driver.SpeedProbe.REFERENCE_S
        around = driver.PROBES_AROUND
        far, near = 4 * ref, 2 * ref
        times = [far] * 5 + [near] * around + [near] * 3 + [near] * around
        probe = self.probe_log(times + [far] * 5)
        # The stretch covers the three probes after the first 5 + around.
        assert probe.factor(5 + around - 0.5, 3.0, 1.0) == pytest.approx(2.0)
        assert probe.factor(5 + around - 0.5, 3.0) == pytest.approx(
            2.0 ** driver.SpeedProbe.EXPONENT)

    def test_latencies_are_divided_by_their_batch_factor(self):
        samples = [1.0, 2.0, 3.0, 4.0, 5.0]
        assert driver.scaled_latencies(samples, [(0, 2.0), (2, 0.5)]) == [
            0.5, 1.0, 6.0, 8.0, 10.0]

    def test_sampler_probes_inside_timed_code_and_counts_its_time(self):
        probe = driver.SpeedProbe()
        with driver.Sampler(probe) as sampler:
            end = time.perf_counter() + 10 * driver.SAMPLE_INTERVAL
            while time.perf_counter() < end:
                pass
        assert len(probe.times) >= 5
        assert sampler.spent >= sum(probe.times)
        assert signal.getsignal(signal.SIGALRM) is not sampler._sample

    def test_disabled_sampler_takes_no_probes(self):
        probe = driver.SpeedProbe()
        with driver.Sampler(probe, enabled=False) as sampler:
            time.sleep(3 * driver.SAMPLE_INTERVAL)
        assert len(probe.times) == 0 and sampler.spent == 0.0


class TestVerdicts:
    def test_wide_spread_is_unresolved_not_unchanged(self):
        base = [100.0, 60.0, 140.0, 100.0]
        change = [101.0, 59.0, 139.0, 99.0]
        assert compare.verdict(base, change, 0.1, "higher")[0] == "unresolved"

    def test_too_few_runs_is_unresolved(self):
        assert compare.verdict([1.0, 1.1], [1.05, 1.0], 0.1,
                               "lower")[0] == "unresolved"

    def test_separated_runs_decide(self):
        base = [10.0, 10.1, 10.2]
        assert compare.verdict(base, [12.0, 12.1, 12.2], 0.1,
                               "higher")[0] == "better"
        assert compare.verdict(base, [12.0, 12.1, 12.2], 0.1,
                               "lower")[0] == "worse"

    def test_overlapping_within_bound_is_unchanged(self):
        base = [10.0, 10.2, 10.4, 10.1]
        change = [10.3, 10.0, 10.2, 10.1]
        assert compare.verdict(base, change, 0.1, "lower")[0] == "unchanged"

    def test_worse_beyond_bound(self):
        base = [10.0, 10.1, 10.2, 10.1, 11.5]
        change = [11.6, 11.8, 11.7, 9.9, 11.9]
        assert compare.verdict(base, change, 0.1, "lower")[0] == "worse"
