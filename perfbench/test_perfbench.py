"""Tests of the benchmark itself: python3 -m pytest perfbench -q

A corrupted output must be counted as a failed operation, never as a fast
run; the tracer must wrap every binding of a traced function.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import heavylight.cli  # noqa: E402,F401
from heavylight import bisymseries, cli, partitions, pipeline, symseries, uvpoly, verify  # noqa: E402

import offdiag  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def scratch():
    """A directory inside the checkout, removed afterwards."""
    path = BENCH / ".work" / "test"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def failed(checks):
    return [name for name, ok in checks if not ok]


def test_closed10_truncated_table_is_a_failure(monkeypatch):
    compute = cli.closed_series
    monkeypatch.setattr(cli, "closed_series", lambda s, g, trunc: compute(s, g, trunc=min(trunc, 5)))
    checks = workloads.closed10()
    assert failed(checks) == ["stdout sha256"]
    assert len(checks) > 1  # the golden rows of arity <= 5 were still compared


def test_verify_all_counts_each_failed_check(monkeypatch):
    monkeypatch.setattr(cli, "run_suite", lambda name: [("a", True, ""), ("b", False, "broken")])
    checks = workloads.verify_all()
    assert len(checks) == workloads.VERIFY_CHECKS
    assert failed(checks) == ["b  [broken]"] + ["missing check"] * (workloads.VERIFY_CHECKS - 2)


def test_regen_counts_changed_missing_and_extra_files(scratch):
    digests = workloads.expected()["regen_sha256"]
    for rel in digests:
        (scratch / rel).parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(ROOT / rel, scratch / rel)
    assert failed(workloads.check_regen(scratch)) == []
    changed, missing = list(digests)[:2]
    (scratch / changed).write_text((scratch / changed).read_text().replace("1", "2", 1))
    (scratch / missing).unlink()
    (scratch / "stray.hlf").write_text("")
    assert failed(workloads.check_regen(scratch)) == [changed, missing, "unexpected stray.hlf"]


def test_offdiag_inputs_follow_the_seed():
    a, b, c = offdiag.make_inputs(1), offdiag.make_inputs(1), offdiag.make_inputs(2)
    assert all(a[k] == b[k] for k in a)
    assert any(a[k] != c[k] for k in a)
    coeffs = [
        poly for key, series in a.items() for lam, poly in series.coeffs.items()
        if (key, lam) != ("pleth_base", (1,))
    ]
    assert all(c.denominator != 1 for poly in coeffs for c in poly.terms.values())
    assert all(u != v for poly in coeffs for (u, v) in poly.terms)


def test_offdiag_wrong_log_is_a_failure(monkeypatch):
    monkeypatch.setattr(symseries.SymSeries, "log_series", lambda self: self * 2)
    checks = offdiag.run(offdiag.make_inputs(1))
    assert failed(checks) == ["exp_series/log_series"]


def test_run_reports_corrupted_fixture_as_incorrect(scratch):
    for part in ("src", "tools", "perfbench"):
        shutil.copytree(ROOT / part, scratch / part, ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copyfile(ROOT / "BENCHMARK.json", scratch / "BENCHMARK.json")
    fixture = scratch / "src/heavylight/data/genus1_stable.hlf"
    lines = fixture.read_text().splitlines(keepends=True)
    term = next(i for i, line in enumerate(lines) if line.startswith("term n=6 "))
    lines[term] = lines[term].replace("poly=", "poly=1*u^9*v^9+", 1)
    fixture.write_text("".join(lines))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "closed10", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=scratch, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] >= 1 and result["attempted"] > result["failed"]


def test_run_refuses_a_directory_without_the_program(scratch):
    shutil.copytree(BENCH, scratch / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copyfile(ROOT / "BENCHMARK.json", scratch / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "closed10", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=scratch, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.fixture
def tracer():
    t = tracing.Tracer()
    t.install()
    yield t
    t.uninstall()


def test_tracer_wraps_every_binding():
    coproduct = bisymseries.coproduct
    stirling2 = verify.stirling2
    closed = cli.closed_series
    mn = partitions.mn_character
    mul = uvpoly.UVPoly.__dict__["__mul__"]
    t = tracing.Tracer()
    t.install()
    try:
        assert pipeline.coproduct is not coproduct and pipeline.coproduct.__wrapped__ is coproduct
        assert verify.stirling2.__wrapped__ is stirling2
        assert cli.closed_series.__wrapped__ is closed
        assert heavylight.closed_series is cli.closed_series
        rmul = uvpoly.UVPoly.__dict__["__rmul__"]
        assert rmul is uvpoly.UVPoly.__dict__["__mul__"] and rmul.__wrapped__ is mul
        assert partitions.mn_character is mn and symseries.mn_character is mn
    finally:
        t.uninstall()
    assert pipeline.coproduct is coproduct and verify.stirling2 is stirling2
    assert uvpoly.UVPoly.__dict__["__rmul__"] is mul


def test_spans_nest_and_self_time_excludes_children(tracer, scratch):
    fixtures = heavylight.fixtures
    res = pipeline.closed_series(fixtures.load_fixture("genus1_stable"), fixtures.load_fixture("genus0_smooth"), trunc=4)
    assert tracer._stack == [-1]
    totals = tracer.layer_totals()
    assert totals["pipeline.closed_series"]["calls"] == 1
    assert totals["fixtures.load_fixture"]["calls"] == 2
    for entry in totals.values():
        assert 0 <= entry["self_s"] <= entry["s"] + 1e-9
    names = {s[0] for s in tracer.spans}
    assert {"bisymseries.pleth2", "bisymseries.mul", "uvpoly.mul", "uvpoly.add"} <= names
    for name, parent, start, end in tracer.spans:
        assert start <= end
        if parent >= 0:
            assert tracer.spans[parent][2] <= start and end <= tracer.spans[parent][3]
    metrics = tracer.metrics()
    assert set(metrics) | {"verify.checks_failed", "proc.cpu_s", "proc.trace_overhead_s", "proc.src_lines"} == set(tracing.METRICS)
    assert metrics["pipeline.closed_series.out_keys"] == len(res.data.coeffs)
    tracer.write_spans(scratch / "spans.tsv")
    assert len((scratch / "spans.tsv").read_text().splitlines()) == len(tracer.spans) + 1


def test_pairs_kept_ratio_matches_enumeration(tracer):
    inputs = offdiag.make_inputs(3)
    a, b = inputs["outer"], inputs["inner"]
    a * b
    kept = sum(1 for x in a.coeffs for y in b.coeffs if sum(x) + sum(y) <= min(a.trunc, b.trunc))
    assert tracer.counts["symseries.mul.pairs_kept"] == kept
    assert tracer.counts["symseries.mul.pairs_total"] == len(a.coeffs) * len(b.coeffs)


def test_term_products_count_both_operand_sizes(tracer):
    p = uvpoly.UVPoly({(0, 1): 1, (1, 0): 2, (2, 2): 3})
    q = uvpoly.UVPoly({(0, 0): 1, (1, 1): 1})
    p * q
    3 * p
    assert tracer.counts["uvpoly.mul.term_products"] == 3 * 2 + 3


def test_benchmark_json_lists_every_workload():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in config["workloads"]] == list(workloads.WORKLOADS)


def test_speed_probe_samples_while_busy_and_restores_the_handler():
    import signal

    import speed

    before = signal.getsignal(signal.SIGPROF)
    with speed.SpeedProbe() as probe:
        total = 0
        while len(probe.samples) < 3:
            total += sum(range(10_000))
    assert signal.getsignal(signal.SIGPROF) is before
    assert all(s > 0 for s in probe.samples)
    assert speed.at_reference_speed(2.0, 2 * speed.REFERENCE_PROBE_S) == 1.0


def test_speed_probe_keeps_the_collector_setting_and_trims_stray_samples():
    import gc

    import speed

    assert gc.isenabled()
    speed.time_probe()
    assert gc.isenabled()
    gc.disable()
    try:
        speed.time_probe()
        assert not gc.isenabled()
    finally:
        gc.enable()
    assert speed.mean_probe([1.0, 3.0]) == 2.0
    assert speed.mean_probe([1.0] * 19 + [50.0]) == 1.0  # the slowest twentieth is dropped
