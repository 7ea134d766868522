"""Tests of the benchmark's own helpers.

    python3 -m pytest -q bench/
"""

import json
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from checks import check_clt, check_simulate, check_verify  # noqa: E402
from spiderlab import moment_catalog, parse_index  # noqa: E402
from tracing import Tracer, median_layer, per_job_layers, self_times  # noqa: E402


# -- percentile rule ----------------------------------------------------------

def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail_percentile(range(99), 0.9) is None
    assert run.tail_percentile(range(100), 0.9) == 89
    assert run.tail_percentile(range(1000), 0.99) == 989
    assert run.tail_percentile(range(999), 0.99) is None


def test_tail_percentile_ignores_input_order():
    values = list(range(200))[::-1]
    assert run.tail_percentile(values, 0.9) == 179


# -- reference-relative job times ---------------------------------------------

def test_relative_times_divide_by_the_median_of_nearby_references():
    jobs = [10.0, 20.0, 30.0, 40.0]
    refs = [1.0, 2.0, 100.0, 4.0, 5.0]
    # windows: [1, 2, 100] -> 2, [1, 2, 100, 4] -> 3, [2, 100, 4, 5] -> 4.5, [100, 4, 5] -> 5
    assert run.relative_times(jobs, refs) == pytest.approx([5.0, 20.0 / 3, 30.0 / 4.5, 8.0])
    assert run.relative_times([6.0], [2.0, 4.0]) == pytest.approx([2.0])
    with pytest.raises(AssertionError):
        run.relative_times([2.0, 6.0], [1.0, 1.0])


# -- spans and self time ------------------------------------------------------

def _span(name, start, end, parent, job=0):
    return (name, start, end, parent, job)


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 3.0, 0),
        _span("b", 4.0, 8.0, 0),
        _span("c", 5.0, 6.0, 2),
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0])
    assert sum(self_times(spans)) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    spans = [_span("root", 0.0, 10.0, -1), _span("a", 2.0, 6.0, 0), _span("b", 4.0, 12.0, 0)]
    assert self_times(spans)[0] == pytest.approx(2.0)


def test_per_job_layers_and_median_treat_missing_layers_as_zero():
    spans = [
        _span("root", 0.0, 4.0, -1, job=0), _span("x", 1.0, 2.0, 0, job=0),
        _span("x", 2.0, 3.0, 0, job=0),
        _span("root", 5.0, 9.0, -1, job=1),
    ]
    table = per_job_layers(spans)
    assert table[0]["x"] == pytest.approx((2, 2.0))
    assert table[0]["root"] == pytest.approx((1, 2.0))
    assert median_layer(table, "x") == pytest.approx((1, 1.0))
    assert median_layer(table, "root") == pytest.approx((1, 3.0))


def test_tracer_nests_spans_and_restores_names():
    caller = types.ModuleType("pkg.caller")
    caller.inner = original = lambda x: x + 1
    tracer = Tracer()
    outer = tracer.wrap("outer", lambda: caller.inner(1))
    tracer.job = 7
    with tracer.patched([(caller, "inner", "layer.inner")]):
        assert outer() == 2
    assert caller.inner is original
    outer_span, inner_span = tracer.spans
    assert inner_span[0] == "layer.inner" and inner_span[3] == 0 and inner_span[4] == 7
    assert outer_span[0] == "outer" and outer_span[3] == -1
    assert tracer.site_calls == {"caller:layer.inner": 1, ":outer": 1}


# -- output checks ------------------------------------------------------------

def _simulate_text(shift_se=0.0, count=run.MC_R, spot=20, drop=None):
    stats = {}
    for key in run.MC_INDICES:
        entry = moment_catalog(parse_index(key))
        var = float(entry.variance(run.MC_N, run.MC_P))
        mean = float(entry.mean(run.MC_N, run.MC_P)) + shift_se * (var / run.MC_R) ** 0.5
        stats[key] = {"count": count, "mean": mean, "variance": var}
    if drop:
        del stats[drop]
    return json.dumps({"stats": stats, "spot_checks": spot})


def _check_sim(text, code=0):
    return check_simulate(code, text, run.MC_N, run.MC_P, run.MC_INDICES, run.MC_R)


def test_check_simulate_accepts_a_summary_at_the_catalog_mean():
    assert _check_sim(_simulate_text(shift_se=4.0)) == []


@pytest.mark.parametrize("text, code", [
    (_simulate_text(shift_se=6.0), 0),
    (_simulate_text(count=run.MC_R - 1), 0),
    (_simulate_text(spot=19), 0),
    (_simulate_text(drop="gini"), 0),
    (_simulate_text(), 1),
])
def test_check_simulate_rejects_wrong_summaries(text, code):
    assert _check_sim(text, code)


def _clt_text(shift_se=0.0, index=run.CLT_INDEX):
    entry = moment_catalog(parse_index(run.CLT_INDEX))
    n, p = run.CLT_N, run.CLT_P
    se = (float(entry.variance(n, p)) / run.CLT_R) ** 0.5
    mean = float(entry.mean(n, p)) + shift_se * se
    z = (mean - float(entry.clt.center(n, p))) / entry.clt.scale_value(n, p)
    row = {"index": index, "n": str(n), "p": repr(p), "mean": repr(z), "var": "1.0",
           "ks": "0.01", "exceedance": "", "r_mean_error": "", "limit": ""}
    return json.dumps({"rows": [row]})


def _check_clt(text, code=0):
    return check_clt(code, text, run.CLT_INDEX, run.CLT_N, run.CLT_P, run.CLT_R)


def test_check_clt_accepts_a_row_at_the_catalog_mean():
    assert _check_clt(_clt_text(shift_se=-4.0)) == []


@pytest.mark.parametrize("text, code", [
    (_clt_text(shift_se=6.0), 0),
    (_clt_text(shift_se=-6.0), 0),
    (_clt_text(index="leaves"), 0),
    (_clt_text(), 2),
])
def test_check_clt_rejects_wrong_rows(text, code):
    assert _check_clt(text, code)


def test_check_verify():
    passed = "verification level=full\n  random_trees: 10000\nall suites passed\n"
    assert check_verify(0, passed) == []
    assert check_verify(3, passed)
    assert check_verify(0, "verification level=full\nFAILURES (1):\n  [x] y\n")


# -- import breakdown ---------------------------------------------------------

IMPORTTIME = """\
import time: self [us] | cumulative | imported package
import time:        10 |         10 |   _abc
import time:       100 |        100 |       numpy._core
import time:        50 |        150 |     numpy
import time:        20 |        170 |   spiderlab.tree
import time:         5 |          5 |         inspect
import time:         7 |          7 |         numpy.random
import time:        30 |         42 |       scipy
import time:       200 |        242 |     scipy.special
import time:         8 |        250 |   spiderlab.montecarlo
import time:         1 |        431 | spiderlab
"""


def test_import_breakdown_attributes_modules_to_their_outermost_package():
    got = run.import_breakdown(IMPORTTIME)
    assert got == pytest.approx({"numpy": 150e-6, "scipy": 242e-6, "spiderlab": 431e-6})


# -- contract -----------------------------------------------------------------

@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, key, capsys):
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert run.main(["--workload", "mc-small-n", "--seed", "3", "--seconds", "1",
                     "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec[key]}
