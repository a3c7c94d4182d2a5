"""Tracer bookkeeping, patching and restoring, and the per-layer comparison."""

import json

import pytest

from perfbench import compare, run
from perfbench.trace import LAYER_METRICS, Tracer

run.import_program()

import hedgelab.cli  # noqa: E402
from hedgelab import (fcn_agents, hedge_core, instruments,  # noqa: E402
                      lob, neuralnet, risk, stoch_models)


def test_parents_from_nesting_and_self_time():
    t = Tracer()
    # root [0, 10] -> child [1, 4] -> grandchild [2, 3]; child [5, 9];
    # then a second root [11, 12]
    for name, start, end in [(0, 0.0, 10.0), (1, 1.0, 4.0), (2, 2.0, 3.0),
                             (1, 5.0, 9.0), (0, 11.0, 12.0)]:
        t.name.append(name)
        t.start.append(start)
        t.end.append(end)
    parents = t.parents()
    assert parents == [-1, 0, 1, 0, -1]
    dur, own = t.self_times(parents)
    assert dur == [10.0, 3.0, 1.0, 4.0, 1.0]
    assert own == [3.0, 2.0, 1.0, 4.0, 1.0]


def test_install_records_spans_and_restore_puts_originals_back():
    originals = (hedgelab.cli.gbm_paths, neuralnet.pl_core, risk.utility,
                 lob.Book.__dict__["submit"])
    spec = instruments.OptionSpec()
    measure = risk.RiskMeasure("cvar", alpha=0.9)
    t = Tracer()
    t.install()
    try:
        with pytest.raises(RuntimeError):
            t.install()
        assert hedgelab.cli.gbm_paths is stoch_models.gbm_paths
        assert hedgelab.cli.gbm_paths is not originals[0]
        paths, _ = stoch_models.gbm_paths(stoch_models.GbmParams(), 50, 1,
                                          return_regen_count=True)
        feats = hedge_core.features_matrix(paths, spec)
        policy = neuralnet.MlpPolicy(4, seed=0)
        deltas = policy.forward_np(feats.reshape(-1, 4)).reshape(50, -1)
        pl, _, _ = hedge_core.pl_core(
            paths, deltas, instruments.payoff_batch(spec, paths), 0.0)
        risk.indifference_price(pl, measure)
        book = lob.Book()
        book.submit(True, 1.0, 5)
        book.submit(False, 0.9, 5)
    finally:
        t.restore()
    assert (hedgelab.cli.gbm_paths, neuralnet.pl_core, risk.utility,
            lob.Book.__dict__["submit"]) == originals

    m = t.layer_metrics(wall=1.0)
    assert set(m) <= set(LAYER_METRICS)
    assert m["stoch_models.paths"] == 50
    assert m["neuralnet.forward_np_rows"] == 50 * 20
    assert m["lob.submits"] == 2
    assert m["neuralnet.report_pass_s"] == 0.0
    names = [t.names[i] for i in t.name]
    # utility is called inside indifference_price, so it is a child span
    inner = names.index("risk.utility")
    assert names[t.parents()[inner]] == "risk.indifference_price"
    assert 0.0 < m["risk.indifference_price_s"]
    assert 0.0 < m["trace.coverage"] < 1.0


def test_forward_passes_inside_train_count_as_report_pass():
    spec = instruments.OptionSpec()
    paths = stoch_models.gbm_paths(stoch_models.GbmParams(), 40, 2)
    t = Tracer()
    t.install()
    try:
        neuralnet.train(neuralnet.MlpPolicy(4, seed=1), paths, spec,
                        risk.RiskMeasure("erm"), lr=1e-3, epochs=2,
                        minibatch=16, seed=3)
    finally:
        t.restore()
    m = t.layer_metrics(wall=1.0)
    assert m["neuralnet.minibatches"] == 2 * 2  # 32 training paths / 16
    assert m["autodiff.backward_calls"] == 4
    assert m["neuralnet.report_pass_s"] == m["neuralnet.forward_np_s"] > 0.0
    assert m["neuralnet.rollbacks"] == 0


def test_session_counts():
    config = fcn_agents.MarketConfig(n_agents=10, agents_per_step=2,
                                     preopen_steps=10, steps_per_day=5,
                                     days=2, seed=4)
    t = Tracer()
    t.install()
    try:
        res = fcn_agents.run_session(config, fcn_agents.AgentPopulation())
    finally:
        t.restore()
    m = t.layer_metrics(wall=1.0)
    assert m["fcn_agents.sessions"] == 1
    assert m["lob.trades"] == res.n_trades
    assert m["lob.submits"] > 0
    assert m["lob.trade_ratio"] == res.n_trades / m["lob.submits"]
    assert m["lob.expire_calls"] == 1 + 2 * 5  # at the open, then every step
    assert m["fcn_agents.accept_ratio"] == (1.0 if res.n_trades else 0.0)


def test_comparison_gives_ratio_and_base(tmp_path):
    base = {"correct": True, "attempted": 3, "failed": 0,
            "metrics": {"lob.submit_s": {"value": 2.0, "unit": "s"},
                        "lob.trades": {"value": 0, "unit": "count"}}}
    new = {"correct": True, "attempted": 3, "failed": 0,
           "metrics": {"lob.submit_s": {"value": 1.5, "unit": "s"},
                       "lob.trades": {"value": 4, "unit": "count"}}}
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    a.write_text("some log line\n" + json.dumps(base) + "\n")
    b.write_text(json.dumps(new) + "\n")
    rows = compare.comparison_rows(compare.load_result(a),
                                   compare.load_result(b))
    assert rows == [("lob.submit_s", "s", 2.0, 1.5, 0.75),
                    ("lob.trades", "count", 0, 4, None)]
    table = compare.format_table(rows)
    assert "0.750" in table and "lob.trades" in table
