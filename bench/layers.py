"""Which gicl functions the traced run wraps, and the per-layer metrics.

Every metric here is computed from one traced worker process: the
workload's input build plus one iteration. A layer a workload does not
exercise reports 0.
"""

from __future__ import annotations

import importlib

import numpy as np

from tracer import Recorder

MODULES = ("graphstore", "nncore", "encoder", "retrieval", "scoring",
           "training", "prompts", "pipeline", "cli")

FUNCTIONS = {
    "graphstore": ("synth_sbm", "load_bundle", "write_bundle", "sample_label_fraction",
                   "load_split_file", "bundle_hash"),
    "nncore": ("linear", "add", "relu", "scale", "mean_rows", "l2_normalize_rows", "dropout",
               "gather_rows", "rowwise_dot", "softmax_xent", "listwise_xent",
               "combine_scalars", "backward", "adam_step"),
    "encoder": ("init_params", "encode_on_tape", "encode_all"),
    "retrieval": ("build_index", "retrieve_topk"),
    "scoring": ("rank_candidates", "make_client"),
    "training": ("train", "collect_feedback_round", "feedback_loss", "clf_loss",
                 "combined_loss"),
    "prompts": ("render", "parse_answer", "majority_vote"),
    "pipeline": ("run_strategy", "evaluate_accuracy", "write_report"),
    "cli": ("cmd_synth", "cmd_prepare", "cmd_train", "cmd_infer", "cmd_baseline"),
}

OPS = ("linear", "mean_rows", "gather_rows", "rowwise_dot", "l2_normalize_rows",
       "listwise_xent", "softmax_xent")
STRATEGIES = ("askgnn", "few_knn", "mv_askgnn", "npl")
CLI_COMMANDS = ("synth", "prepare", "train", "infer", "baseline")

# name -> unit, in the order they are reported
UNITS = {
    "graphstore.synth_sbm_s": "s",
    "graphstore.write_bundle_s": "s",
    "graphstore.load_bundle_s": "s",
    "graphstore.load_bundle_calls": "count",
    "nncore.backward_ms_p50": "ms",
    "nncore.backward_ms_p99": "ms",
    "nncore.adam_step_ms_p50": "ms",
    "nncore.adam_step_ms_p99": "ms",
    "nncore.tape_nodes": "count",
    **{f"nncore.op.{op}.{kind}": unit for op in OPS
       for kind, unit in (("calls", "count"), ("fwd_ms", "ms"))},
    "nncore.row_aggregator_build_ms": "ms",
    "encoder.encode_on_tape_ms": "ms",
    "encoder.encode_all_ms": "ms",
    "retrieval.build_index_ms": "ms",
    "retrieval.retrieve_topk_us_p50": "us",
    "retrieval.retrieve_topk_us_p99": "us",
    "retrieval.queries": "count",
    "scoring.calls": "count",
    "scoring.attempts": "count",
    "scoring.useful_ratio": "ratio",
    "scoring.failed_share": "ratio",
    "scoring.call_latency_p50_ms": "ms",
    "scoring.call_latency_p99_ms": "ms",
    "scoring.rank_candidates_ms": "ms",
    "scoring.cache_hits": "count",
    "scoring.cache_misses": "count",
    "scoring.cache_hit_ratio": "ratio",
    "scoring.cache_appends": "count",
    "scoring.cache_put_s": "s",
    "scoring.cache_load_ms": "ms",
    "scoring.complete_ms": "ms",
    "training.epoch_ms": "ms",
    "training.loss_forward_ms": "ms",
    "training.collect_feedback_round_cold_s": "s",
    "training.collect_feedback_round_warm_s": "s",
    "training.feedback_coverage": "ratio",
    "prompts.render_calls": "count",
    "prompts.render_us": "us",
    "prompts.parse_answer_calls": "count",
    **{f"pipeline.run_strategy_s.{s}": "s" for s in STRATEGIES},
    "pipeline.write_report_ms": "ms",
    **{f"cli.{c}_s": "s" for c in CLI_COMMANDS},
    **{f"{m}.self_s": "s" for m in MODULES},
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


def _keep_training_flag(rec, args, kwargs, result, ok):
    return bool(kwargs.get("training", False))


def _keep_tape_size(rec, args, kwargs, result, ok):
    return len(args[0].nodes)


def _keep_feedback(rec, args, kwargs, result, ok):
    return None if not ok else result.coverage


def _keep_strategy(rec, args, kwargs, result, ok):
    return args[0] if args else kwargs.get("strategy")


def _keep_instance(rec, args, kwargs, result, ok):
    return args[0]


def _keep_cache(rec, args, kwargs, result, ok):
    return (args[0], len(args[0])) if ok else None


def _client_call(rec, args, kwargs, result, ok):
    rec.count("scoring.calls")
    if ok:
        rec.count("scoring.succeeded")


def _cache_get(rec, args, kwargs, result, ok):
    rec.count("scoring.cache_hits" if result is not None else "scoring.cache_misses")


def install(recorder: Recorder) -> None:
    """Wrap every traced gicl function at each name it is bound to."""
    modules = [importlib.import_module("gicl")]
    modules += [importlib.import_module(f"gicl.{m}") for m in MODULES]
    probes = {
        ("encoder", "encode_on_tape"): _keep_training_flag,
        ("nncore", "backward"): _keep_tape_size,
        ("training", "collect_feedback_round"): _keep_feedback,
        ("pipeline", "run_strategy"): _keep_strategy,
    }
    for module_name, names in FUNCTIONS.items():
        module = importlib.import_module(f"gicl.{module_name}")
        for name in names:
            recorder.wrap_function(modules, module, name, f"{module_name}.{name}",
                                   probes.get((module_name, name)))
    nncore = importlib.import_module("gicl.nncore")
    scoring = importlib.import_module("gicl.scoring")
    recorder.wrap_method(nncore.RowAggregator, "__init__", "nncore.RowAggregator")
    for cls in (scoring.OracleClient, scoring.HttpClient):
        for method in ("token_logprobs", "complete"):
            recorder.wrap_method(cls, method, f"scoring.client.{method}", _client_call)
    recorder.wrap_method(scoring.HttpClient, "__init__", "scoring.HttpClient.init",
                         _keep_instance)
    recorder.wrap_method(scoring.FeedbackCache, "__init__", "scoring.cache.load", _keep_cache)
    recorder.wrap_method(scoring.FeedbackCache, "get", "scoring.cache.get", _cache_get)
    recorder.wrap_method(scoring.FeedbackCache, "put", "scoring.cache.put")


def _pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def _epoch_windows(spans, train_encodes: set[int]) -> list[tuple[float, float]]:
    """[start of a training-mode encode, end of the next Adam step] per epoch."""
    windows = []
    start = None
    for index in sorted(range(len(spans)), key=lambda i: spans[i].start):
        span = spans[index]
        if index in train_encodes:
            start = span.start
        elif span.name == "nncore.adam_step" and start is not None:
            windows.append((start, span.end))
            start = None
    return windows


def per_layer_metrics(rec: Recorder) -> dict:
    """Every per-layer metric; trace.wall_s and trace.overhead_s are left 0
    for the caller, which also ran the untraced iteration."""
    by_name = rec.durations()

    def dur(name: str) -> list[float]:
        return by_name.get(name, [])

    def total(name: str) -> float:
        return float(sum(dur(name)))

    counts = rec.counts
    values = rec.values

    train_idx = {i for i, training in values.get("encoder.encode_on_tape", []) if training}
    windows = _epoch_windows(rec.spans, train_idx)
    loss_names = ("training.feedback_loss", "training.clf_loss", "training.combined_loss")
    loss_spans = sorted((s.start, s.end - s.start) for s in rec.spans if s.name in loss_names)
    loss_per_epoch = [
        sum(d for t, d in loss_spans if lo <= t <= hi) for lo, hi in windows
    ]
    train_encodes = [rec.spans[i].end - rec.spans[i].start for i in train_idx]
    rounds = dur("training.collect_feedback_round")
    coverages = [v for _, v in values.get("training.collect_feedback_round", [])]

    strategy_s = {s: 0.0 for s in STRATEGIES}
    for index, strategy in values.get("pipeline.run_strategy", []):
        span = rec.spans[index]
        if strategy in strategy_s:
            strategy_s[strategy] += span.end - span.start

    http_clients = [c for _, c in values.get("scoring.HttpClient.init", [])]
    caches = [c for _, c in values.get("scoring.cache.load", [])]
    calls = counts.get("scoring.calls", 0)
    succeeded = counts.get("scoring.succeeded", 0)
    http_calls = sum(c.calls for c in http_clients)
    attempts = (calls - http_calls) + sum(c.attempts for c in http_clients)
    hits = counts.get("scoring.cache_hits", 0)
    misses = counts.get("scoring.cache_misses", 0)
    client_calls = dur("scoring.client.token_logprobs") + dur("scoring.client.complete")

    m = {
        "graphstore.synth_sbm_s": total("graphstore.synth_sbm"),
        "graphstore.write_bundle_s": total("graphstore.write_bundle"),
        "graphstore.load_bundle_s": total("graphstore.load_bundle"),
        "graphstore.load_bundle_calls": len(dur("graphstore.load_bundle")),
        "nncore.backward_ms_p50": 1e3 * _pct(dur("nncore.backward"), 50),
        "nncore.backward_ms_p99": 1e3 * _pct(dur("nncore.backward"), 99),
        "nncore.adam_step_ms_p50": 1e3 * _pct(dur("nncore.adam_step"), 50),
        "nncore.adam_step_ms_p99": 1e3 * _pct(dur("nncore.adam_step"), 99),
        "nncore.tape_nodes": _pct([v for _, v in values.get("nncore.backward", [])], 50),
        "nncore.row_aggregator_build_ms": 1e3 * total("nncore.RowAggregator"),
        "encoder.encode_on_tape_ms": 1e3 * _pct(train_encodes, 50),
        "encoder.encode_all_ms": 1e3 * total("encoder.encode_all"),
        "retrieval.build_index_ms": 1e3 * total("retrieval.build_index"),
        "retrieval.retrieve_topk_us_p50": 1e6 * _pct(dur("retrieval.retrieve_topk"), 50),
        "retrieval.retrieve_topk_us_p99": 1e6 * _pct(dur("retrieval.retrieve_topk"), 99),
        "retrieval.queries": len(dur("retrieval.retrieve_topk")),
        "scoring.calls": calls,
        "scoring.attempts": attempts,
        "scoring.useful_ratio": succeeded / attempts if attempts else 0.0,
        "scoring.failed_share": (calls - succeeded) / calls if calls else 0.0,
        "scoring.call_latency_p50_ms": 1e3 * _pct(client_calls, 50),
        "scoring.call_latency_p99_ms": 1e3 * _pct(client_calls, 99),
        "scoring.rank_candidates_ms": 1e3 * _pct(dur("scoring.rank_candidates"), 50),
        "scoring.cache_hits": hits,
        "scoring.cache_misses": misses,
        "scoring.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "scoring.cache_appends": sum(len(c) - loaded for c, loaded in caches
                                     if c.path is not None),
        "scoring.cache_put_s": total("scoring.cache.put"),
        "scoring.cache_load_ms": 1e3 * total("scoring.cache.load"),
        "scoring.complete_ms": 1e3 * _pct(dur("scoring.client.complete"), 50),
        "training.epoch_ms": 1e3 * _pct([hi - lo for lo, hi in windows], 50),
        "training.loss_forward_ms": 1e3 * _pct(loss_per_epoch, 50),
        "training.collect_feedback_round_cold_s": rounds[0] if rounds else 0.0,
        "training.collect_feedback_round_warm_s": _pct(rounds[1:], 50),
        "training.feedback_coverage": coverages[0] if coverages else 0.0,
        "prompts.render_calls": len(dur("prompts.render")),
        "prompts.render_us": 1e6 * _pct(dur("prompts.render"), 50),
        "prompts.parse_answer_calls": len(dur("prompts.parse_answer")),
        "pipeline.write_report_ms": 1e3 * total("pipeline.write_report"),
        "trace.wall_s": 0.0,
        "trace.overhead_s": 0.0,
        "trace.spans": len(rec.spans),
    }
    for op in OPS:
        m[f"nncore.op.{op}.calls"] = len(dur(f"nncore.{op}"))
        m[f"nncore.op.{op}.fwd_ms"] = 1e3 * total(f"nncore.{op}")
    for strategy, seconds in strategy_s.items():
        m[f"pipeline.run_strategy_s.{strategy}"] = seconds
    for command in CLI_COMMANDS:
        m[f"cli.{command}_s"] = total(f"cli.cmd_{command}")
    for module in MODULES:
        m[f"{module}.self_s"] = rec.self_time(f"{module}.")
    return {name: {"value": float(m[name]), "unit": unit} for name, unit in UNITS.items()}
