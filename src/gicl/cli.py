"""Command line entry points.

    gicl synth     generate a synthetic block-model bundle
    gicl prepare   validate a bundle and print its stats
    gicl train     train the retriever against a scorer
    gicl feedback  run one feedback-collection round standalone
    gicl infer     run trained-retriever inference over the test split
    gicl baseline  run a non-learned strategy
    gicl eval      recompute a summary from a report CSV
    gicl sweep     sweep beta or k_icl and emit a CSV

Config files are JSON objects mirroring TrainConfig plus a "scorer"
sub-object mirroring ScorerSpec and an optional "template" key; a file
with any other key is refused. Command-line flags override file
values. The HTTP scorer reads its API key from the GICL_API_KEY
environment variable.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import closing
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__
from .encoder import EmbeddingTable, init_params
from .graphstore import (
    SplitSpec,
    TagGraph,
    atomic_write,
    bundle_hash,
    load_bundle,
    load_split_file,
    sample_label_fraction,
    synth_sbm,
    write_bundle,
)
from .nncore import ParamSet
from .pipeline import (
    PURIFY_MODES,
    STRATEGY_TABLE,
    SWEEP_AXES,
    RunManifest,
    evaluate_accuracy,
    read_report,
    run_strategy,
    sweep,
    write_report,
    write_sweep_csv,
)
from .prompts import DEFAULT_TEMPLATE, PromptTemplate, load_template
from .scoring import FeedbackCache, ScorerSpec
from .training import TrainConfig, TrainedModel, collect_feedback_round, train

# TrainConfig fields settable from the command line, in --help order
TRAIN_FLAGS = ("beta", "epochs", "rounds", "k_feedback", "k_icl", "lr", "hidden_dim", "n_layers",
               "tau")

# Parsed options a manifest leaves out: those that change no result, the inputs it
# records by digest or through the values they resolve to, and the subcommand's entries.
UNRECORDED = frozenset({"out", "force", "single_thread", "cache",
                        "bundle", "template", "scorer_kind", "endpoint", "model_name",
                        "config", "model", "command", "fn"})
# scorer flags and the ScorerSpec fields they set
SCORER_FLAGS = {"scorer_kind": "kind", "endpoint": "endpoint", "model_name": "model"}
# the keys a --config file may set, at its top level and in its "scorer" object
CONFIG_KEYS = frozenset([f.name for f in fields(TrainConfig)] + ["scorer", "template"])
SCORER_KEYS = frozenset(f.name for f in fields(ScorerSpec))


@dataclass(frozen=True)
class RunInputs:
    config: TrainConfig
    spec: ScorerSpec
    template: PromptTemplate
    graph: TagGraph
    split: SplitSpec
    model: TrainedModel | None
    manifest: RunManifest


def resolve_inputs(args: argparse.Namespace) -> RunInputs:
    """Every input of a train, feedback, sweep, infer or baseline run.

    Each value comes from the first source that sets it: its flag, the
    --model's training manifest, the --config file, the default.
    """
    file_cfg = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            file_cfg = json.load(fh)
        if not isinstance(file_cfg, dict) or not isinstance(file_cfg.get("scorer", {}), dict):
            raise ValueError(f"{args.config}: a config file and its \"scorer\" must be JSON objects")
        unknown = [k for k in file_cfg if k not in CONFIG_KEYS]
        unknown += [f"scorer.{k}" for k in file_cfg.get("scorer", {}) if k not in SCORER_KEYS]
        if unknown:
            raise ValueError(f"{args.config}: unknown config key(s) {', '.join(unknown)}")
    mdir = Path(args.model) if getattr(args, "model", None) else None
    if mdir and not (mdir / "manifest.json").is_file():
        raise ValueError(f"{mdir} has no manifest.json: it is not a model directory, "
                         "or the training run that wrote it did not finish")
    trained = RunManifest.load(mdir / "manifest.json") if mdir else None
    flags = {k: v for k, v in vars(args).items() if v is not None}
    settings = {**file_cfg, **(trained.config if trained else {}), **flags}
    config = TrainConfig(**{k: v for k, v in settings.items()
                            if k in TrainConfig.__dataclass_fields__})
    scorer = {**file_cfg.get("scorer", {}),
              **{field: flags[flag] for flag, field in SCORER_FLAGS.items() if flag in flags}}
    if args.single_thread:
        scorer["max_parallel"] = 1
    spec = ScorerSpec(**scorer)
    name = settings.get("template")
    if name is not None and not isinstance(name, str):
        raise TypeError(f"template must be a string, got {name!r}")
    template = load_template(name) if name else DEFAULT_TEMPLATE
    graph = load_bundle(args.bundle)
    split = sample_label_fraction(graph, config.fraction, config.seed,
                                  test_ids=load_split_file(args.bundle))
    digest = bundle_hash(args.bundle)
    if "strategy" in flags and STRATEGY_TABLE[args.strategy].needs_model:
        if trained is None:
            raise ValueError(f"strategy {args.strategy!r} needs --model")
        if trained.bundle_hash != digest:
            raise ValueError(f"model {args.model} was trained on bundle {trained.bundle_hash}, "
                             f"but {args.bundle} hashes to {digest}")
    model = None
    if mdir:
        model = TrainedModel(params=ParamSet.load(mdir / "params.bin"),
                             embeddings=EmbeddingTable.load(mdir / "embeddings"))
    recorded = {k: v for k, v in vars(args).items() if k not in UNRECORDED}
    manifest = RunManifest(
        config={**recorded, **asdict(config)},
        bundle_hash=digest,
        template_hash=template.template_hash,
        scorer_id=spec.scorer_id,
    )
    return RunInputs(config, spec, template, graph, split, model, manifest)


def cmd_synth(args: argparse.Namespace) -> int:
    graph = synth_sbm(
        n_nodes=args.n, n_classes=args.classes, p_in=args.pin, p_out=args.pout,
        d=args.dim, noise=args.noise, seed=args.seed,
    )
    write_bundle(graph, args.out)
    print(json.dumps({"nodes": graph.n_nodes, "edges": graph.n_edges // 2,
                      "classes": graph.n_classes, "out": str(args.out)}))
    return 0


def cmd_prepare(args: argparse.Namespace) -> int:
    graph = load_bundle(args.bundle, symmetrize=not args.directed)
    labeled = graph.labeled_node_ids()
    stats = {
        "nodes": graph.n_nodes,
        "stored_edges": graph.n_edges,
        "feature_dim": graph.feature_dim,
        "classes": graph.n_classes,
        "labeled": int(labeled.size),
        "label_counts": {
            graph.label_vocab[c]: int(n)
            for c, n in enumerate(np.bincount(graph.labels[labeled], minlength=graph.n_classes))
        },
    }
    print(json.dumps(stats, sort_keys=True))
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    run = resolve_inputs(args)
    with closing(FeedbackCache(args.cache or None)) as cache:
        model = train(run.graph, run.split, run.spec, run.template, run.config, cache=cache)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    # the manifest marks a finished directory: gone while the other files change
    (out / "manifest.json").unlink(missing_ok=True)
    model.params.save(out / "params.bin")
    model.embeddings.save(out / "embeddings")
    model.write_log(out / "train_log.csv")
    run.manifest.save(out / "manifest.json")
    print(json.dumps({
        "out": str(args.out),
        "manifest_hash": run.manifest.manifest_hash,
        "final_loss": model.log[-1]["loss_total"] if model.log else None,
    }))
    return 0


def cmd_feedback(args: argparse.Namespace) -> int:
    run = resolve_inputs(args)
    if run.model:
        params = run.model.params
    else:
        params = init_params(run.config.encoder_config(run.graph), run.config.seed)
    with closing(FeedbackCache(args.cache or None)) as cache:
        feedback = collect_feedback_round(run.graph, run.split, params, run.config, run.spec,
                                          run.template, cache)
    payload = {
        "coverage": feedback.coverage,
        "queries": {
            str(q): {"examples": list(r.example_ids), "utilities": list(r.utilities)}
            for q, r in sorted(feedback.by_query.items())
        },
    }
    if args.out:
        with atomic_write(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True, indent=2)
    print(json.dumps({"queries": len(feedback.by_query), "coverage": feedback.coverage,
                      "cache_entries": len(cache)}))
    return 0


def _run_and_report(args: argparse.Namespace) -> int:
    run = resolve_inputs(args)
    strategy, manifest = args.strategy, run.manifest
    rows = run_strategy(
        strategy, run.graph, run.split, run.spec, run.template, model=run.model,
        k_icl=run.config.k_icl, seed=run.config.seed, purify=getattr(args, "purify", None),
        purify_budget=getattr(args, "purify_budget", None),
    )
    summary = evaluate_accuracy(rows)
    summary = {
        "accuracy": summary["accuracy"],
        "n": summary["n"],
        "unparsed": summary["unparsed"],
        "manifest_hash": manifest.manifest_hash,
        "strategy": strategy,
    }
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    stem = f"report-{strategy}-{manifest.manifest_hash}"
    write_report(rows, summary, out / f"{stem}.csv", out / f"{stem}.json",
                 overwrite=args.force)
    manifest.save(out / f"{stem}-manifest.json")
    print(json.dumps(summary, sort_keys=True))
    return 0


def cmd_infer(args: argparse.Namespace) -> int:
    return _run_and_report(args)


def cmd_baseline(args: argparse.Namespace) -> int:
    return _run_and_report(args)


def cmd_eval(args: argparse.Namespace) -> int:
    rows = read_report(args.report)
    print(json.dumps(evaluate_accuracy(rows), sort_keys=True))
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    run = resolve_inputs(args)
    values = [float(v) for v in args.values.split(",") if v != ""]
    with closing(FeedbackCache(args.cache or None)) as cache:
        results = sweep(args.axis, values, run.graph, run.split, run.spec, run.template,
                        run.config, cache=cache)
    write_sweep_csv(results, args.out)
    print(json.dumps({"axis": args.axis, "rows": len(results), "out": str(args.out)}))
    return 0


def _add_common(p: argparse.ArgumentParser, with_model: bool = False) -> None:
    p.add_argument("--bundle", required=True, help="bundle directory")
    p.add_argument("--config", default=None, help="JSON config file")
    p.add_argument("--template", default=None, help="template name or path")
    _add_train_flags(p, TrainConfig.split_fields)
    p.add_argument("--scorer-kind", dest="scorer_kind", choices=["http", "oracle"], default=None)
    p.add_argument("--endpoint", default=None, help="http scorer base URL")
    p.add_argument("--model-name", dest="model_name", default=None, help="scoring model name")
    p.add_argument("--single-thread", dest="single_thread", action="store_true",
                   help="send scorer requests one at a time (max_parallel 1); results are the same")
    if with_model:
        p.add_argument("--model", required=True, help="trained model directory")


def _add_train_flags(p: argparse.ArgumentParser, names) -> None:
    for name in names:
        typ = type(TrainConfig.__dataclass_fields__[name].default)
        p.add_argument(f"--{name.replace('_', '-')}", dest=name, type=typ, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gicl", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"gicl {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic bundle")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--classes", type=int, required=True)
    p.add_argument("--pin", type=float, required=True)
    p.add_argument("--pout", type=float, required=True)
    p.add_argument("--dim", type=int, default=16)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("prepare", help="validate a bundle and print stats")
    p.add_argument("bundle")
    p.add_argument("--directed", action="store_true", help="do not symmetrize edges")
    p.set_defaults(fn=cmd_prepare)

    p = sub.add_parser("train", help="train the retriever")
    _add_common(p)
    p.add_argument("--out", required=True, help="model output directory")
    p.add_argument("--cache", default=None, help="feedback cache JSONL path")
    _add_train_flags(p, TRAIN_FLAGS)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("feedback", help="run one feedback collection round")
    _add_common(p)
    p.add_argument("--model", default=None, help="trained model directory (else fresh init)")
    p.add_argument("--cache", default=None)
    p.add_argument("--out", default=None, help="write the feedback set as JSON")
    _add_train_flags(p, ("k_feedback",))
    p.set_defaults(fn=cmd_feedback)

    p = sub.add_parser("infer", help="trained-retriever inference on the test split")
    _add_common(p, with_model=True)
    methods = [s for s, plan in STRATEGY_TABLE.items() if plan.purifiable]
    p.add_argument("--strategy", default=methods[0], choices=methods)
    _add_train_flags(p, ("k_icl",))
    p.add_argument("--purify", choices=PURIFY_MODES, default=None)
    p.add_argument("--purify-budget", dest="purify_budget", type=int, default=None)
    p.add_argument("--out", required=True, help="report output directory")
    p.add_argument("--force", action="store_true", help="allow overwriting a report")
    p.set_defaults(fn=cmd_infer)

    p = sub.add_parser("baseline", help="run a non-learned strategy")
    _add_common(p)
    p.add_argument("--strategy", required=True,
                   choices=[s for s in STRATEGY_TABLE if s not in methods])
    p.add_argument("--model", default=None, help="trained model directory (mv_askgnn, npg)")
    _add_train_flags(p, ("k_icl",))
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true")
    p.set_defaults(fn=cmd_baseline)

    p = sub.add_parser("eval", help="recompute a summary from a report CSV")
    p.add_argument("--report", required=True)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("sweep", help="sweep beta or k_icl")
    _add_common(p)
    p.add_argument("--axis", required=True, choices=SWEEP_AXES)
    p.add_argument("--values", required=True, help="comma-separated values")
    p.add_argument("--cache", default=None)
    p.add_argument("--out", required=True, help="CSV output path")
    _add_train_flags(p, [f for f in TRAIN_FLAGS if f not in SWEEP_AXES])
    p.set_defaults(fn=cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"gicl: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
