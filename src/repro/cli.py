"""Command-line interface for the DT-SNN reproduction.

Eight subcommands cover the day-to-day workflow a user of the library needs
without writing Python:

* ``train``      — train a spiking VGG/ResNet on one of the synthetic datasets
                   and save the checkpoint (+ a JSON training report).
* ``evaluate``   — load a checkpoint, report static per-timestep accuracy and
                   the DT-SNN iso-accuracy operating point.
* ``sweep``      — threshold sweep: accuracy / average-T / (optionally) EDP
                   for a grid of entropy thresholds.
* ``chip-report``— map a checkpoint onto the Table-I IMC chip and print the
                   energy/latency/area breakdowns.
* ``serve``      — run the continuous-batching serving runtime over a
                   deterministic request stream and print the telemetry
                   (``--self-test`` verifies serve-path equivalence and exits
                   non-zero on failure).
* ``loadgen``    — sweep offered arrival rates against the serving runtime
                   and print the achieved throughput / latency table.
* ``replay``     — replay a traffic trace recorded with ``serve
                   --record-trace`` against any server composition and verify
                   every decision bitwise (the cross-composition regression
                   gate; see docs/OBSERVABILITY.md).
* ``backtest``   — offline SLA what-if: sweep candidate threshold/horizon
                   schedules over a recorded trace, score each against the
                   full-horizon oracle, and emit the Pareto frontier as a
                   schema-v1 JSON artifact (docs/OBSERVABILITY.md §5).

Example
-------
    python -m repro.cli train --dataset cifar10 --arch vgg --epochs 6 \
        --checkpoint /tmp/dtsnn.npz
    python -m repro.cli evaluate --checkpoint /tmp/dtsnn.npz --dataset cifar10
    python -m repro.cli serve --checkpoint /tmp/dtsnn.npz --num-requests 256
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, Optional

import numpy as np

from .core import (
    DynamicTimestepInference,
    EntropyExitPolicy,
    account_result,
    calibrate_threshold,
    compare_to_static,
    sweep_thresholds,
)
from .data import (
    DataLoader,
    SyntheticDVSConfig,
    make_cifar10_like,
    make_cifar100_like,
    make_dvs_like,
    make_tinyimagenet_like,
    train_test_split,
)
from .imc import IMCChip, format_breakdown, format_table
from .serve import (
    AdaptiveThresholdController,
    BacktestSweep,
    LoadGenerator,
    MetricsRegistry,
    Server,
    SpanTracker,
    ThresholdSchedule,
    TraceRecorder,
    TraceReplayer,
    calibrated_threshold_bounds,
    load_trace,
    request_stream,
)
from .snn import EventFrameEncoder, spiking_resnet, spiking_vgg
from .training import (
    Trainer,
    TrainingConfig,
    collect_cumulative_logits,
    evaluate_per_timestep_accuracy,
)
from .utils import load_state_dict, save_json, save_state_dict, seed_everything

__all__ = ["main", "build_parser"]

DATASETS = {
    "cifar10": make_cifar10_like,
    "cifar100": make_cifar100_like,
    "tinyimagenet": make_tinyimagenet_like,
}


def _build_dataset(args: argparse.Namespace):
    if args.dataset == "cifar10dvs":
        dataset = make_dvs_like(
            SyntheticDVSConfig(
                num_classes=10,
                num_samples=args.samples,
                num_frames=args.timesteps,
                image_size=args.image_size,
                seed=args.seed,
            )
        )
    else:
        dataset = DATASETS[args.dataset](
            num_samples=args.samples, image_size=args.image_size, seed=args.seed
        )
    return train_test_split(dataset, test_fraction=0.25, seed=args.seed + 1)


def _build_model(args: argparse.Namespace, num_classes: int, in_channels: int):
    builder = spiking_vgg if args.arch == "vgg" else spiking_resnet
    encoder = EventFrameEncoder() if args.dataset == "cifar10dvs" else None
    return builder(
        args.preset,
        num_classes=num_classes,
        in_channels=in_channels,
        input_size=args.image_size,
        width_multiplier=args.width_multiplier,
        default_timesteps=args.timesteps,
        encoder=encoder,
    )


def _load_model(args: argparse.Namespace, num_classes: int, in_channels: int):
    model = _build_model(args, num_classes, in_channels)
    model.load_state_dict(load_state_dict(args.checkpoint))
    return model


def _add_common_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dataset", choices=[*DATASETS, "cifar10dvs"], default="cifar10")
    parser.add_argument("--arch", choices=["vgg", "resnet"], default="vgg")
    parser.add_argument("--preset", default="tiny",
                        help="architecture preset (tiny/vgg5/.../vgg16, tiny/resnet11/resnet19)")
    parser.add_argument("--width-multiplier", type=float, default=1.0)
    parser.add_argument("--samples", type=int, default=400)
    parser.add_argument("--image-size", type=int, default=10)
    parser.add_argument("--timesteps", type=int, default=4)
    parser.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    subparsers = parser.add_subparsers(dest="command", required=True)

    train = subparsers.add_parser("train", help="train a spiking network")
    _add_common_arguments(train)
    train.add_argument("--epochs", type=int, default=6)
    train.add_argument("--learning-rate", type=float, default=0.15)
    train.add_argument("--loss", choices=["final", "per_timestep", "tet"], default="per_timestep")
    train.add_argument("--checkpoint", required=True, help="path for the saved .npz checkpoint")
    train.add_argument("--report", default=None, help="optional JSON training report path")

    evaluate = subparsers.add_parser("evaluate", help="evaluate a checkpoint statically and dynamically")
    _add_common_arguments(evaluate)
    evaluate.add_argument("--checkpoint", required=True)
    evaluate.add_argument("--tolerance", type=float, default=0.005,
                          help="allowed accuracy drop for the DT-SNN calibration")

    sweep = subparsers.add_parser("sweep", help="entropy-threshold sweep for a checkpoint")
    _add_common_arguments(sweep)
    sweep.add_argument("--checkpoint", required=True)
    sweep.add_argument("--thresholds", type=float, nargs="+",
                       default=[0.02, 0.05, 0.1, 0.2, 0.35, 0.5, 0.7, 0.9])
    sweep.add_argument("--with-edp", action="store_true",
                       help="also price every sweep point on the IMC chip")

    chip = subparsers.add_parser("chip-report", help="map a checkpoint onto the IMC chip")
    _add_common_arguments(chip)
    chip.add_argument("--checkpoint", required=True)
    chip.add_argument("--max-timesteps", type=int, default=8,
                      help="horizon for the energy/latency scaling table")

    serve = subparsers.add_parser(
        "serve", help="run the continuous-batching serving runtime over a request stream"
    )
    _add_serving_arguments(serve)
    serve.add_argument("--rate", type=float, default=None,
                       help="offered load in requests/s (default: closed-loop)")
    serve.add_argument("--burst", type=int, default=1,
                       help="arrival burst size at the offered rate (bursty admission)")
    serve.add_argument("--self-test", action="store_true",
                       help="small deterministic run verifying serve-path equivalence; "
                            "exits non-zero on failure")
    serve.add_argument("--record-trace", default=None, metavar="PATH",
                       help="record served traffic to a replayable WAL trace at "
                            "PATH (clips land at PATH.clips)")
    serve.add_argument("--stats-dump", default=None, metavar="PATH",
                       help="write the metrics registry as JSON to PATH and "
                            "Prometheus text to PATH.prom at exit (also enables "
                            "request-lifecycle span tracking)")

    loadgen = subparsers.add_parser(
        "loadgen", help="sweep offered arrival rates against the serving runtime"
    )
    _add_serving_arguments(loadgen)
    loadgen.add_argument("--rates", type=float, nargs="+", default=[100.0, 300.0, 1000.0],
                         help="offered loads (requests/s) to sweep")
    loadgen.add_argument("--shed", action="store_true",
                         help="drop requests on a full queue instead of blocking the "
                              "arrival process")

    replay = subparsers.add_parser(
        "replay", help="replay a recorded traffic trace against a server "
                       "composition and verify decisions bitwise"
    )
    replay.add_argument("--trace", required=True,
                        help="trace recorded with `serve --record-trace`")
    replay.add_argument("--workers", type=int, default=1,
                        help="worker threads for the replay composition")
    replay.add_argument("--replicas", type=int, default=0,
                        help="worker processes for the replay composition")
    replay.add_argument("--batch-width", type=int, default=None,
                        help="override the recorded batch width")
    replay.add_argument("--queue-capacity", type=int, default=None,
                        help="override the recorded queue capacity")
    replay.add_argument("--honor-arrivals", action="store_true",
                        help="pace submissions to the recorded arrival offsets "
                             "instead of replaying closed-loop")
    replay.add_argument("--speed", type=float, default=1.0,
                        help="time compression for --honor-arrivals")
    replay.add_argument("--no-verify", action="store_true",
                        help="use the trace as a load source only (skip the "
                             "bitwise decision check)")
    replay.add_argument("--checkpoint", default=None,
                        help="override the checkpoint recorded in the trace header")
    replay.add_argument("--reference-path", action="store_true",
                        help="replay on the define-by-run Tensor oracle")

    backtest = subparsers.add_parser(
        "backtest", help="offline SLA what-if: sweep candidate threshold "
                         "schedules over a recorded trace and emit the "
                         "Pareto frontier as a JSON artifact"
    )
    backtest.add_argument("--trace", required=True,
                          help="trace recorded with `serve --record-trace`")
    backtest.add_argument("--thresholds", type=float, nargs="+",
                          default=[0.05, 0.2, 0.5],
                          help="candidate entropy thresholds (each becomes a "
                               "constant schedule)")
    backtest.add_argument("--horizons", type=int, nargs="+", default=None,
                          help="optional candidate horizon caps crossed with "
                               "--thresholds (default: the trace horizon)")
    backtest.add_argument("--workers", type=int, default=1,
                          help="worker threads for the backtest composition")
    backtest.add_argument("--replicas", type=int, default=0,
                          help="worker processes for the backtest composition")
    backtest.add_argument("--batch-width", type=int, default=None,
                          help="override the recorded batch width")
    backtest.add_argument("--queue-capacity", type=int, default=None,
                          help="override the recorded queue capacity")
    backtest.add_argument("--with-energy", action="store_true",
                          help="price candidates on the Table-I IMC chip "
                               "(enables the energy/EDP Pareto axes)")
    backtest.add_argument("--out", default="BACKTEST_sweep.json",
                          help="path for the schema-v1 sweep artifact")
    backtest.add_argument("--no-decisions", action="store_true",
                          help="omit per-request decisions from the artifact "
                               "(keeps only the digests)")
    backtest.add_argument("--no-baseline", action="store_true",
                          help="skip the recorded-knobs baseline candidate "
                               "and its exactness gate")
    backtest.add_argument("--cross-check", action="store_true",
                          help="re-run the sweep on a 1-worker composition "
                               "and fail unless every decision and the "
                               "Pareto frontier are bitwise identical")
    backtest.add_argument("--checkpoint", default=None,
                          help="override the checkpoint recorded in the trace header")
    backtest.add_argument("--reference-path", action="store_true",
                          help="backtest on the define-by-run Tensor oracle")
    return parser


def _add_serving_arguments(parser: argparse.ArgumentParser) -> None:
    _add_common_arguments(parser)
    parser.add_argument("--checkpoint", default=None,
                        help="trained checkpoint; omitted = train briefly in-process")
    parser.add_argument("--train-epochs", type=int, default=4,
                        help="epochs for the in-process fallback training (no --checkpoint)")
    parser.add_argument("--threshold", type=float, default=None,
                        help="entropy threshold; omitted = calibrate to iso-accuracy")
    parser.add_argument("--tolerance", type=float, default=0.005,
                        help="accuracy tolerance for threshold calibration")
    parser.add_argument("--batch-width", type=int, default=8)
    parser.add_argument("--queue-capacity", type=int, default=64)
    parser.add_argument("--workers", type=int, default=1,
                        help="worker threads serving the model; with >1 the replicas "
                             "share one compiled plan (requires the fast path)")
    parser.add_argument("--replicas", type=int, default=0,
                        help="worker processes serving the model over a shared-memory "
                             "plan arena (GIL-free scaling; mutually exclusive with "
                             "--workers > 1)")
    parser.add_argument("--num-requests", type=int, default=256)
    parser.add_argument("--stream-seed", type=int, default=0,
                        help="seed of the deterministic request stream")
    parser.add_argument("--target-p95-ms", type=float, default=None,
                        help="enable the adaptive threshold controller with this p95 SLA")
    parser.add_argument("--with-energy", action="store_true",
                        help="price every request on the Table-I IMC chip")
    parser.add_argument("--reference-path", action="store_true",
                        help="run engines on the define-by-run Tensor oracle instead of "
                             "the compiled-plan fast path (predictions are bitwise "
                             "identical either way; this is the slow reference)")


# --------------------------------------------------------------------------- #
# Subcommand implementations
# --------------------------------------------------------------------------- #
def _command_train(args: argparse.Namespace) -> int:
    seed_everything(args.seed)
    train, test = _build_dataset(args)
    in_channels = train.sample_shape[-3]
    model = _build_model(args, train.num_classes, in_channels)
    trainer = Trainer(
        model,
        TrainingConfig(
            epochs=args.epochs,
            timesteps=args.timesteps,
            learning_rate=args.learning_rate,
            loss=args.loss,
        ),
    )
    result = trainer.fit(
        DataLoader(train, batch_size=32, seed=args.seed),
        DataLoader(test, batch_size=64, shuffle=False),
    )
    save_state_dict(args.checkpoint, model.state_dict())
    print(f"saved checkpoint to {args.checkpoint}")
    print(f"final eval accuracy: {result.final_eval_accuracy:.4f}")
    if args.report:
        save_json(
            args.report,
            {
                "dataset": args.dataset,
                "architecture": args.arch,
                "epochs": result.epochs_run,
                "train_loss": result.train_loss_history,
                "eval_accuracy": result.eval_accuracy_history,
                "final_eval_accuracy": result.final_eval_accuracy,
            },
        )
        print(f"wrote training report to {args.report}")
    return 0


def _command_evaluate(args: argparse.Namespace) -> int:
    seed_everything(args.seed)
    train, test = _build_dataset(args)
    model = _load_model(args, train.num_classes, train.sample_shape[-3])
    loader = DataLoader(test, batch_size=64, shuffle=False)

    per_timestep = evaluate_per_timestep_accuracy(model, loader, timesteps=args.timesteps)
    rows = [[f"T={t}", 100.0 * acc] for t, acc in enumerate(per_timestep, start=1)]
    print(format_table(["horizon", "accuracy (%)"], rows, title="Static SNN accuracy"))

    collected = collect_cumulative_logits(model, loader, timesteps=args.timesteps)
    point = calibrate_threshold(collected["logits"], collected["labels"], tolerance=args.tolerance)
    print(f"\nDT-SNN: threshold={point.threshold:.4f} accuracy={point.accuracy:.4f} "
          f"average timesteps={point.average_timesteps:.2f}")
    for t, fraction in enumerate(point.timestep_fractions, start=1):
        print(f"  exits at T={t}: {100 * fraction:.1f}%")
    return 0


def _command_sweep(args: argparse.Namespace) -> int:
    seed_everything(args.seed)
    train, test = _build_dataset(args)
    model = _load_model(args, train.num_classes, train.sample_shape[-3])
    loader = DataLoader(test, batch_size=64, shuffle=False)
    collected = collect_cumulative_logits(model, loader, timesteps=args.timesteps)

    chip: Optional[IMCChip] = None
    if args.with_edp:
        chip = IMCChip.from_network(model, test.inputs[:4], num_classes=train.num_classes)

    rows = []
    for point in sweep_thresholds(collected["logits"], collected["labels"], args.thresholds):
        row = [point.threshold, 100.0 * point.accuracy, point.average_timesteps]
        if chip is not None:
            report = account_result(point.result, chip)
            comparison = compare_to_static(report, chip, static_timesteps=args.timesteps)
            row.extend([comparison["normalized_energy"], comparison["normalized_edp"]])
        rows.append(row)
    headers = ["threshold", "accuracy (%)", "avg T"]
    if chip is not None:
        headers += ["energy (x static)", "EDP (x static)"]
    print(format_table(headers, rows, title="Entropy-threshold sweep", float_format="{:.3f}"))
    return 0


def _command_chip_report(args: argparse.Namespace) -> int:
    seed_everything(args.seed)
    train, test = _build_dataset(args)
    model = _load_model(args, train.num_classes, train.sample_shape[-3])
    chip = IMCChip.from_network(model, test.inputs[:4], num_classes=train.num_classes)

    summary = chip.summary()
    rows = [[key, value] for key, value in summary.items()]
    print(format_table(["quantity", "value"], rows, title="Chip summary", float_format="{:.4g}"))
    print()
    print(format_breakdown(chip.energy_breakdown_shares(),
                           title="Per-timestep energy breakdown (Fig. 1A)"))
    energy = chip.normalized_energy_curve(args.max_timesteps)
    latency = chip.normalized_latency_curve(args.max_timesteps)
    rows = [[t, energy[t], latency[t]] for t in sorted(energy)]
    print()
    print(format_table(["T", "normalized energy", "normalized latency"], rows,
                       title="Scaling with timesteps (Fig. 1B)", float_format="{:.2f}"))
    print()
    print(format_breakdown(
        {k: v / chip.area_breakdown()["total"] for k, v in chip.area_breakdown().items() if k != "total"},
        title="Area breakdown"))
    return 0


def _prepare_serving(args: argparse.Namespace):
    """Dataset + model + calibrated policy shared by ``serve`` and ``loadgen``."""
    seed_everything(args.seed)
    train, test = _build_dataset(args)
    if args.checkpoint:
        model = _load_model(args, train.num_classes, train.sample_shape[-3])
    else:
        print(f"no --checkpoint given: training in-process for {args.train_epochs} epochs")
        model = _build_model(args, train.num_classes, train.sample_shape[-3])
        Trainer(
            model,
            TrainingConfig(
                epochs=args.train_epochs, timesteps=args.timesteps, learning_rate=0.15
            ),
        ).fit(
            DataLoader(train, batch_size=32, seed=args.seed),
            DataLoader(test, batch_size=64, shuffle=False),
        )
    loader = DataLoader(test, batch_size=64, shuffle=False)
    collected = collect_cumulative_logits(model, loader, timesteps=args.timesteps)

    if args.threshold is not None:
        threshold = args.threshold
    else:
        point = calibrate_threshold(
            collected["logits"], collected["labels"], tolerance=args.tolerance
        )
        threshold = point.threshold
        print(f"calibrated entropy threshold: {threshold:.4f} "
              f"(accuracy {point.accuracy:.4f}, avg T {point.average_timesteps:.2f})")
    policy = EntropyExitPolicy(threshold=min(threshold, 1.0))

    controller = None
    if args.target_p95_ms is not None:
        low, high = calibrated_threshold_bounds(collected["logits"], collected["labels"])
        controller = AdaptiveThresholdController(
            policy=policy,
            target_p95_latency=args.target_p95_ms / 1000.0,
            min_threshold=low,
            max_threshold=max(high, low),
        )
        print(f"adaptive controller: p95 SLA {args.target_p95_ms:.1f} ms, "
              f"threshold bounds [{low:.4f}, {high:.4f}]")
    cost_model = None
    if args.with_energy:
        cost_model = IMCChip.from_network(model, test.inputs[:4], num_classes=train.num_classes)
    return model, test, collected, policy, controller, cost_model


def _trace_meta(args: argparse.Namespace, policy) -> Dict[str, object]:
    """Everything a `replay` run needs to rebuild the identical serving
    context: the deterministic model recipe (seeded dataset + in-process
    training or checkpoint path) and the decision knobs."""
    return {
        "dataset": args.dataset,
        "arch": args.arch,
        "preset": args.preset,
        "width_multiplier": args.width_multiplier,
        "samples": args.samples,
        "image_size": args.image_size,
        "timesteps": args.timesteps,
        "max_timesteps": args.timesteps,
        "seed": args.seed,
        "checkpoint": args.checkpoint,
        "train_epochs": args.train_epochs,
        "threshold": float(policy.threshold),
        "tolerance": args.tolerance,
        "batch_width": args.batch_width,
        "queue_capacity": args.queue_capacity,
        "workers": args.workers,
        "replicas": args.replicas,
    }


def _build_server(args: argparse.Namespace, model, policy, controller, cost_model,
                  trace=None, spans=None) -> Server:
    server = Server(
        model,
        policy,
        max_timesteps=args.timesteps,
        batch_width=args.batch_width,
        queue_capacity=args.queue_capacity,
        num_workers=args.workers,
        num_replicas=args.replicas,
        cost_model=cost_model,
        controller=controller,
        use_runtime=False if args.reference_path else None,
        trace=trace,
        spans=spans,
    )
    if server.replicas is not None:
        arena = server.replicas.arena
        print(f"execution path: {server.replicas.num_replicas} process replica(s) "
              f"over one shared-memory plan arena "
              f"({arena.spec.size} bytes, {len(arena.spec.entries)} constants)")
        return server
    engine = server.batchers[0].engine
    path = "compiled-plan fast path" if engine.fast_path else "Tensor reference oracle"
    workers = len(server.batchers)
    sharing = " (one shared plan)" if workers > 1 else ""
    print(f"execution path: {path}; {workers} worker(s){sharing}")
    return server


def _print_serving_report(args: argparse.Namespace, report, server: Server) -> None:
    stats = server.stats()
    rows = [
        ["offered requests", float(report.offered)],
        ["completed", float(report.completed)],
        ["dropped (backpressure)", float(report.dropped)],
        ["throughput (req/s)", report.throughput_rps],
        ["latency p50 (ms)", 1000.0 * stats.get("latency_p50", 0.0)],
        ["latency p95 (ms)", 1000.0 * stats.get("latency_p95", 0.0)],
        ["avg exit timesteps", report.average_exit_timesteps()],
        ["batch occupancy", stats.get("occupancy_mean", 0.0)],
    ]
    accuracy = report.accuracy()
    if accuracy is not None:
        rows.append(["accuracy (%)", 100.0 * accuracy])
    if "energy_mean" in stats:
        rows.append(["mean energy / request", stats["energy_mean"]])
        rows.append(["mean EDP / request", stats["edp_mean"]])
    if "threshold" in stats:
        rows.append(["final threshold", stats["threshold"]])
    print(format_table(["metric", "value"], rows, title="Serving report",
                       float_format="{:.3f}"))
    if report.results:
        histogram = server.telemetry.exit_histogram(args.timesteps)
        print()
        print(format_table(
            ["exit T", "requests", "share (%)"],
            [[t, int(count), 100.0 * count / max(1, report.completed)]
             for t, count in enumerate(histogram, start=1)],
            title="Exit-timestep histogram", float_format="{:.1f}"))


def _write_stats_dump(path: str, server: Server, spans, max_timesteps: int) -> None:
    """Export the metrics registry (JSON at ``path``, Prometheus text at
    ``path.prom``) plus the span-stage breakdown."""
    registry = MetricsRegistry()
    server.telemetry.fill_registry(registry, max_timesteps=max_timesteps)
    payload = {
        "metrics": registry.to_json(),
        "snapshot": server.telemetry.snapshot(),
    }
    if spans is not None:
        payload["spans"] = spans.summary()
    save_json(path, payload)
    prom_path = path + ".prom"
    with open(prom_path, "w", encoding="utf-8") as handle:
        handle.write(registry.to_prometheus())
    print(f"wrote stats dump to {path} (+ {prom_path})")


def _oracle_mismatches(model, stream, completions, threshold: float, timesteps: int):
    """Judge ``(stream index, result)`` pairs bitwise against the Tensor oracle
    (``model.forward`` runs the Tensor graph) under the one fixed threshold
    the self-test serves with.  Returns ``(served, expected)`` per
    disagreement, each a ``(prediction, exit_timestep)`` pair."""
    inputs = np.stack([clip for clip, _ in stream])
    logits = np.concatenate(
        [model.forward(inputs[start:start + 64], timesteps).cumulative_numpy()
         for start in range(0, inputs.shape[0], 64)],
        axis=1,
    )
    reference = DynamicTimestepInference(
        policy=EntropyExitPolicy(threshold), max_timesteps=timesteps
    ).infer_from_logits(logits)
    expected = list(zip(reference.predictions.tolist(), reference.exit_timesteps.tolist()))
    return [
        ((result.prediction, result.exit_timestep), expected[index])
        for index, result in completions
        if (result.prediction, result.exit_timestep) != expected[index]
    ]


def _command_serve(args: argparse.Namespace) -> int:
    if args.self_test:
        args.checkpoint = None
        args.samples = min(args.samples, 160)
        args.num_requests = min(args.num_requests, 96)
        args.train_epochs = min(args.train_epochs, 4)
        if args.target_p95_ms is not None:
            # The equivalence reference assumes one fixed threshold for the
            # whole stream; a mid-run controller adjustment would make the
            # self-test fail spuriously.
            print("self-test: ignoring --target-p95-ms (needs a fixed threshold)")
            args.target_p95_ms = None
    model, test, collected, policy, controller, cost_model = _prepare_serving(args)
    trace = None
    if args.record_trace:
        trace = TraceRecorder(args.record_trace, meta=_trace_meta(args, policy))
    spans = SpanTracker() if args.stats_dump else None
    server = _build_server(args, model, policy, controller, cost_model,
                           trace=trace, spans=spans).start()
    stream = list(request_stream(test, args.num_requests, seed=args.stream_seed))
    generator = LoadGenerator(server, rate=args.rate, burst=args.burst)
    report = generator.run(iter(stream))
    server.shutdown(drain=True)
    if trace is not None:
        trace.close()
        print(f"recorded {trace.records_written} request(s) + "
              f"{trace.rejections_written} rejection(s) to {args.record_trace}")
    _print_serving_report(args, report, server)
    if args.stats_dump:
        _write_stats_dump(args.stats_dump, server, spans, args.timesteps)

    if not args.self_test:
        return 0
    # A complete telemetry snapshot (every counter and gauge family the
    # telemetry records — completed/rejected/shed, queue depth, occupancy).
    snapshot = server.telemetry.snapshot()
    print()
    print(format_table(["metric", "value"],
                       [[key, snapshot[key]] for key in sorted(snapshot)],
                       title="Telemetry snapshot", float_format="{:.4f}"))
    # Self-test: the serve path (by default the compiled-plan fast path) must
    # reproduce the define-by-run Tensor oracle bitwise on the identical
    # stream, and drain must complete every request.
    failures = []
    if report.completed != len(stream):
        failures.append(f"drain incomplete: {report.completed}/{len(stream)} requests")
    diverged = _oracle_mismatches(
        model, stream, zip(report.accepted_indices, report.results),
        policy.threshold, args.timesteps)
    if any(served[0] != expected[0] for served, expected in diverged):
        failures.append("serve predictions diverge from infer_from_logits")
    if any(served[1] != expected[1] for served, expected in diverged):
        failures.append("serve exit timesteps diverge from infer_from_logits")
    if failures:
        for failure in failures:
            print(f"SELF-TEST FAIL: {failure}")
        return 1
    print(f"SELF-TEST PASS: {len(stream)} requests, serve path bitwise-identical "
          "to infer_from_logits, drain complete")
    return 0


def _command_loadgen(args: argparse.Namespace) -> int:
    model, test, collected, policy, controller, cost_model = _prepare_serving(args)
    base_threshold = policy.threshold
    rows = []
    for rate in args.rates:
        policy.threshold = base_threshold  # each rate starts from the same knob
        server = _build_server(args, model, policy, controller, cost_model).start()
        stream = request_stream(test, args.num_requests, seed=args.stream_seed)
        generator = LoadGenerator(server, rate=rate, block=not args.shed)
        report = generator.run(stream)
        server.shutdown(drain=True)
        stats = server.stats()
        rows.append([
            rate,
            report.throughput_rps,
            1000.0 * stats.get("latency_p50", 0.0),
            1000.0 * stats.get("latency_p95", 0.0),
            report.average_exit_timesteps(),
            float(report.dropped),
            stats.get("threshold", base_threshold),
        ])
    print(format_table(
        ["offered (req/s)", "achieved (req/s)", "p50 (ms)", "p95 (ms)",
         "avg T", "dropped", "final threshold"],
        rows, title="Load sweep", float_format="{:.2f}"))
    return 0


def _namespace_from_trace(trace, args: argparse.Namespace,
                          with_energy: bool = False) -> argparse.Namespace:
    """Rebuild the identical serving context from a trace header: same seeded
    dataset + in-process training (or checkpoint), threshold pinned to the
    recorded one so calibration cannot drift the decisions.  Shared by
    ``replay`` and ``backtest`` — both must serve the exact recorded model."""
    header = trace.header
    return argparse.Namespace(
        dataset=header.get("dataset", "cifar10"),
        arch=header.get("arch", "vgg"),
        preset=header.get("preset", "tiny"),
        width_multiplier=float(header.get("width_multiplier", 1.0)),
        samples=int(header.get("samples", 400)),
        image_size=int(header.get("image_size", 10)),
        timesteps=int(header.get("max_timesteps", header.get("timesteps", 4))),
        seed=int(header.get("seed", 0)),
        checkpoint=args.checkpoint or header.get("checkpoint"),
        train_epochs=int(header.get("train_epochs", 4)),
        threshold=trace.fixed_threshold(),
        tolerance=float(header.get("tolerance", 0.005)),
        target_p95_ms=None,
        with_energy=with_energy,
        batch_width=(args.batch_width if args.batch_width is not None
                     else int(header.get("batch_width", 8))),
        queue_capacity=(args.queue_capacity if args.queue_capacity is not None
                        else int(header.get("queue_capacity", 64))),
        workers=args.workers,
        replicas=args.replicas,
        reference_path=args.reference_path,
    )


def _command_replay(args: argparse.Namespace) -> int:
    trace = load_trace(args.trace)
    if trace.truncated:
        print("note: trace had a truncated tail; replaying the recovered prefix")
    if not trace.header:
        print("REPLAY FAIL: trace has no header (not a serve --record-trace file?)")
        return 1
    header = trace.header
    ns = _namespace_from_trace(trace, args)
    verify = not args.no_verify
    if ns.threshold is None:
        if trace.epoch_stamped():
            # The threshold moved mid-run, but every record is epoch-stamped
            # with the threshold its engine slot evaluated, so the replayer
            # pins each request to its recorded knobs and bitwise
            # verification is defined again.  The live policy threshold only
            # seeds the server; take it from the header (or first record).
            ns.threshold = float(header.get("threshold",
                                            trace.records[0].threshold))
            if verify:
                print("trace threshold moved mid-run; records are "
                      "epoch-stamped — replaying with per-request pinned "
                      "thresholds")
        elif verify:
            print("REPLAY FAIL: the trace's threshold moved mid-run without "
                  "epoch stamps (pre-epoch recording); bitwise verification "
                  "is undefined — pass --no-verify to use it as a load "
                  "source, or re-record with an epoch-stamping server")
            return 1
    replayer = TraceReplayer(trace, honor_arrivals=args.honor_arrivals,
                             speed=args.speed, verify=verify)
    model, test, collected, policy, controller, cost_model = _prepare_serving(ns)
    server = _build_server(ns, model, policy, controller, cost_model).start()
    try:
        report = replayer.replay(server)
    finally:
        server.shutdown(drain=True)
    composition = (f"{ns.replicas} process replica(s)" if ns.replicas
                   else f"{ns.workers} worker thread(s)")
    rows = [
        ["replayed requests", float(report.offered)],
        ["completed", float(report.completed)],
        ["duration (s)", report.duration],
        ["throughput (req/s)", report.throughput_rps],
        ["latency p95 (ms)", 1000.0 * report.stats.get("latency_p95", 0.0)],
    ]
    print(format_table(["metric", "value"], rows,
                       title=f"Trace replay against {composition}",
                       float_format="{:.3f}"))
    if not verify:
        return 0
    if report.exact:
        print(f"REPLAY PASS: {report.offered} decisions bitwise-identical to "
              f"the recorded trace under {composition}")
        return 0
    for mismatch in report.mismatches[:10]:
        print(f"REPLAY FAIL: {mismatch}")
    print(f"REPLAY FAIL: {len(report.mismatches)} of {report.offered} "
          "decisions diverged")
    return 1


def _command_backtest(args: argparse.Namespace) -> int:
    trace = load_trace(args.trace)
    if trace.truncated:
        print("note: trace had a truncated tail; backtesting the recovered prefix")
    if not trace.header:
        print("BACKTEST FAIL: trace has no header (not a serve --record-trace file?)")
        return 1
    ns = _namespace_from_trace(trace, args, with_energy=args.with_energy)
    if ns.threshold is None:
        # A moving-threshold (controller) trace: the backtester pins every
        # request's knobs explicitly, so the live policy threshold only seeds
        # the server — any valid value works.
        ns.threshold = float(trace.header.get("threshold",
                                              trace.records[0].threshold or 0.5))

    horizons = args.horizons if args.horizons else [None]
    candidates = {}
    for threshold in args.thresholds:
        for horizon in horizons:
            name = f"theta={threshold:g}"
            if horizon is not None:
                name += f",T<={int(horizon)}"
            candidates[name] = ThresholdSchedule.constant(threshold, horizon)

    model, test, collected, policy, controller, cost_model = _prepare_serving(ns)

    def run_sweep(workers: int, replicas: int):
        composition = argparse.Namespace(**{**vars(ns), "workers": workers,
                                            "replicas": replicas})
        sweep = BacktestSweep(trace, candidates,
                              include_baseline=not args.no_baseline,
                              cost_model=cost_model)
        server = _build_server(composition, model, policy, controller,
                               cost_model).start()
        try:
            return sweep.run(server)
        finally:
            server.shutdown(drain=True)

    result = run_sweep(args.workers, args.replicas)

    composition = (f"{args.replicas} process replica(s)" if args.replicas
                   else f"{args.workers} worker thread(s)")
    rows = []
    for candidate in result.candidates:
        scores = candidate.score_row()
        rows.append([
            candidate.name + (" *" if candidate.name in result.pareto else ""),
            scores["agreement"],
            -1.0 if scores["accuracy"] is None else scores["accuracy"],
            scores["mean_exit"],
            scores["model_latency_p99"],
            -1.0 if scores["edp_mean"] is None else scores["edp_mean"],
        ])
    print(format_table(
        ["candidate (*=Pareto)", "agreement", "accuracy", "avg exit T",
         "model p99", "EDP mean"],
        rows, title=f"Backtest sweep against {composition}",
        float_format="{:.4f}"))
    print(f"Pareto frontier: {', '.join(result.pareto)}")

    failed = False
    if not args.no_baseline:
        if result.baseline_exact:
            print(f"BACKTEST PASS: recorded baseline reproduced the trace's "
                  f"{len(trace.records)} decisions and telemetry exactly")
        else:
            for mismatch in result.baseline_mismatches[:10]:
                print(f"BACKTEST FAIL: {mismatch}")
            failed = True

    if args.cross_check:
        reference = run_sweep(1, 0)
        try:
            result.assert_decisions_equal(reference)
        except AssertionError as error:
            print(f"BACKTEST FAIL: {error}")
            failed = True
        else:
            print(f"BACKTEST PASS: all {len(result.candidates)} candidates "
                  f"decision-identical between {composition} and 1 worker "
                  "thread(s); Pareto frontier unchanged")

    result.to_json(args.out, include_decisions=not args.no_decisions)
    print(f"sweep artifact written to {args.out} "
          f"(schema v{result.to_document()['schema_version']}, "
          f"render with tools/backtest_report.py)")
    return 1 if failed else 0


_COMMANDS = {
    "train": _command_train,
    "evaluate": _command_evaluate,
    "sweep": _command_sweep,
    "chip-report": _command_chip_report,
    "serve": _command_serve,
    "loadgen": _command_loadgen,
    "replay": _command_replay,
    "backtest": _command_backtest,
}


def main(argv: Optional[list] = None) -> int:
    """Entry point for ``python -m repro.cli`` (returns a process exit code)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess in examples
    sys.exit(main())
