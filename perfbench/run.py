#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the pptts pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload pretrain --seed 1 --seconds 20 --trace 0

Workloads: ``pretrain``, ``finetune``, ``synthesize``, ``codebook`` (see
``workloads.py``). Each is a closed loop with one caller in one process:
the next step or request starts only after the previous one returns.

With ``--trace 0`` the last line of standard output is a JSON object whose
``metrics`` hold the end-to-end metrics of BENCHMARK.json. With
``--trace 1`` operations alternate between traced and untraced, the
metrics are the per-layer spans and counts per traced timed unit, and
``trace.overhead_ms`` is the traced minus the untraced median. The lines
before the last one give the environment, sample counts, the metrics under
their per-workload names and a digest of the outputs.

The exit code is 0 only when every operation passed its output checks.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads: the matrices here are at most
# about 64 x 2600, where BLAS threading only adds scheduler noise.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
WORK_ROOT = ROOT / ".perfbench_work"

# Spans whose time in the (traced) set-up is reported as ``setup.<span>.ms``.
SETUP_SPANS = (
    "synthetic.generate_synthetic_corpus",
    "features.mel_of_waveform",
    "pseudo.train_codebook",
    "train.prepare_corpus",
    "train.training_step",
    "train.save_checkpoint",
)

# Per-workload names of the end-to-end metrics, printed above the result:
# (prefix of the unit's percentiles, name and unit of its rate).
UNIT_NAMES = {
    "step": ("step_ms", "train_utt_per_s", "utt/s"),
    "request": ("utt_ms", "synth_rtf", "s/s"),
    "pass": ("pass_ms", "frames_per_s", "frames/s"),
}


def _percentile(values: list[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=np.float64), q)) if values else 0.0


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None, scale=None) -> int:
    args = _parse(argv)
    src = ROOT / "src"
    if not (src / "pptts" / "__init__.py").is_file():
        print(f"perfbench: no pptts sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    try:
        import envinfo
        import tracer as tracing
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import the pptts sources under {src}: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    scale = scale or workloads.FULL
    cls = workloads.WORKLOADS[args.workload]

    cpu_before = envinfo.cpu_sample()
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        report = _run(args, scale, cls, workdir, tracing)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()
    report["cpu"] = envinfo.cpu_delta(cpu_before, envinfo.cpu_sample())
    report["environment"] = envinfo.environment(ROOT)
    return _print(report, args, cls)


def _run(args, scale, cls, workdir: Path, tracing) -> dict:
    setup_s = []
    setup_tracer = tracing.Tracer()
    workload = None
    while len(setup_s) < scale.setups or (sum(setup_s) < scale.setup_seconds and len(setup_s) < 100):
        # In a traced run the first set-up is traced; the median is untraced.
        traced = args.trace == 1 and not setup_s
        with setup_tracer.active() if traced else contextlib.nullcontext():
            t0 = time.perf_counter()
            workload = cls(args.seed, scale, workdir / f"setup{len(setup_s)}")
            setup_s.append(time.perf_counter() - t0)

    attempted = failed = 0
    errors: list[str] = []
    runs = {True: [], False: []}  # traced? -> unit times (ms)
    work = {True: 0.0, False: 0.0}
    counts: dict[str, float] = {"traced_ops": 0}
    fit_s: list[float] = []
    op_tracer = tracing.Tracer()

    def one_op(traced: bool, timed: bool) -> None:
        nonlocal attempted, failed
        attempted += workload.units_per_op
        try:
            with op_tracer.active() if traced else contextlib.nullcontext():
                result = workload.run_op()
        except Exception as exc:  # noqa: BLE001 - every failure is counted
            failed += workload.units_per_op
            errors.append(f"{type(exc).__name__}: {exc}")
            return
        if result.errors:
            failed += workload.units_per_op
            errors.extend(result.errors)
        if timed:
            runs[traced].extend(result.unit_ms)
            work[traced] += result.work
            if result.fit_s is not None:
                fit_s.append(result.fit_s)
            if traced:
                counts["traced_ops"] += 1
                for key, value in result.counts.items():
                    counts[key] = counts.get(key, 0.0) + value

    one_op(traced=False, timed=False)  # warm-up: checked, not timed
    deadline = time.perf_counter() + args.seconds
    index = 0
    while True:
        traced = args.trace == 1 and index % 2 == 0
        one_op(traced=traced, timed=True)
        index += 1
        # A traced run needs at least one traced and one untraced operation.
        if time.perf_counter() >= deadline and (args.trace == 0 or index >= 2):
            break

    return {
        "setup_s": setup_s,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "runs": runs,
        "work": work,
        "fit_s": fit_s,
        "counts": counts,
        "op_tracer": op_tracer,
        "setup_tracer": setup_tracer,
        "digest": workload.digest(),
        "ops": index,
    }


def _end_to_end(report, cls) -> tuple[dict, dict]:
    """BENCHMARK.json metrics, and the same figures under per-workload names."""
    units = report["runs"][False]
    total_s = sum(units) / 1e3
    work = report["work"][False]
    # The median and p95 are printed but carry no bound. On a shared 2-core
    # VM whose speed switches between two levels every few seconds, the
    # median of a run lands on whichever level held longer and its spread
    # over ten runs reached 0.23; about 3% of training steps include a full
    # garbage collection, and p95 sits on that edge. p90 and the mean
    # throughput stayed within a third to a half of that.
    metrics = {
        "setup_s": (statistics.median(report["setup_s"]), "s"),
        "op_ms_p90": (_percentile(units, 90), "ms"),
        "work_per_s": (work / total_s if total_s > 0 else 0.0, "1/s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }
    prefix, rate, rate_unit = UNIT_NAMES[cls.unit]
    named = {
        "setup_s": metrics["setup_s"],
        f"{prefix}_p50": (_percentile(units, 50), "ms"),
        f"{prefix}_p90": metrics["op_ms_p90"],
        f"{prefix}_p95": (_percentile(units, 95), "ms"),
        "peak_rss_mb": metrics["peak_rss_mb"],
        "error_rate": (report["failed"] / max(report["attempted"], 1), "failed/attempted"),
    }
    if cls.unit == "request":
        named[rate] = (total_s / work if work > 0 else float("inf"), rate_unit)
    else:
        named[rate] = (metrics["work_per_s"][0], rate_unit)
    if report["fit_s"]:
        named["fit_s"] = (statistics.median(report["fit_s"]), "s")
    return metrics, named


def _per_layer(report) -> dict:
    traced_units = report["runs"][True]
    per = len(traced_units)
    out = {k: (v, "ms" if k.endswith("ms") else "count") for k, v in report["op_tracer"].summary(per).items()}
    counts = report["op_tracer"].counts | report["counts"]
    scale = 1.0 / max(per, 1)
    for key in ("align.cells", "nearest.dist_evals"):
        out[key] = (counts.get(key, 0.0) * scale, "count")
    # Per traced operation: for codebook, passes per fit.
    out["lloyd_passes"] = (counts.get("lloyd_passes", 0.0) / max(counts["traced_ops"], 1), "count")
    out["model.decode.audio_s"] = (counts.get("model.decode.audio_s", 0.0) * scale, "s")
    macs = counts.get("model.decode.macs", 0.0)
    ratio = counts.get("model.decode.useful_macs", 0.0) / macs if macs else 0.0
    out["model.decode.useful_mac_ratio"] = (ratio, "ratio")
    untraced = report["runs"][False]
    overhead = _percentile(traced_units, 50) - _percentile(untraced, 50) if traced_units and untraced else 0.0
    out["trace.overhead_ms"] = (overhead, "ms")
    setup = report["setup_tracer"].summary(1)
    for span in SETUP_SPANS:
        out[f"setup.{span}.ms"] = (setup[f"{span}.ms"], "ms")
    return out


def _print(report, args, cls) -> int:
    metrics, named = _end_to_end(report, cls)
    runs = report["runs"]
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("environment " + json.dumps(report["environment"], sort_keys=True))
    print("cpu " + json.dumps(report["cpu"], sort_keys=True))
    print(
        f"samples: setups={len(report['setup_s'])} ops={report['ops']} "
        f"unit={cls.unit} untraced={len(runs[False])} traced={len(runs[True])} "
        f"attempted={report['attempted']} failed={report['failed']}"
    )
    for name, (value, unit) in named.items():
        print(f"  {name:<24} {value:>14.6g} {unit}")
    print(f"digest {report['digest']}")
    for err in report["errors"][:20]:
        print(f"error: {err}")
    if args.trace == 1:
        layers = _per_layer(report)
        print(f"per-layer, per traced {cls.unit} (counts computed from shapes):")
        for name, (value, unit) in layers.items():
            print(f"  {name:<48} {value:>14.6g} {unit}")
        out_metrics = layers
    else:
        out_metrics = metrics
    correct = report["failed"] == 0
    result = {
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in out_metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
