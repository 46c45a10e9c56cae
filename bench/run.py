"""The s2r2 benchmark: closed-loop CLI workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of an s2r2 checkout; it imports the program from
``./src``.  One client runs a closed loop: it starts a fresh Python
process that calls one ``s2r2`` verb in-process through
``s2r2.cli.main``, waits for it, checks its outputs and starts the next,
until ``--seconds`` of calls are done (at least ``MIN_CALLS``).  Every
input is generated from ``--seed``.  BLAS runs on ``BLAS_THREADS``
thread(s).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced calls and reports per-layer time and call counts from
the traced ones, plus the tracing overhead.  Human-readable lines come
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Per-call data,
the environment and any spans are written to ``bench_out/``.

See bench/README.md for the workloads, the metric definitions, and which
end-to-end metric each layer should move.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "child.py")
OUT_DIR = os.path.join(ROOT, "bench_out")

MIN_CALLS = 3
DEADLINE_S = 170.0  # the whole run, set-up included, must end within 180 s
BLAS_THREADS = 1  # <= nproc on any machine; more threads were slower and noisier on 2 cores
REFERENCE_TOL = 1e-9

IMAGES = {"classes": 10, "per_class": 40, "side": 24}
IMAGES_CONFIG = """\
[dataset]
kind = images
path = {bundle}

[augmentation]
output_height = 16
output_width = 16

[run]
loss = infonce
steps = 50
eval_every = 25
"""
LARGE_CONFIG = """\
[dataset]
num_classes = 20
samples_per_class = 500
cluster_spread = 1.5
train_fraction = 0.6

[run]
steps = 10
eval_every = 10
"""

# steps/B/K/classes restate the configs above and the program's defaults;
# the checks fail if a run does not match them.
WORKLOADS = {
    "train_default": {"verb": "train", "config": None, "steps": 200, "B": 16, "K": 8,
                      "classes": 10},
    "train_images_infonce": {"verb": "train", "config": IMAGES_CONFIG, "steps": 50, "B": 16,
                             "K": 8, "classes": IMAGES["classes"]},
    "eval_large": {"verb": "eval", "config": LARGE_CONFIG, "classes": 20},
}
SETUP_MARKERS = {"train": ["experiment", "sample_batch"], "eval": ["cli", "extract_features"]}

# Layers reported by the traced run, as <layer>.ms and <layer>.calls.
LAYERS = [
    "ranking.batch_smooth_ap_loss",
    "ranking.exact_ap.diagnostic",
    "ranking.exact_ap.retrieval",
    "probe.retrieval_map",
    "probe.train_linear_probe",
    "probe.extract_features",
    "views.sample_batch",
    "views.eval_view_dataset",
    "data.load_binary_images",
    "data.generate_synthetic",
    "data.split",
    "encoder.init_params",
    "encoder.forward",
    "encoder.backward",
    "encoder.adam_step",
    "similarity.cosine_similarity_matrix",
    "similarity.backprop_similarity",
    "contrastive.info_nce_loss",
    "encoder.save_checkpoint",
    "encoder.load_checkpoint",
]
DETERMINISTIC_FIELDS = ("step", "train_loss", "mean_batch_ap", "probe_top1", "retrieval_map")


def fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


class Runner:
    """Starts child processes under one deadline and collects their results."""

    def __init__(self, work: str, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(BLAS_THREADS)
        self.count = 0

    def child(self, mode: str, spec: dict):
        """Run one child to completion; return (result or None, error text)."""
        self.count += 1
        spec_path = os.path.join(self.work, f"{mode}{self.count}.spec.json")
        result_path = os.path.join(self.work, f"{mode}{self.count}.result.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        try:
            proc = subprocess.run(
                [sys.executable, CHILD, mode, spec_path, result_path],
                env=self.env, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True, timeout=max(1.0, self.deadline - time.monotonic()),
            )
        except subprocess.TimeoutExpired:  # run() has killed and reaped the child
            return None, f"{mode} timed out"
        if proc.returncode != 0:
            return None, f"{mode} exited {proc.returncode}: {proc.stderr.strip()[-1500:]}"
        with open(result_path, encoding="utf-8") as fh:
            return json.load(fh), ""


def prepare(workload: str, seed: int, runner: Runner) -> tuple[dict, list[str]]:
    """Write the workload's inputs; return the prep result and the verb's argv."""
    w = WORKLOADS[workload]
    work = runner.work
    spec = {"src": SRC, "seed": seed}
    config = None
    if w["config"] is not None:
        config = os.path.join(work, "workload.ini")
        bundle = os.path.join(work, "images.bin")
        with open(config, "w", encoding="utf-8") as fh:
            fh.write(w["config"].format(bundle=bundle))
        if "{bundle}" in w["config"]:
            spec["images"] = dict(IMAGES, path=bundle)
    argv = [w["verb"]] + (["--config", config] if config else []) + ["--seed", str(seed)]
    if w["verb"] == "eval":
        checkpoint = os.path.join(work, "checkpoint_run", "checkpoint.bin")
        spec["checkpoint"] = {
            "train_argv": ["train", "--config", config, "--seed", str(seed),
                           "--out", os.path.dirname(checkpoint)],
            "config": config, "seed": seed, "path": checkpoint,
        }
        argv += ["--checkpoint", checkpoint]
    prep, error = runner.child("prep", spec)
    if prep is None:
        fail(f"could not prepare {workload}: {error}")
    return prep, argv


def read_outputs(verb: str, out: str) -> dict:
    """The artifacts a call left: metrics.jsonl records (train) or eval.json (eval)."""
    if verb == "train":
        with open(os.path.join(out, "metrics.jsonl"), encoding="utf-8") as fh:
            return {"records": [json.loads(line) for line in fh if line.strip()]}
    with open(os.path.join(out, "eval.json"), encoding="utf-8") as fh:
        return {"report": json.load(fh)}


def check_call(workload: str, call: dict, prep: dict) -> list[str]:
    """Checks on one call's own outputs; returns the failures."""
    w = WORKLOADS[workload]
    chance = 1.0 / w["classes"]
    problems = []
    if w["verb"] == "train":
        records = call["outputs"]["records"]
        if [r["step"] for r in records] != list(range(1, w["steps"] + 1)):
            problems.append(f"metrics.jsonl does not hold steps 1..{w['steps']}")
        if not all(math.isfinite(r["train_loss"]) for r in records):
            problems.append("non-finite train_loss")
        evals = [r for r in records if r["probe_top1"] is not None]
        if not evals or not evals[-1]["probe_top1"] > chance:
            problems.append(f"final probe top-1 not above chance {chance:.3f}")
        return problems
    report = call["outputs"]["report"]
    if not report["probe_top1"] > chance:
        problems.append(f"probe top-1 {report['probe_top1']} not above chance {chance:.3f}")
    if abs(report["retrieval_map"] - prep["reference_retrieval_map"]) > REFERENCE_TOL:
        problems.append(f"retrieval_map {report['retrieval_map']!r} differs from the "
                        f"reference {prep['reference_retrieval_map']!r}")
    return problems


def deterministic_view(verb: str, outputs: dict):
    if verb == "train":
        return [[r[f] for f in DETERMINISTIC_FIELDS] for r in outputs["records"]]
    return {k: outputs["report"][k] for k in ("probe_top1", "retrieval_map", "n_train", "n_test")}


def run_loop(workload: str, argv: list[str], prep: dict, args, runner: Runner) -> list[dict]:
    """The closed loop: one call at a time until the measuring time is spent."""
    w = WORKLOADS[workload]
    calls: list[dict] = []
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        if len(calls) >= MIN_CALLS:
            typical = statistics.median(c["elapsed_s"] for c in calls)
            if elapsed + typical / 2 > args.seconds:  # end the run nearest to --seconds
                break
            if time.monotonic() + 2 * typical > runner.deadline:
                print("note: stopping early to stay within the time limit", file=sys.stderr)
                break
        traced = bool(args.trace) and len(calls) % 2 == 1
        out = os.path.join(runner.work, f"call{len(calls)}")
        spec = {"src": SRC, "argv": argv + ["--out", out], "trace": traced,
                "setup_marker": SETUP_MARKERS[w["verb"]]}
        t0 = time.monotonic()
        result, error = runner.child("call", spec)
        call = {"index": len(calls), "traced": traced, "elapsed_s": time.monotonic() - t0,
                "problems": []}
        if result is None:
            call["problems"].append(error)
        elif result["rc"] != 0:
            call["problems"].append(f"verb exited {result['rc']}: {result['output'][-500:]}")
        elif math.isnan(result["setup_s"]):
            call["problems"].append("the set-up marker was never called")
        else:
            call.update(result)
            try:
                call["outputs"] = read_outputs(w["verb"], out)
                call["problems"] += check_call(workload, call, prep)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                call.pop("outputs", None)
                call["problems"].append(f"unreadable outputs: {exc!r}")
        calls.append(call)
        shutil.rmtree(out, ignore_errors=True)
        if result is None and time.monotonic() >= runner.deadline:
            break
    check_repeats(w["verb"], calls)
    return calls


def check_repeats(verb: str, calls: list[dict]) -> None:
    """Every call of a run has the same seed, so its deterministic fields must match."""
    done = [c for c in calls if "outputs" in c]
    if not done:
        return
    first = deterministic_view(verb, done[0]["outputs"])
    for c in done[1:]:
        if deterministic_view(verb, c["outputs"]) != first:
            c["problems"].append(f"deterministic fields differ from call {done[0]['index']}")


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated as statistics.quantiles does."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(workload: str, calls: list[dict]) -> dict:
    w = WORKLOADS[workload]
    steps_ms, eval_ms, items_per_s = [], [], []
    for c in calls:
        if w["verb"] == "train":
            times = [r["wall_time_s"] for r in c["outputs"]["records"]]
            durations = [1000.0 * (b - a) for a, b in zip([0.0] + times, times)]
            c["step_ms"] = durations
            steps_ms += durations
            eval_ms += [d for d, r in zip(durations, c["outputs"]["records"])
                        if r["probe_top1"] is not None]
            items_per_s.append(w["steps"] * w["B"] * w["K"] / times[-1])
        else:
            # an eval call is a single step, and it is an evaluation step
            work_s = c["wall_s"] - (c["setup_s"] - c["import_s"])
            steps_ms.append(1000.0 * work_s)
            eval_ms.append(1000.0 * work_s)
            report = c["outputs"]["report"]
            items_per_s.append((report["n_train"] + report["n_test"]) / work_s)
    return {
        "wall_s": (statistics.median(c["wall_s"] for c in calls), "s"),
        "setup_s": (statistics.median(c["setup_s"] for c in calls), "s"),
        "peak_rss_mb": (statistics.median(c["peak_rss_mb"] for c in calls), "MB"),
        "items_per_s": (statistics.median(items_per_s), "1/s"),
        "step_ms_p50": (statistics.median(steps_ms), "ms"),
        "step_ms_p90": (percentile(steps_ms, 90), "ms"),
        "eval_step_ms_p50": (statistics.median(eval_ms), "ms"),
    }


def layer_table(spans: list[list]) -> tuple[dict, list[str]]:
    """Per span name: total ms, self ms and calls; plus any malformed spans."""
    total, own, count = defaultdict(float), defaultdict(float), defaultdict(int)
    problems = []
    for name, start, end, parent in spans:
        if end is None or end < start:
            problems.append(f"span {name} did not close")
            continue
        total[name] += 1000.0 * (end - start)
        own[name] += 1000.0 * (end - start)
        count[name] += 1
        if parent >= 0:
            own[spans[parent][0]] -= 1000.0 * (end - start)
    return {n: {"ms": total[n], "self_ms": own[n], "calls": count[n]} for n in total}, problems


def per_layer(workload: str, calls: list[dict]) -> dict:
    w = WORKLOADS[workload]
    traced = [c for c in calls if c["traced"]]
    untraced = [c for c in calls if not c["traced"]]
    tables = []
    for c in traced:
        table, problems = layer_table(c["spans"])
        c["layers"] = table
        c["problems"] += problems
        accounted = sum(row["self_ms"] for row in table.values())
        verb_ms = table.get("cli.main", {}).get("ms", 0.0)
        if not abs(accounted - verb_ms) <= 1e-6 * verb_ms:
            c["problems"].append("layer self times do not add up to the verb's time")
        tables.append(table)

    def med(name: str, field: str) -> float:
        return statistics.median(t.get(name, {}).get(field, 0) for t in tables)

    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.ms"] = (med(layer, "ms"), "ms")
        metrics[f"{layer}.calls"] = (med(layer, "calls"), "count")
    views = med("views.sample_batch", "calls") * w.get("B", 0) * w.get("K", 0)
    metrics["views.sample_batch.ms_per_view"] = (
        med("views.sample_batch", "ms") / views if views else 0.0, "ms")
    metrics["probe.retrieval_map.self_ms"] = (med("probe.retrieval_map", "self_ms"), "ms")
    metrics["experiment.self.ms"] = (statistics.median(
        sum(row["self_ms"] for n, row in t.items() if n.startswith("experiment.")) for t in tables
    ), "ms")
    metrics["cli.self.ms"] = (med("cli.main", "self_ms"), "ms")
    traced_ms = 1000.0 * statistics.median(c["wall_s"] for c in traced)
    metrics["trace.verb_ms"] = (traced_ms, "ms")
    metrics["trace.overhead_ms"] = (
        traced_ms - 1000.0 * statistics.median(c["wall_s"] for c in untraced), "ms")
    return metrics


def main(argv=None) -> int:
    began = time.monotonic()
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "s2r2", "cli.py")):
        fail(f"no s2r2 source under {SRC}; run from the root of an s2r2 checkout")
    load_at_start = os.getloadavg()
    work = os.path.join(OUT_DIR, f"work-{args.workload}-seed{args.seed}-{os.getpid()}")
    os.makedirs(work)
    runner = Runner(work, began + DEADLINE_S)
    try:
        prep, argv = prepare(args.workload, args.seed, runner)
        calls = run_loop(args.workload, argv, prep, args, runner)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # a call that completed but failed a check is still timed; it counts in `failed`
    measured = [c for c in calls if "outputs" in c]
    needed = ("traced", "untraced") if args.trace else ("untraced",)
    for kind in needed:
        if not any((c["traced"] == (kind == "traced")) for c in measured):
            for c in calls:
                for p in c["problems"]:
                    print(f"call {c['index']}: {p}", file=sys.stderr)
            fail(f"no {kind} call completed, so there is nothing to report")
    metrics = per_layer(args.workload, measured) if args.trace else end_to_end(args.workload, measured)
    failed = [c for c in calls if c["problems"]]  # per_layer may add trace problems

    env = dict(prep["env"], load_average_at_start=load_at_start, blas_threads=BLAS_THREADS)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env,
              "reference_retrieval_map": prep.get("reference_retrieval_map"),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "calls": [{k: v for k, v in c.items() if k != "outputs"} for c in calls]}
    record_path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)

    for c in failed:
        for p in c["problems"]:
            print(f"call {c['index']} failed: {p}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}: closed loop, 1 client, "
          f"{len(calls)} calls ({sum(c['traced'] for c in calls)} traced) "
          f"in {sum(c['elapsed_s'] for c in calls):.1f} s")
    print("env " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    if not args.trace:
        alias = "train_views_per_s" if WORKLOADS[args.workload]["verb"] == "train" \
            else "eval_samples_per_s"
        print(f"{alias} {metrics['items_per_s'][0]:.6g} 1/s (= items_per_s)")
    print(f"ops_failed_ratio {len(failed) / len(calls):.6g} ratio")
    print(f"record {os.path.relpath(record_path, ROOT)}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(calls),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
