"""
Benchmark of the pltt CLI pipeline.

    python3 perfbench/run.py --workload pc_scan --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Run from the root of a source checkout: the program is imported from
``src/`` there, never from an installed copy. One process runs one
workload (``all`` starts one child process per workload, one after the
other). The run sets up, then repeats passes of the workload until
``--seconds`` have gone by, checks every pass's outputs, prints every
metric with its unit and sample count, and ends with one JSON line:
end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``. A traced run alternates traced and untraced passes; the
difference of their medians is ``trace.overhead_s``.

BLAS is pinned to one thread through the program's documented
``PLTT_NUM_THREADS``.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")

WORKLOAD_NAMES = ("pc_scan", "coax_maps", "learn_angles")
SETUP_REPEATS = 3
MIN_PASSES = 3

# End-to-end metrics in BENCHMARK.json: every workload reports them and
# none can be 0. The others are printed and kept in the result file.
END_TO_END = ("setup_s", "pipeline_s", "peak_rss_mb")
WORKLOAD_METRICS = ("cmd.capture_s", "cmd.reconstruct_s", "cmd.decompose_s", "cmd.pca_s",
                    "fail_frac", "recon_rmse", "heldout_ratio")

# name -> (unit, source): a span name with a field of Tracer.pass_metrics,
# or a value the output checks computed.
PER_LAYER = {
    "cli.reconstruct.self_s": ("s", ("cli.cmd_reconstruct", "self_s")),
    "cli.decompose.self_s": ("s", ("cli.cmd_decompose", "self_s")),
    "cli.bytes_written": ("B", "bytes_written"),
    "scene.build_transport_s": ("s", ("scene.build_transport", "s")),
    "scene.generate_ensemble_s": ("s", ("scene.generate_ensemble", "s")),
    "tensor.probe_s": ("s", ("tensor.probe", "s")),
    "ellipsometry.capture_s": ("s", ("ellipsometry.capture", "s")),
    "ellipsometry.reconstruct_s": ("s", ("ellipsometry.reconstruct", "s")),
    "ellipsometry.design_matrix_s": ("s", ("ellipsometry.design_matrix", "s")),
    "ellipsometry.design_matrix_calls": ("count", ("ellipsometry.design_matrix", "calls")),
    "ellipsometry.pinv_truncated_calls": ("count", ("ellipsometry.pinv_truncated", "calls")),
    "learning.loss_s": ("s", ("learning.loss", "s")),
    "learning.loss_calls": ("count", ("learning.loss", "calls")),
    "learning.grad_loss_s": ("s", ("learning.grad_loss", "s")),
    "learning.grad_loss_calls": ("count", ("learning.grad_loss", "calls")),
    "learning.evaluate_s": ("s", ("learning.evaluate", "s")),
    "learning.learn.self_s": ("s", ("learning.learn", "self_s")),
    "decomposition.decompose_tensor_s": ("s", ("decomposition.decompose_tensor", "s")),
    "decomposition.blocks_attempted": ("count", "blocks_attempted"),
    "decomposition.lit_frac": ("ratio", "lit_frac"),
    "analysis.pca_s": ("s", ("analysis.pca", "s")),
    "analysis.pca_rows": ("count", "pca_rows"),
    "analysis.fit_descatter_s": ("s", ("analysis.fit_descatter", "s")),
    "analysis.summed_polarimetric_image_s": ("s", ("analysis.summed_polarimetric_image", "s")),
    "fileio.write_pltt_s": ("s", ("fileio.write_pltt", "s")),
    "fileio.read_pltt_s": ("s", ("fileio.read_pltt", "s")),
    "fileio.bytes_written": ("B", (("fileio.write_pltt", "fileio.write_pgm",
                                    "fileio.write_csv_grid"), "bytes")),
    "fileio.bytes_read": ("B", ("fileio.read_pltt", "bytes")),
    "fileio.export_s": ("s", (("fileio.write_pgm", "fileio.write_csv_grid"), "s")),
    "trace.overhead_s": ("s", None),
}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _pin_threads():
    """Leave PLTT_NUM_THREADS as the only thread setting, before numpy loads.

    One BLAS thread, which is within nproc on any machine: on a 2-CPU
    virtual machine, two threads left the pass times more spread (a pass
    waits for whichever CPU the host slows) and were no faster.
    """
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ.pop(var, None)
    os.environ["PLTT_NUM_THREADS"] = "1"


def _import_program():
    """Import pltt from this checkout's src/; returns the import time."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "pltt", "__init__.py")):
        raise SystemExit("error: no pltt sources under %s" % src)
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import pltt.cli  # noqa: F401

    elapsed = time.perf_counter() - t0
    if not os.path.abspath(pltt.cli.__file__).startswith(src + os.sep):
        raise SystemExit("error: pltt was imported from %s" % pltt.cli.__file__)
    return elapsed


def environment(args):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": "%s %s" % (blas.get("name", "?"), blas.get("version", "?")),
        "PLTT_NUM_THREADS": os.environ.get("PLTT_NUM_THREADS"),
    }


def _dir_bytes(path):
    return sum(os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(path) for f in files)


class Runner:
    """Runs passes of one workload and keeps what they measured."""

    def __init__(self, workload, seed, work_dir, tracer):
        from pltt.cli import main

        self.main = main
        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir
        self.tracer = tracer
        self.attempted = 0
        self.failures = []           # (pass label, step, message)
        self.passes = []             # dicts of what each measured pass gave

    def run_pass(self, stage, index, traced):
        import numpy as np

        from workloads import Pass, StepFailed

        label = "%s%d" % (stage, index)
        p = Pass(os.path.join(self.work_dir, label + "-in"), os.path.join(self.work_dir, label))
        os.makedirs(p.in_dir)
        os.makedirs(p.out_dir)
        rng = np.random.default_rng([self.seed, 0 if stage == "warmup" else 1, index])
        t0 = time.perf_counter()
        self.workload.make_inputs(rng, p)
        steps = self.workload.steps(p)
        record = {"traced": traced, "steps": {}, "values": {}, "inputs_s": time.perf_counter() - t0}
        failed = set()
        if traced:
            self.tracer.pass_id = len(self.passes)
            self.tracer.install()
        t0 = time.perf_counter()
        try:
            for step, argv in steps:
                out, err = io.StringIO(), io.StringIO()
                s0 = time.perf_counter()
                try:
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        code = self.main(argv)
                except Exception:
                    code, err = "exception", io.StringIO(traceback.format_exc())
                record["steps"][step] = time.perf_counter() - s0
                manifest = argv[argv.index("--out") + 1] + ".manifest.json"
                if code != 0 or not os.path.exists(manifest):
                    failed.add(step)
                    self.failures.append((label, step, "exit %s: %s" % (code, err.getvalue().strip())))
        finally:
            record["pipeline_s"] = time.perf_counter() - t0
            if traced:
                self.tracer.uninstall()
        self.attempted += len(steps)
        record["values"]["bytes_written"] = _dir_bytes(p.out_dir)
        for step, check in self.workload.checks(p, record["values"]):
            if step in failed:
                continue
            try:
                check()
            except StepFailed as exc:
                failed.add(step)
                self.failures.append((label, step, "check: %s" % exc))
            except Exception:
                failed.add(step)
                self.failures.append((label, step, "check: " + traceback.format_exc()))
        shutil.rmtree(p.in_dir)
        shutil.rmtree(p.out_dir)
        return record


def _median(values):
    return statistics.median(values) if values else None


def summarize(runner, setup, import_s, trace):
    """Every metric as name -> {"value", "unit", "n"}; medians over passes."""
    passes = runner.passes
    untraced = [r for r in passes if not r["traced"]]
    metrics = {}

    def put(name, unit, values):
        values = [v for v in values if v is not None]
        if values:
            metrics[name] = {"value": _median(values), "unit": unit, "n": len(values)}

    put("setup_s", "s", [import_s + s for s in setup])
    put("pipeline_s", "s", [r["pipeline_s"] for r in untraced])
    for step in ("capture", "reconstruct", "decompose", "pca"):
        put("cmd.%s_s" % step, "s", [r["steps"].get(step) for r in untraced])
    metrics["peak_rss_mb"] = {
        "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "unit": "MB", "n": 1}
    metrics["fail_frac"] = {"value": len(runner.failures) / max(1, runner.attempted),
                            "unit": "ratio", "n": runner.attempted}
    put("recon_rmse", "1", [r["values"].get("recon_rmse") for r in untraced])
    put("heldout_ratio", "ratio", [r["values"].get("heldout_ratio") for r in untraced])
    if not trace:
        return metrics

    traced = [(i, r) for i, r in enumerate(passes) if r["traced"]]
    totals = runner.tracer.pass_metrics()
    for name, (unit, source) in PER_LAYER.items():
        if source is None:
            continue
        per_pass = []
        for i, r in traced:
            if isinstance(source, str):
                per_pass.append(r["values"].get(source, 0))
                continue
            names, field = source
            names = (names,) if isinstance(names, str) else names
            per_pass.append(sum(totals.get(i, {}).get(n, {}).get(field, 0) for n in names))
        put(name, unit, per_pass)
    traced_s = _median([r["pipeline_s"] for _, r in traced])
    metrics["trace.overhead_s"] = {"value": traced_s - metrics["pipeline_s"]["value"],
                                   "unit": "s", "n": len(traced)}
    return metrics


def run_workload(args):
    _pin_threads()
    import_s = _import_program()
    sys.path.insert(0, HERE)
    from spans import Tracer
    from workloads import WORKLOADS

    env = environment(args)
    print("env " + json.dumps(env, sort_keys=True))
    work_dir = os.path.join(OUT, "work-%s-%d" % (args.workload, os.getpid()))
    runner = Runner(WORKLOADS[args.workload], args.seed, work_dir, Tracer())
    try:
        setup = []
        for rep in range(SETUP_REPEATS):
            record = runner.run_pass("warmup", rep, traced=False)
            setup.append(record["inputs_s"] + record["pipeline_s"])
        min_passes = MIN_PASSES + args.trace
        t0 = time.perf_counter()
        while len(runner.passes) < min_passes or time.perf_counter() - t0 < args.seconds:
            traced = bool(args.trace) and len(runner.passes) % 2 == 0
            runner.passes.append(runner.run_pass("pass", len(runner.passes), traced))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    metrics = summarize(runner, setup, import_s, args.trace)
    for label, step, message in runner.failures:
        print("FAILED %s %s: %s" % (label, step, message), file=sys.stderr)
    for name, m in metrics.items():
        print("metric %-40s %14.6g %-6s n=%d" % (name, m["value"], m["unit"], m["n"]))
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    with open(os.path.join(OUT, tag + ".json"), "w") as fh:
        json.dump({"env": env, "metrics": metrics, "failures": runner.failures,
                   "setup_s": setup, "import_s": import_s,
                   "passes": [{k: r[k] for k in ("traced", "pipeline_s", "steps")}
                              for r in runner.passes]}, fh, indent=1)
    if args.trace:
        runner.tracer.dump(os.path.join(OUT, tag + "-spans.jsonl"))
    names = list(PER_LAYER) if args.trace else END_TO_END
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {n: {"value": metrics[n]["value"], "unit": metrics[n]["unit"]} for n in names},
    }
    print(json.dumps(result))
    return 0


def run_all(args):
    """Each workload in its own process, then one table of every metric."""
    codes = []
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        codes.append(subprocess.run(cmd, cwd=ROOT).returncode)
    if any(codes):
        return 1
    table = {}
    for name in WORKLOAD_NAMES:
        with open(os.path.join(OUT, "%s-seed%d-trace%d.json" % (name, args.seed, args.trace))) as fh:
            table[name] = json.load(fh)["metrics"]
    order = END_TO_END + WORKLOAD_METRICS + (tuple(PER_LAYER) if args.trace else ())
    print("\n%-38s %-6s" % ("metric", "unit") + "".join("%24s" % w for w in WORKLOAD_NAMES))
    for metric in order:
        cells, unit = [], ""
        for w in WORKLOAD_NAMES:
            m = table[w].get(metric)
            if m is None:
                cells.append("%24s" % "-")
            else:
                unit = m["unit"]
                cells.append("%24s" % ("%.6g (n=%d)" % (m["value"], m["n"])))
        print("%-38s %-6s" % (metric, unit) + "".join(cells))
    return 0


def main(argv=None):
    args = _parse_args(argv)
    os.makedirs(OUT, exist_ok=True)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
