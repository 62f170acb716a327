"""Benchmark of evalcodes: the `paper`, `sweep` and `classify` workloads.

Run from the repository root:

    python3 perfbench/run.py --workload paper --seed 1 --seconds 30 --trace 0

`--workload all` runs the three in turn, each in a fresh child process of
its own, so that no workload's memory peak or warm caches reach the next
one.  With `--trace 0` a run measures
the end-to-end metrics: `setup_s` (median of three fresh interpreters, each
timed from spawn until its set-up is done), `wall_s` (median time of one pass
over the workload's jobs; passes repeat while they fit in `--seconds`) and
`peak_rss_mb`.  With `--trace 1` it runs one untraced pass and one traced
pass, and reports the per-layer metrics of `tracer.PER_LAYER_METRICS` from
the spans of the set-up and the traced pass; `trace.overhead` is traced over
untraced pass time.

Every job's output is checked (see workloads.py) and compared byte for byte
with the same job's output in the other passes of the run and in earlier
runs of this checkout with the same seed and the same source files.  A job
that raises, fails a check or differs counts as failed; the run goes on.
The last line of standard output is the JSON result; spans, outputs and the
environment record go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

# Pin BLAS to one thread before numpy is imported (workers=1 throughout).
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 3
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def _import_program():
    """Put the checkout's src/ first on the path; fail if evalcodes is not there."""
    src = ROOT / "src"
    if not (src / "evalcodes" / "__init__.py").is_file():
        raise SystemExit(f"error: no evalcodes package under {src}")
    sys.path.insert(0, str(src))
    import evalcodes

    if Path(evalcodes.__file__).resolve().parent != (src / "evalcodes").resolve():
        raise SystemExit(f"error: evalcodes imported from {evalcodes.__file__}, not {src}")


def check_spec():
    """Fail unless BENCHMARK.json lists exactly the metrics this run reports."""
    import tracer

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key, reported in (("end_to_end", END_TO_END), ("per_layer", tracer.PER_LAYER_METRICS)):
        if [(m["name"], m["unit"]) for m in spec[key]] != list(reported):
            raise SystemExit(f"error: BENCHMARK.json {key} differs from the metrics run.py reports")


def environment() -> dict:
    import numpy as np

    env = {
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
    }
    try:
        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{cfg.get('name')} {cfg.get('version')}"
    except (TypeError, KeyError):
        env["blas"] = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                env["cpu"] = line.split(":", 1)[1].strip()
                break
    caches = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(caches.glob("index*")):
        with contextlib.suppress(OSError):
            level = (idx / "level").read_text().strip()
            if level in ("2", "3"):
                env[f"l{level}"] = (idx / "size").read_text().strip()
    env["git_commit"] = "none"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            env["git_commit"] = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            ).stdout.strip() or "none"
    env["source_sha256"] = source_digest()
    return env


def source_digest() -> str:
    """SHA-256 over the program's and the benchmark's source files."""
    digest = hashlib.sha256()
    for f in sorted([*(ROOT / "src").rglob("*.py"), *HERE.glob("*.py")]):
        digest.update(f.relative_to(ROOT).as_posix().encode() + b"\0" + f.read_bytes())
    return digest.hexdigest()


def setup_probe(workload: str, seed: int):
    """Child process: set up, then say so on stdout."""
    import workloads

    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        workloads.WORKLOADS[workload][0](seed, Path(tmp))
        print("ready", flush=True)


def measure_setup(workload: str, seed: int) -> list[float]:
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--probe", "--workload", workload,
             "--seed", str(seed)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        ) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - start
            child.stdout.read()
        if child.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed with code {child.returncode}")
        times.append(elapsed)
    return times


class Run:
    """One workload in one process: passes of jobs, their outputs and failures."""

    def __init__(self, workload: str, seed: int, tmp: Path):
        import workloads

        self.workload, self.seed = workload, seed
        self.setup_fn, self.inputs_fn, self.jobs_fn = workloads.WORKLOADS[workload]
        self.tmp = tmp
        self.ctx = None
        self.jobs = []
        self.outputs: dict[str, list[str | None]] = {}
        self.job_times: dict[str, list[float]] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def setup(self):
        self.ctx = self.setup_fn(self.seed, self.tmp)

    def make_inputs(self):
        """Generate the seed's inputs (untimed, untraced) and the job list."""
        self.ctx.update(self.inputs_fn(self.seed))
        self.jobs = self.jobs_fn(self.ctx)

    def run_pass(self, label: str, tracer=None) -> float:
        start = time.perf_counter()
        for job_id, run, _ in self.jobs:
            if tracer is not None:
                tracer.job = f"{label}/{job_id}"
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stderr(io.StringIO()):
                    text = run()
            except Exception:  # a failing job is recorded and the run goes on
                text = None
                self.failures.append(f"{label}/{job_id} raised:\n{traceback.format_exc()}")
            self.job_times.setdefault(job_id, []).append(time.perf_counter() - t0)
            self.outputs.setdefault(job_id, []).append(text)
        return time.perf_counter() - start

    def check(self) -> int:
        """Check every output; returns the number of failed job executions."""
        failed = sum(1 for outs in self.outputs.values() for t in outs if t is None)
        digests = OUT / "digests" / f"{self.workload}-seed{self.seed}-{source_digest()[:16]}.json"
        known = json.loads(digests.read_text()) if digests.exists() else {}
        for job_id, _, check in self.jobs:
            outs = [t for t in self.outputs[job_id] if t is not None]
            if not outs:
                continue
            try:
                problems = check(outs[0], self.ctx)
            except Exception:
                problems = [f"check raised:\n{traceback.format_exc()}"]
            sha = hashlib.sha256(outs[0].encode()).hexdigest()
            if known.get(job_id, sha) != sha:
                problems.append("output differs from an earlier run with this seed")
            differing = sum(1 for t in outs[1:] if t != outs[0])
            if differing:
                problems.append("output differs between passes of this run")
            if problems:
                failed += len(outs)
                self.failures += [f"{job_id}: {p}" for p in problems]
                continue
            known[job_id] = sha
            (OUT / f"{self.workload}-seed{self.seed}-{job_id}.out").write_text(outs[0])
        digests.parent.mkdir(exist_ok=True)
        digests.write_text(json.dumps(known, indent=1, sort_keys=True))
        return failed


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import tracer as tracing

    OUT.mkdir(exist_ok=True)
    setup_times = [] if trace else measure_setup(workload, seed)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        run = Run(workload, seed, Path(tmp))
        if trace:
            tr = tracing.Tracer()
            tr.job = "setup"
            tr.install()
            try:
                run.setup()
            finally:
                tr.uninstall()
            run.make_inputs()
            untraced = run.run_pass("untraced")
            tr.install()
            try:
                traced = run.run_pass("traced", tr)
            finally:
                tr.uninstall()
            passes = [untraced]
        else:
            run.setup()
            run.make_inputs()
            passes = [run.run_pass("pass1")]
            while sum(passes) + statistics.median(passes) <= seconds:
                passes.append(run.run_pass(f"pass{len(passes) + 1}"))
        failed = run.check()

    if trace:
        tr.write_jsonl(OUT / f"spans-{workload}-seed{seed}.jsonl")
        values = tracing.layer_metrics(tr, untraced, traced)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in tracing.PER_LAYER_METRICS}
    else:
        values = {
            "wall_s": statistics.median(passes),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    env = environment()
    print("env " + json.dumps(env, sort_keys=True), file=sys.stderr)
    record = {
        "workload": workload, "seed": seed, "trace": trace, "env": env,
        "passes_s": passes, "setup_runs_s": setup_times,
        "job_s": {j: statistics.median(t) for j, t in run.job_times.items()},
        "failures": run.failures, "metrics": metrics,
    }
    (OUT / f"result-{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))
    for msg in run.failures:
        print(f"FAILED {msg}", file=sys.stderr)
    return {"correct": failed == 0, "attempted": run.attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["paper", "sweep", "classify", "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    _import_program()
    sys.path.insert(0, str(HERE))
    check_spec()
    if args.probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.workload != "all":
        print(json.dumps(run_workload(args.workload, args.seed, args.seconds, bool(args.trace))))
        return 0
    results = {}
    for name in ("paper", "sweep", "classify"):
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        if child.returncode != 0:
            raise SystemExit(f"error: workload {name} exited with code {child.returncode}")
        results[name] = json.loads(child.stdout.splitlines()[-1])
        print(json.dumps({"workload": name, **results[name]}))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
