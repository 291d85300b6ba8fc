"""The evoalg benchmark: timed CLI workloads with an answer checker.

    python3 perfbench/run.py [--workload aut|iso|census|verify|all]
                             [--seed N] [--trace 0|1]
    python3 perfbench/run.py --record-reference

One driver process runs a workload's jobs in a closed loop with one client:
each job is a fresh ``python3 perfbench/job.py RSS_FILE -- <evoalg argv>``
process, started only when the previous one has ended. ``src/evoalg`` is
byte-compiled once, untimed. Set-up then builds the workload's input files
from the seed with ``evoalg make`` jobs; a workload that reads no input files
has one cold start of the CLI (a fresh process importing ``evoalg.cli``)
instead. Set-up runs at least five times and for at least two seconds;
``setup_s`` is the median. Passes over the job list then repeat until
``run_seconds`` of BENCHMARK.json have passed (at least one pass). The run
length is fixed there: ``--seconds`` is accepted, as benchmark drivers pass
it, but only with that value.

End-to-end metrics, with tracing off: ``wall_s`` (median pass wall time),
``setup_s`` and ``peak_rss_mb`` (median over passes of the highest peak RSS of
any one job). ``fail_frac`` is printed and carried by the ``attempted`` and
``failed`` fields of the result line. With ``--trace 1`` the same passes run
untraced, then one set-up and one pass run traced, and the per-layer metrics
come from the traced pass.

Every job's stdout is checked against closed-form answers (``checks.py``)
and its sha256 compared with ``reference.json``; a changed hash is flagged
but is not a failure. ``--record-reference`` rewrites that file from a run
of every input variant. Each run writes a result file with provenance to
``perfbench/results/``. The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

from checks import check_pass
from tracing import Aggregate
from workloads import VARIANTS, WHY, plan_for

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC_PACKAGE = os.path.join(ROOT, "src", "evoalg")
WORK = os.path.join(HERE, ".work")
RESULTS = os.path.join(HERE, "results")
REFERENCE = os.path.join(HERE, "reference.json")
WORKLOADS = ("aut", "iso", "census", "verify")
# set-up repeats at least this often and for at least this long, so the
# median of a short set-up still covers a few seconds of machine noise
SETUP_REPEATS = 5
SETUP_MIN_S = 2.0
JOB_CPU_LIMIT_S = 150
JOB_MEMORY_LIMIT = 4 << 30


@dataclass
class JobResult:
    rc: int
    stdout: bytes
    wall_s: float
    peak_rss_mb: float | None  # None if the job died before reporting it


@dataclass
class Pass:
    wall_s: float
    results: list
    problems: list

    @property
    def peak_rss_mb(self) -> float | None:
        reported = [r.peak_rss_mb for r in self.results if r.peak_rss_mb is not None]
        return max(reported, default=None)


def _limit_child() -> None:
    resource.setrlimit(resource.RLIMIT_CPU, (JOB_CPU_LIMIT_S, JOB_CPU_LIMIT_S))
    resource.setrlimit(resource.RLIMIT_AS, (JOB_MEMORY_LIMIT, JOB_MEMORY_LIMIT))


def run_job(argv, cwd: str, trace_path: str | None = None) -> JobResult:
    """Run one job in a fresh process and wait for it. The job reports its
    own peak RSS (see job.py); a job killed before it could has none."""
    out_path = os.path.join(cwd, ".stdout")
    rss_path = os.path.join(cwd, ".peak_rss")
    if os.path.exists(rss_path):
        os.remove(rss_path)
    cmd = [sys.executable, os.path.join(HERE, "job.py"), rss_path]
    if trace_path is not None:
        cmd += ["--trace", trace_path]
    cmd += ["--", *argv]
    with open(out_path, "wb") as out, open(os.path.join(cwd, ".stderr"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL, preexec_fn=_limit_child)
        rc = proc.wait()
        wall = time.perf_counter() - start
    with open(out_path, "rb") as fh:
        stdout = fh.read()
    try:
        with open(rss_path, "r", encoding="ascii") as fh:
            peak_rss_mb = int(fh.read()) / 1024
    except (OSError, ValueError):
        peak_rss_mb = None
    return JobResult(rc, stdout, wall, peak_rss_mb)


# ---------------------------------------------------------------------------
# set-up and passes


def set_up(plan, workdir: str, trace_dir: str | None = None) -> tuple[float, str]:
    """Build the input files; returns the time taken and a digest of the
    inputs, so repeated set-ups can be compared."""
    start = time.perf_counter()
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    for i, argv in enumerate(plan.makes):
        trace_path = None if trace_dir is None else os.path.join(trace_dir, f"make{i}.spans")
        res = run_job(argv, workdir, trace_path)
        if res.rc != 0:
            raise RuntimeError(f"set-up job {' '.join(argv)} exited {res.rc}")
    for build in plan.derived:
        build(workdir)
    elapsed = time.perf_counter() - start
    digest = hashlib.sha256()
    for name in sorted(os.listdir(workdir)):
        if name.endswith(".json"):
            with open(os.path.join(workdir, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return elapsed, digest.hexdigest()


def run_pass(jobs, workdir: str, trace_dir: str | None = None) -> Pass:
    results = []
    start = time.perf_counter()
    for i, job in enumerate(jobs):
        trace_path = None if trace_dir is None else os.path.join(trace_dir, f"job{i}.spans")
        results.append(run_job(job.argv, workdir, trace_path))
    wall = time.perf_counter() - start
    return Pass(wall, results, check_pass(jobs, results, workdir))


def aggregate(trace_dir: str, stems: list[str]) -> Aggregate:
    agg = Aggregate()
    for stem in stems:
        agg.add_file(os.path.join(trace_dir, stem + ".spans"))
    return agg


def timed_passes(jobs, workdir: str, seconds: float) -> list[Pass]:
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(run_pass(jobs, workdir))
    return passes


# ---------------------------------------------------------------------------
# stdout reference


def load_reference() -> dict:
    try:
        with open(REFERENCE, "r", encoding="utf-8") as fh:
            return json.load(fh)["jobs"]
    except FileNotFoundError:
        return {}


def reference_sha(reference: dict, label: str, variant: int):
    entry = reference.get(label)
    return entry[variant] if isinstance(entry, list) else entry


def stdout_changes(jobs, one_pass: Pass, reference: dict, variant: int) -> list[str]:
    changed = []
    for job, res in zip(jobs, one_pass.results):
        if hashlib.sha256(res.stdout).hexdigest() != reference_sha(reference, job.label, variant):
            changed.append(job.label)
    return changed


def record_reference() -> int:
    """Run every workload on every input variant and store the stdout
    sha256 of each job; a job whose inputs do not depend on the seed is
    stored once. Refuses to record a wrong answer."""
    jobs_out: dict = {}
    for workload in WORKLOADS:
        for variant in range(VARIANTS):
            plan = plan_for(workload, variant)
            jobs = [j for j in plan.jobs if j.seeded or variant == 0]
            if not jobs:
                continue
            workdir = os.path.join(WORK, workload)
            set_up(plan, workdir)
            one_pass = run_pass(jobs, workdir)
            for job, res, problems in zip(jobs, one_pass.results, one_pass.problems):
                if problems:
                    print(f"{job.label} variant {variant}: {problems}", file=sys.stderr)
                    return 1
                sha = hashlib.sha256(res.stdout).hexdigest()
                if job.seeded:
                    jobs_out.setdefault(job.label, [None] * VARIANTS)[variant] = sha
                else:
                    jobs_out[job.label] = sha
            print(f"recorded {workload} variant {variant}", file=sys.stderr)
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump({"variants": VARIANTS, "jobs": jobs_out}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


# ---------------------------------------------------------------------------
# reporting


def git_sha() -> str | None:
    """HEAD of the checkout, or None when it is not a git work tree."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def spread(values: list[float]) -> tuple[float, float, float]:
    """Median and first and third quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def pass_record(jobs, one_pass: Pass) -> dict:
    return {
        "wall_s": one_pass.wall_s,
        "jobs": [
            {"label": j.label, "rc": r.rc, "wall_s": r.wall_s,
             "peak_rss_mb": r.peak_rss_mb,
             "stdout_sha256": hashlib.sha256(r.stdout).hexdigest(),
             "problems": problems}
            for j, r, problems in zip(jobs, one_pass.results, one_pass.problems)
        ],
    }


def trace_workload(plan, workdir: str, trace_dir: str) -> tuple[Pass, dict]:
    """One traced set-up and one traced pass; returns the pass and the
    per-layer record: metrics of the pass (build_family from the set-up)
    and the spans with the most self time, overall and per job."""
    shutil.rmtree(trace_dir, ignore_errors=True)
    os.makedirs(trace_dir)
    set_up(plan, workdir, trace_dir)
    setup_layers = aggregate(trace_dir, [f"make{i}" for i in range(len(plan.makes))])
    traced_pass = run_pass(plan.jobs, workdir, trace_dir)
    stems = [f"job{i}" for i in range(len(plan.jobs))]
    layers = aggregate(trace_dir, stems)
    metrics = layers.metrics()
    for key in ("families.build_family.calls", "families.build_family.self_s"):
        metrics[key] = setup_layers.metrics()[key]
    record = {
        "metrics": metrics,
        "dominant": [
            {"name": n, "self_s": t, "caller": c, "caller_self_s": share}
            for n, t, c, share in layers.dominant()
        ],
        "dominant_per_job": {
            job.label: [{"name": n, "self_s": t} for n, t, _, _ in
                        aggregate(trace_dir, [stem]).dominant(3)]
            for job, stem in zip(plan.jobs, stems)
        },
    }
    return traced_pass, record


def run_workload(workload: str, seed: int, seconds: int, traced: bool) -> dict:
    """Set up, time the passes and, when traced, run the traced pass; returns
    the result record with provenance."""
    variant = seed % VARIANTS
    plan = plan_for(workload, seed)
    workdir = os.path.join(WORK, workload)
    reference = load_reference()

    if not compileall.compile_dir(SRC_PACKAGE, quiet=1):
        raise RuntimeError("src/evoalg does not byte-compile")
    setups = []
    start = time.perf_counter()
    while len(setups) < SETUP_REPEATS or time.perf_counter() - start < SETUP_MIN_S:
        setups.append(set_up(plan, workdir))
    inputs_stable = len({digest for _, digest in setups}) == 1
    passes = timed_passes(plan.jobs, workdir, seconds)
    all_passes = list(passes)
    layers = None
    if traced:
        traced_pass, layers = trace_workload(plan, workdir, os.path.join(WORK, workload + "-trace"))
        all_passes.append(traced_pass)
        layers["metrics"]["cli.stdout_changed"] = len(
            stdout_changes(plan.jobs, traced_pass, reference, variant))
        untraced_wall = statistics.median(p.wall_s for p in passes)
        layers["metrics"]["trace.overhead_s"] = traced_pass.wall_s - untraced_wall

    failed = sum(1 for p in all_passes for problems in p.problems if problems)
    return {
        "workload": workload,
        "why": WHY[workload],
        "seed": seed,
        "variant": variant,
        "trace": int(traced),
        "provenance": {
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "git_sha": git_sha(),
        },
        "jobs": [{"label": j.label, "argv": list(j.argv)} for j in plan.jobs],
        "setup_makes": [list(argv) for argv in plan.makes],
        "samples": {
            "wall_s": [p.wall_s for p in passes],
            "setup_s": [t for t, _ in setups],
            "peak_rss_mb": [p.peak_rss_mb for p in passes if p.peak_rss_mb is not None],
        },
        "passes": [pass_record(plan.jobs, p) for p in all_passes],
        "traced_pass": len(passes) if traced else None,
        "stdout_changed": sorted({label for p in all_passes for label in
                                  stdout_changes(plan.jobs, p, reference, variant)}),
        "inputs_stable": inputs_stable,
        "correct": failed == 0 and inputs_stable,
        "attempted": sum(len(p.results) for p in all_passes),
        "failed": failed,
        "layers": layers,
    }


def print_summary(result: dict, specs: dict) -> None:
    units = {m["name"]: m["unit"] for m in specs["end_to_end"]}
    print(f"== {result['workload']}  seed {result['seed']} (input variant "
          f"{result['variant']})  {len(result['samples']['wall_s'])} pass(es) "
          f"of {len(result['jobs'])} jobs")
    for name, values in result["samples"].items():
        if not values:
            print(f"  {name:<12} no samples")
            continue
        med, q1, q3 = spread(values)
        print(f"  {name:<12} median {med:.4f} {units[name]}  "
              f"q1 {q1:.4f}  q3 {q3:.4f}  n={len(values)}")
    print(f"  {'fail_frac':<12} {result['failed'] / result['attempted']:.4f} ratio  "
          f"({result['failed']} of {result['attempted']} jobs)")
    for one_pass in result["passes"]:
        for job in one_pass["jobs"]:
            if job["problems"]:
                print(f"  FAILED {job['label']}: {'; '.join(job['problems'])}")
    if not result["inputs_stable"]:
        print("  FAILED set-up built different inputs on repeated runs")
    if result["stdout_changed"]:
        print(f"  stdout changed against reference.json: {', '.join(result['stdout_changed'])}")
    if result["layers"]:
        traced_wall = result["passes"][result["traced_pass"]]["wall_s"]
        print(f"  traced pass {traced_wall:.3f} s; largest self times (thread CPU):")
        for d in result["layers"]["dominant"]:
            print(f"    {d['name']:<36} {d['self_s']:9.3f} s  "
                  f"({d['caller_self_s']:.3f} s under {d['caller']})")
        for label, top in result["layers"]["dominant_per_job"].items():
            print(f"    {label:<28} dominated by {top[0]['name']} ({top[0]['self_s']:.3f} s)")


def reported_metrics(result: dict, specs: dict) -> dict:
    """The metrics of the result line: end-to-end medians, or the per-layer
    values of the traced pass."""
    if result["layers"]:
        values = result["layers"]["metrics"]
        return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                for m in specs["per_layer"]}
    return {m["name"]: {"value": statistics.median(result["samples"][m["name"]]),
                        "unit": m["unit"]}
            for m in specs["end_to_end"] if result["samples"][m["name"]]}


def load_metric_specs() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=None,
                        help="must equal run_seconds of BENCHMARK.json, which fixes the run length")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC_PACKAGE, "cli.py")):
        print(f"error: no evoalg sources at {SRC_PACKAGE}", file=sys.stderr)
        return 2
    if args.record_reference:
        return record_reference()
    specs = load_metric_specs()
    seconds = specs["run_seconds"]
    if args.seconds is not None and args.seconds != seconds:
        parser.error(f"--seconds {args.seconds}: the run length is fixed at "
                     f"run_seconds = {seconds} in BENCHMARK.json")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    os.makedirs(RESULTS, exist_ok=True)
    for workload in names:
        result = run_workload(workload, args.seed, seconds, bool(args.trace))
        result["metrics"] = reported_metrics(result, specs)
        path = os.path.join(RESULTS, f"{workload}-seed{args.seed}-trace{args.trace}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1)
            fh.write("\n")
        print_summary(result, specs)
        results.append(result)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
