"""nullrec benchmark: one workload, one seed, one process.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a nullrec source tree (``src/nullrec`` and ``configs``).
The run sets the workload up several times (the main process once, then fresh
child processes, since import time is part of set-up), then repeats the
workload's fixed job, a closed loop from this one serial caller, for about
``--seconds`` seconds.  The job is the same on every repetition, so its output
digests must repeat exactly.

``--trace 0`` reports the end-to-end metrics: wall_s (median job time),
setup_s (median set-up time), peak_rss_mb and ok_frac (1 - failed_frac).
``--trace 1`` alternates untraced and traced jobs and reports the per-layer
metrics of the traced ones, with bench.trace_overhead_frac.  The last line of
standard output is one JSON object: correct, attempted, failed and metrics.
A full record (environment, digests, errors, every sample) goes to
``.bench_out/``, and so do the spans of a traced run.
"""

from __future__ import annotations

import argparse
import gc
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
from pathlib import Path

T0 = time.perf_counter()  # set-up time counts from here: numpy and nullrec load lazily

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("fixed_point_walk", "modal_estimate", "chain_exact", "split_simulate")
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "frac"}
SETUP_SAMPLES = 5  # the main process plus four fresh children
MAX_ROUNDS = 100
# One BLAS thread: the benchmark is a single serial caller, and idle BLAS
# threads spinning on a shared machine add noise.  An explicit setting wins.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="job sizes; tiny is for the self-test")
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the set-up time and exit (used for set-up samples)")
    return p.parse_args(argv)


def _setup(args, workdir):
    """Import nullrec, build the workload's inputs from the seed and warm up."""
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    state = wl.setup(args.seed, workloads.SIZES[args.scale], ROOT, workdir)
    return wl, state, time.perf_counter() - T0


def _setup_samples(args) -> list[float]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only", "--workload",
           args.workload, "--seed", str(args.seed), "--scale", args.scale]
    out = []
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150,
                              check=True)
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def _calibrate() -> float:
    """A fixed numpy and pure-Python reference kernel; its time tracks how
    fast this machine is running right now."""
    import numpy as np

    rng = np.random.default_rng(20240101)
    vec = rng.random(400_000)
    mat = rng.random((160, 160))
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        np.sort(vec)
        np.linalg.solve(mat + 160 * np.eye(160), mat)
        sum(i * i for i in range(200_000))
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _git_rev(root: Path):
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (root / ".git" / name).is_file():
        return (root / ".git" / name).read_text().strip()
    packed = root / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + name):
            return line.split()[0]
    return None


def _source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted([*(root / "src").rglob("*.py"), *(root / "configs").glob("*.json")]):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "cpu": _cpu_model(),
        "git_rev": _git_rev(ROOT),
        "source_sha256": _source_digest(ROOT),
    }


def _run_jobs(wl, state, seconds, tracer):
    """Repeat the job until the next round would overrun `seconds`.  With a
    tracer each round is an untraced job followed by a traced one."""
    from workloads import Job

    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    for rnd in range(MAX_ROUNDS):
        start = time.perf_counter()
        gc.collect()
        job = Job()
        wl.job(state, job)
        untraced.append(job)
        if tracer is not None:
            gc.collect()
            job = Job(tracer)
            tracer.run_id = f"job{rnd}"
            tracer.install()
            try:
                with tracer.span("bench.job", workload=wl.name):
                    wl.job(state, job)
            finally:
                tracer.uninstall()
            traced.append(job)
        now = time.perf_counter()
        if now + (now - start) > deadline:
            break
    return untraced, traced


def _pool_speedup(state) -> tuple[float, bool]:
    """Serial time over pool time for the modal protocols at threads=nproc,
    and whether both give bit-identical statistics."""
    from dataclasses import replace

    from nullrec import montecarlo

    protocols = []
    for path, _ in state["protocols"]:
        obj = json.loads((ROOT / path).read_text())
        protocols += [replace(p, base_seed=state["clt_seed"])
                      for p in montecarlo.protocols_from_dict(obj)]
    times, values = [], []
    for threads in (1, os.cpu_count() or 1):
        t0 = time.perf_counter()
        values.append([montecarlo.run_clt(p, threads=threads).values for p in protocols])
        times.append(time.perf_counter() - t0)
    same = all((a == b).all() for a, b in zip(*values))
    return times[0] / times[1], same


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "nullrec" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"bench: no nullrec source tree (src/nullrec, configs) under {ROOT}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    os.chdir(ROOT)
    workdir = OUT / f"work-{os.getpid()}"
    wl, state, setup_main = _setup(args, workdir)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_main}))
        return 0
    from workloads import typical_seconds


    setup = [setup_main] + _setup_samples(args)
    env = _environment()
    calib = _calibrate()
    load_before = os.getloadavg()
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    try:
        untraced, traced = _run_jobs(wl, state, args.seconds, tracer)
        pool = _pool_speedup(state) if args.trace and args.workload == "modal_estimate" else None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    load_after = os.getloadavg()

    jobs = untraced + traced
    reference = untraced[0].digests
    mismatched = sum(j.digests != reference for j in jobs[1:])
    attempted = sum(j.attempted for j in jobs) + len(jobs) - 1
    failed = sum(j.failed for j in jobs) + mismatched
    errors = [e for j in jobs for e in j.errors]
    if mismatched:
        errors.append(f"output digests differ between repetitions in {mismatched} job(s)")
    if pool is not None and not pool[1]:
        attempted, failed = attempted + 1, failed + 1
        errors.append("pool and serial run_clt statistics differ")
    walls = [j.elapsed for j in untraced]
    wall = typical_seconds(untraced)

    if args.trace:
        from tracing import BASELINE_STEPS, layer_metrics, per_layer_units

        runs = [layer_metrics(tracer, f"job{i}", j.bytes_written) for i, j in enumerate(traced)]
        values = {k: statistics.median(run[k] for run in runs) for k in runs[0]}
        values.update({name: typical_seconds(untraced, step)
                       for name, step in BASELINE_STEPS.items()})
        values["bench.trace_overhead_frac"] = typical_seconds(traced) / wall - 1.0
        values["bench.calib_s"] = calib
        if pool is not None:
            values["montecarlo.pool_speedup"] = pool[0]
        units = per_layer_units()
    else:
        values = {"wall_s": wall,
                  "setup_s": statistics.median(setup),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                  "ok_frac": 1.0 - failed / attempted}
        units = END_TO_END_UNITS
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "scale": args.scale, "env": env,
              "load_avg_before": load_before, "load_avg_after": load_after, "calib_s": calib,
              "setup_samples_s": setup, "job_walls_s": walls,
              "traced_job_walls_s": [j.elapsed for j in traced],
              "ops": [j.ops for j in untraced], "digests": reference,
              "traced_digests_match": (all(j.digests == reference for j in traced)
                                       if traced else None),
              "attempted": attempted, "failed": failed, "errors": errors[:50],
              "metrics": metrics}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.write(OUT / f"{stem}-spans.jsonl")

    print(f"bench {args.workload} seed={args.seed} trace={args.trace} jobs={len(untraced)}"
          f"+{len(traced)} traced")
    for name, m in metrics.items():
        print(f"  {name:<48} {m['value']:<14.6g} {m['unit']}")
    print(f"  {'failed_frac':<48} {failed / attempted:<14.6g} frac ({failed}/{attempted})")
    for line in errors[:10]:
        print(f"  error: {line}")
    print("env " + json.dumps(dict(env, load_avg_before=load_before, load_avg_after=load_after,
                                   calib_s=calib, digests=reference)))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
