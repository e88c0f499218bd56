"""One workload in one fresh process: set-up, then passes for a fixed window.

Run by ``run.py``; prints one JSON object as its last line of stdout.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
        [--setup-only] [--spans FILE]

Set-up time runs from the first statement of this file, before numpy and
ncprob are imported, to the end of input generation.  The first pass is the
cold pass; later passes are warm.  Every time is normalised to the
reference machine speed by calibration ticks taken while it runs
(``calibrate.py``); ``*wall_s`` are the raw wall times.  A pass starts only
if it is expected to end within ``--seconds`` of the cold pass's start, but
at least one warm pass always runs.  With ``--trace 1`` warm passes
alternate untraced and traced, so the run also gives the tracing overhead.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
# no pass may start after this point of the window, so that a run ends
# well inside the 180 s a single benchmark invocation is given
LAST_START_S = 120.0


def import_checkout_ncprob():
    """Import ncprob from this checkout's ``src`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "ncprob", "__init__.py")):
        raise SystemExit(f"no ncprob sources under {SRC}")
    sys.path.insert(0, SRC)
    import ncprob

    if os.path.dirname(os.path.dirname(os.path.abspath(ncprob.__file__))) != SRC:
        raise SystemExit(f"imported ncprob from {ncprob.__file__}, not from {SRC}")
    return ncprob


def environment() -> dict:
    import numpy as np

    blas = {}
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        blas = {k: deps.get(k, {}) for k in ("blas", "lapack")}
    except (TypeError, ValueError, AttributeError):
        pass
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        pass
    try:
        threads = len(os.listdir("/proc/self/task"))
    except OSError:
        threads = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "process_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "git_commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", default=None, help="file for the traced run's spans (.npz)")
    args = parser.parse_args(argv)

    sys.path.insert(0, HERE)
    from calibrate import Sampler

    sampler = Sampler()
    sampler.start()
    import_checkout_ncprob()
    from workloads import WORKLOADS

    work_root = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        workload.setup()
        setup_wall = time.perf_counter() - _T0
        setup_net = sampler.clock() - _T0
        setup = {"setup_s": setup_net * sampler.stop(), "setup_wall_s": setup_wall}
        if args.setup_only:
            print(json.dumps(setup))
            return 0
        record = run_passes(workload, args, sampler)
        record.update(setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record["env"] = environment()
    print(json.dumps(record))
    return 0


def run_passes(workload, args, sampler) -> dict:
    from workloads import PassOutcome

    tracer = None
    if args.trace:
        from tracer import Tracer

        # spans are timed on the sampler's clock, so no tick counts in them
        tracer = Tracer(clock=sampler.clock)
    passes = []  # one dict per pass, in order
    if hasattr(workload, "clock"):
        workload.clock = sampler.clock
    outcomes: list[PassOutcome] = []
    window = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - window
        warm = [p for p in passes[1:] if not p["traced"]]
        traced = [p for p in passes if p["traced"]]
        enough = warm and (tracer is None or traced)
        # stop before a pass that would end past the window, so that a run
        # lasts about --seconds whatever the length of one pass
        if enough and elapsed + passes[-1]["wall_s"] > args.seconds:
            break
        if passes and elapsed >= LAST_START_S:
            break
        use_tracer = tracer is not None and len(passes) > 1 and len(traced) < len(warm)
        index = len(passes)
        if use_tracer:
            tracer.install()
        sampler.start()
        if use_tracer:
            tracer.begin_pass(index)
        c0, t0 = sampler.clock(), time.perf_counter()
        try:
            outcome = workload.run_pass()
        except Exception:
            traceback.print_exc(file=sys.stderr)
            outcome = PassOutcome(1, 1, {}, "", problems=["pass raised"])
        wall = time.perf_counter() - t0
        net = sampler.clock() - c0
        if use_tracer:
            tracer.end_pass()
        speed = sampler.stop()
        if use_tracer:
            tracer.uninstall()
        outcome.word_ms = [ms * speed for ms in outcome.word_ms]
        outcomes.append(outcome)
        passes.append({"index": index, "s": net * speed, "wall_s": wall, "speed": speed,
                       "ticks": len(sampler.ticks), "traced": use_tracer})

    # every pass must reproduce the cold pass's structure and bytes
    reference = outcomes[0]
    for p, outcome in zip(passes[1:], outcomes[1:]):
        if outcome.counts != reference.counts or outcome.digest != reference.digest:
            outcome.failed += 1
            outcome.problems.append(f"pass {p['index']} differs from the cold pass")
    problems = [f"pass {p['index']}: {msg}" for p, o in zip(passes, outcomes) for msg in o.problems]
    for line in problems[:20]:
        print(line, file=sys.stderr)

    untraced_warm = [i for i, p in enumerate(passes) if i > 0 and not p["traced"]]
    word_ms = [ms for i in untraced_warm for ms in outcomes[i].word_ms]
    record = {
        "passes": passes,
        "attempted": sum(o.attempted for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "problems": problems[:20],
        "counts": {**reference.counts, "attempted_per_pass": reference.attempted,
                   "digest": reference.digest},
        "word_ms": word_ms,
        "words_checked": len(word_ms),
        "untraced_warm_s": sum(passes[i]["s"] for i in untraced_warm),
    }
    if tracer is not None:
        summaries = [tracer.pass_summary(p["index"]) for p in passes if p["traced"]]
        speeds = [p["speed"] for p in passes if p["traced"]]
        record["layers"] = [
            {name: value * speed if name.endswith("_s") else value
             for name, value in tracer.layer_metrics(s).items()}
            for s, speed in zip(summaries, speeds)
        ]
        record["trace_counts"] = [
            {"calls": s["calls"], "quotients": s["quotients"], "spans": s["spans"],
             "emitted_bytes": s["emitted_bytes"], "raised": s["raised"]}
            for s in summaries
        ]
        if args.spans:
            tracer.save(args.spans)
    return record


if __name__ == "__main__":
    sys.exit(main())
