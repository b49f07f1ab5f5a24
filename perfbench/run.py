"""The hgl benchmark: closed-loop passes over CLI workloads.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One closed-loop client drives ``hgl.cli.main(argv)`` in one child
interpreter at a time, one job per fresh interpreter as a CLI call is, so no
module cache, result cache or heap state carries over from another job.
Every job's exit code and result are checked against pinned answers
(workloads.py).

--trace 0 runs the workload's passes (MIN_PASSES), then more while the next
one fits in S seconds, and reports the medians of the end-to-end metrics of BENCHMARK.json;
--trace 1 runs one untraced and one traced pass and reports the per-layer
metrics.

The end-to-end times are seconds at a fixed reference speed of the machine.
A shared host runs the same code up to 25% faster or slower from one
stretch of seconds to the next, and in states that outlast a run, so raw
wall times of the same code spread too widely to compare two commits.  Each
child times a fixed chunk of pure-Python work while it runs (child.py), and
every time it reports is scaled by REF_CHUNK_S over those chunk times
(``speed_factor``).  The raw times are kept in the run's record.

The last line of stdout is the result object; a summary goes to stderr, and
a record of the run, with the machine facts, goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracing import LAYERS  # noqa: E402
from workloads import MIN_PASSES, WORKLOADS, canonical_digest, jobs_for  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
RUN_LIMIT_S = 170  # every run ends within this, whatever the machine does
COVERAGE_MIN = 0.95  # root spans must cover this share of a traced pass
# Seconds one speed chunk (child.py) takes at the reference speed: about its
# median on a 2-vCPU Intel Xeon KVM guest with CPython 3.11.7.
REF_CHUNK_S = 0.0012
TRIM = 0.1  # share of the chunk times dropped at each end before averaging


class BenchError(RuntimeError):
    """The benchmark cannot run here (as opposed to a job failing)."""


def child_env():
    env = dict(os.environ)
    env.pop("HGL_CACHE_DIR", None)  # no --cache-dir either: every pass computes
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONHASHSEED"] = "0"  # set iteration order, hence counters, repeat
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # set-up imports cached bytecode, as installs do
    return env


def speed_factor(chunks):
    """REF_CHUNK_S over the trimmed mean of the chunk times: the factor that
    turns seconds measured while the chunks ran into reference seconds."""
    chunks = sorted(chunks)
    cut = int(len(chunks) * TRIM)
    kept = chunks[cut:len(chunks) - cut]
    return REF_CHUNK_S / statistics.fmean(kept)


def run_child(argv, deadline, trace=False):
    """(set-up seconds, report) of one child interpreter running one job,
    or, for argv None, only importing ``hgl.cli``.

    Set-up runs from just before the process starts to the line the child
    prints once ``hgl.cli`` is imported.
    """
    start = time.perf_counter()
    spec = {"argv": argv, "trace": trace}
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(),
        cwd=str(ROOT), text=True,
    )
    killer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    killer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        out, err = proc.communicate()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if time.monotonic() >= deadline:
        raise BenchError("run did not finish within %d s" % RUN_LIMIT_S)
    if proc.returncode != 0 or not ready:
        raise BenchError("child exited %s: %s" % (proc.returncode, err.strip()[-2000:]))
    location = Path(json.loads(ready)["hgl"]).resolve()
    if SRC not in location.parents:
        raise BenchError("imported hgl from %s, not from %s" % (location, SRC))
    return setup_s, json.loads(out.splitlines()[-1])


def job_failure(job, report):
    """Why a job's run differs from its pin, or None when it matches."""
    if "cache hit" in report["stderr"]:
        return "result came from a cache"
    if report["exit_code"] != job.exit_code:
        return "exit code %r, pinned %r: %s" % (
            report["exit_code"], job.exit_code, report["stderr"].strip()[-500:])
    try:
        result = json.loads(report["stdout"])["result"]
    except (ValueError, KeyError, TypeError):
        return "stdout is not a result document"
    if canonical_digest(result) != job.digest:
        return "result digest %s, pinned %s" % (canonical_digest(result), job.digest)
    if not job.check(result):
        return "result fails its independent check"
    return None


def setup_sample(setup_s, report):
    """A child's set-up time in reference seconds, scaled by the speed
    chunks it timed right after its set-up."""
    return setup_s * speed_factor(report["calibration"])


def run_pass(jobs, deadline, trace=False):
    """One pass, each job in its own fresh interpreter as a CLI call is, and
    each checked.  Returns the pass and, when traced, its spans.

    Before each job a bare interpreter only imports ``hgl.cli``; its set-up
    time and the job's own are the pass's set-up samples, spread over the
    pass like its jobs.  Every job samples the machine's speed, and its
    times are reported in reference seconds, without the sampling.  A traced
    job's spans are raw seconds, the sampling included."""
    records, setups, spans, summary, missing = [], [], [], {}, set()
    for index, job in enumerate(jobs):
        setups.append(setup_sample(*run_child(None, deadline)))
        setup_s, report = run_child(job.argv, deadline, trace)
        setups.append(setup_sample(setup_s, report))
        spent = report["speed_spent_s"]
        factor = speed_factor(report["speed_chunks"])
        records.append({
            "job": job.name,
            "exit_code": report["exit_code"],
            "failure": job_failure(job, report),
            "seconds": (report["seconds"] - spent) * factor,
            "cpu_s": (report["cpu_s"] - spent) * factor,
            "peak_rss_mib": report["peak_rss_mib"],
            "raw_seconds": report["seconds"],
            "raw_cpu_s": report["cpu_s"],
            "sampling_s": spent,
            "speed_factor": factor,
            "speed_samples": len(report["speed_chunks"]),
        })
        if trace:
            for key, value in report["trace"].items():
                summary[key] = summary.get(key, 0) + value
            spans.extend([index, i] + span[:5] for i, span in enumerate(report["spans"]))
            missing.update(report["untraced"])
    result = {
        "jobs": records,
        "pass_s": sum(r["seconds"] for r in records),
        "raw_pass_s": sum(r["raw_seconds"] - r["sampling_s"] for r in records),
        "cpu_s": sum(r["cpu_s"] for r in records),
        "peak_rss_mib": max(r["peak_rss_mib"] for r in records),
        "setup_samples": setups,
    }
    if trace:
        result["trace"] = summary
        result["untraced_entry_points"] = sorted(missing)
    return result, spans


def _read_steal():
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT),
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _source_sha():
    digest = hashlib.sha256()
    for path in sorted((SRC / "hgl").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def machine_load():
    return {"loadavg": list(os.getloadavg()), "steal_ticks": _read_steal()}


def machine_facts():
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu_model": _cpu_model(),
        "git_sha": _git_sha(),
        "source_sha256": _source_sha(),
    }


def _ratio(part, whole):
    return part / whole if whole else 0.0


def _raw_total(traced):
    """Raw seconds of a pass's calls, sampling included, as the spans are."""
    return sum(r["raw_seconds"] for r in traced["jobs"])


def layer_metrics(traced, untraced):
    """Per-layer metrics from a traced pass and the untraced pass beside it."""
    summary = traced["trace"]
    metrics = dict(summary)
    metrics["hgsenum.closure_yield"] = _ratio(summary["hgsenum.subgroups"], summary["hgsenum.closures"])
    metrics["isoaut.iso_yield"] = _ratio(summary["isoaut.iso_found"], summary["isoaut.iso_calls"])
    metrics["bounds.tmul_calls"] = summary["bounds.self_tmul_calls"]
    metrics["trace.pass_s"] = traced["pass_s"]
    metrics["trace.overhead"] = traced["pass_s"] / untraced["pass_s"]
    metrics["trace.coverage"] = summary["trace.root_s"] / _raw_total(traced)
    return metrics


def trace_problems(traced):
    """The checks a traced pass must meet for its layer numbers to add up."""
    summary = traced["trace"]
    root_s = summary["trace.root_s"]
    problems = []
    total_self = sum(summary[layer + ".self_s"] for layer in LAYERS)
    if abs(total_self - root_s) > 1e-6 * max(1.0, root_s):
        problems.append("layer self times sum to %.6f s, root spans to %.6f s" % (total_self, root_s))
    coverage = root_s / _raw_total(traced)
    if not COVERAGE_MIN <= coverage <= 1.0:
        problems.append("root spans cover %.4f of the traced pass" % coverage)
    return problems


def write_spans(path, spans):
    """One JSON line per span; `parent` is the id of a span of the same job,
    or -1 for the job's root span."""
    with open(path, "w") as handle:
        for job, span_id, name, layer, start, end, parent in spans:
            handle.write(json.dumps({
                "job": job, "id": span_id, "name": name, "layer": layer,
                "start": start, "end": end, "parent": parent,
            }) + "\n")


def measure(workload, seed, seconds, trace, deadline):
    jobs = jobs_for(workload, seed)
    run_child(None, deadline)  # compiles bytecode; not a sample
    if trace:
        untraced, _ = run_pass(jobs, deadline)
        traced, spans = run_pass(jobs, deadline, trace=True)
        OUT.mkdir(exist_ok=True)
        write_spans(OUT / ("%s-seed%d.spans.jsonl" % (workload, seed)), spans)
        passes = [untraced, traced]
        return {"passes": passes, "metrics": layer_metrics(traced, untraced),
                "problems": trace_problems(traced)}
    passes = []
    start = time.monotonic()
    while True:  # the workload's passes, then more while one fits in `seconds`
        passes.append(run_pass(jobs, deadline)[0])
        elapsed = time.monotonic() - start
        if len(passes) >= MIN_PASSES[workload] and elapsed + elapsed / len(passes) > seconds:
            break
    metrics = {
        name: statistics.median(p[name] for p in passes)
        for name in ("pass_s", "cpu_s", "peak_rss_mib", "raw_pass_s")
    }
    metrics["setup_s"] = statistics.median(s for p in passes for s in p["setup_samples"])
    return {"passes": passes, "metrics": metrics, "problems": []}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that run_child kills the running child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.monotonic() + RUN_LIMIT_S
    if not (SRC / "hgl" / "cli.py").is_file():
        print("error: no hgl sources at %s" % SRC, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    load_before = machine_load()
    try:
        run = measure(args.workload, args.seed, args.seconds, args.trace, deadline)
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    load_after = machine_load()

    jobs = [job for p in run["passes"] for job in p["jobs"]]
    failures = [job for job in jobs if job["failure"]]
    metrics = run["metrics"]
    fail_ratio = len(failures) / len(jobs)
    result = {
        "correct": not failures and not run["problems"],
        "attempted": len(jobs),
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }

    facts = machine_facts()
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "facts": facts,
        "load_before": load_before, "load_after": load_after,
        "fail_ratio": fail_ratio, "problems": run["problems"],
        "passes": run["passes"],
        "all_metrics": metrics, "result": result,
    }
    OUT.mkdir(exist_ok=True)
    record_path = OUT / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    record_path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    steal = (None if None in (load_before["steal_ticks"], load_after["steal_ticks"])
             else load_after["steal_ticks"] - load_before["steal_ticks"])
    print("%s seed %d: %d passes, fail_ratio %s (ratio), steal %s ticks, load %.2f -> %.2f"
          % (args.workload, args.seed, len(run["passes"]), fail_ratio, steal,
             load_before["loadavg"][0], load_after["loadavg"][0]), file=sys.stderr)
    print("  %s" % json.dumps(facts, sort_keys=True), file=sys.stderr)
    for name, entry in result["metrics"].items():
        print("  %-28s %14.6g %s" % (name, entry["value"], entry["unit"]), file=sys.stderr)
    if "raw_pass_s" in metrics:
        print("  %-28s %14.6g s (raw wall time, not scaled to the reference speed)"
              % ("raw_pass_s", metrics["raw_pass_s"]), file=sys.stderr)
    for failure in failures:
        print("  FAILED %s: %s" % (failure["job"], failure["failure"]), file=sys.stderr)
    for name in run["passes"][-1].get("untraced_entry_points", ()):
        print("  not traced (gone from the package, or its result changed): %s" % name,
              file=sys.stderr)
    for problem in run["problems"]:
        print("  TRACE CHECK FAILED: %s" % problem, file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
