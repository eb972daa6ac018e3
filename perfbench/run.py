"""conedet benchmark: run one workload from a seed, check every output,
print each metric with its unit, and write the result file.

    python3 perfbench/run.py --workload area-plane --seed 1 --seconds 45 --trace 0

Run it from anywhere inside a checkout; the library is imported from the
checkout's ``src``, never from an installed copy.  Workloads:

* ``cli-oneshot``  - sequential ``python -m conedet.cli`` processes over the
  closed-form and scan commands: interpreter start and imports dominate.
* ``area-plane``   - in-process ``logdet_flat_sphere`` over seeded flat
  spheres: the area quadrature and the product-density kernel dominate.
* ``barnes-sweep`` - in-process calls of about 1 ms (J(a), the rational
  closed form, C(beta), spindle and disk determinants): the per-panel
  Python work of the adaptive quadrature and the J(a) kernel dominate.
  ``BENCHMARK.json`` leaves it out: on a shared 2-vCPU host its 30 s runs
  spread as widely as the bounds, and dropping it lets the other two run
  45 s each.  The cli-oneshot traced run still covers its layers (special,
  barnes, cone, determinants, j_bracket).

Load comes from this one process: a closed loop with one client and one op
in flight, on one thread, with ``CONEDET_THREADS`` and ``CONEDET_NO_EXT``
removed from the environment so the default configuration is measured.

``--trace 0`` measures the end-to-end metrics for ``--seconds``: ops run
until the time is up, the fixed op list (the first rounds of the stream)
is covered and the last round of ops is whole, so every run has the same
mix of ops.  ``--trace 1`` runs the fixed op list in two fresh traced
interpreters (``tracing.py``) and reports the per-layer metrics; their count
metrics must repeat exactly.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

``correct`` is false when an output disagrees with its second route, a
command fails without a structured error, or tracing changes an output or
a count.  Ops that end in a structured error count as failed without making
the run incorrect; no op of the three workloads does.  ``failed_frac`` is
reported with the per-layer metrics; ``attempted`` and ``failed`` carry it
on every run.  ``conedet find-max`` with default flags exits 4, a known
defect, so the op stream runs it at ``--tol 1e-6`` and the traced run
probes the default once: ``defects.find_max_default.failed`` is 1 until the
defect is fixed.

The result file ``.bench_out/result-<workload>-seed<n>-trace<t>.json`` adds
the environment fingerprint, the exit-code tally per op kind, the largest
error over allowed error, the sha256 digest of the fixed op list's outputs,
the input-property shares and the tail percentile with its sample count.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from array import array
from collections import Counter
from itertools import chain, islice
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 5
IMPORT_REPEATS = 3
TAIL_BLOCK = 1000

END_TO_END = {
    "setup_s": "s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "throughput_ops_s": "1/s",
    "peak_rss_mb": "MB",
}

# Imports the entry point, then first-uses the memoised constants.
SETUP_CODE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import {entry}\n"
    "from conedet.constants import fundamental_constants\n"
    "t1 = time.perf_counter()\n"
    "fundamental_constants()\n"
    "t2 = time.perf_counter()\n"
    "print(t1 - t0, t2 - t1)\n"
)


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("CONEDET_THREADS", "CONEDET_NO_EXT")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return env


def fresh_interpreter(entry: str, importtime: bool = False):
    """Seconds to import ``entry`` and to first-use the constants, and the
    ``-X importtime`` report when asked for, from a new interpreter."""
    flags = ["-X", "importtime"] if importtime else []
    proc = subprocess.run(
        [sys.executable, *flags, "-c", SETUP_CODE.format(entry=entry)],
        env=child_env(), cwd=ROOT, capture_output=True, text=True, check=True,
    )
    t_import, t_const = (float(v) for v in proc.stdout.split())
    return t_import, t_const, proc.stderr


def import_breakdown(report: str, entry: str) -> dict:
    """Per-package import cost from one ``-X importtime`` report: cumulative
    time of the entry, numpy, scipy.special and click as first imported,
    and the self time of conedet's own modules."""
    cumulative, own = {}, 0.0
    for line in report.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, self_us, cum_us, name = (f.strip() for f in line.replace("import time:", "|", 1).split("|"))
        cumulative.setdefault(name, int(cum_us) * 1e-6)
        if name == "conedet" or name.startswith("conedet."):
            own += int(self_us) * 1e-6
    return {
        "import.total_s": cumulative.get(entry, 0.0),
        "import.scipy_special_s": cumulative.get("scipy.special", 0.0),
        "import.numpy_s": cumulative.get("numpy", 0.0),
        "import.click_s": cumulative.get("click", 0.0),
        "import.conedet_s": own,
    }


def structured_failure(wl, out) -> bool:
    """A failure the program reported as designed: a JSON error object with
    exit 2, 3 or 4 from the CLI, or a library error from a call."""
    if wl.name != "cli-oneshot":
        return True
    if out.code not in (2, 3, 4):
        return False
    try:
        return "error" in json.loads(out.text)
    except ValueError:
        return False


def run_checks(wl, ops, outs) -> dict:
    """Check every op outside the timed region."""
    from workloads import LIBRARY_ERRORS

    worst_by_kind = Counter()
    tally = {}
    failed_kinds = Counter()
    failures = []
    wrong = []
    worst = 0.0
    for op, out in zip(ops, outs):
        tally.setdefault(op.kind, Counter())[str(out.code)] += 1
        if out.code != 0:
            failed_kinds[op.kind] += 1
            failures.append(f"{op.kind} {op.args}: exit {out.code}: {out.text.strip()[:200]}")
            if not structured_failure(wl, out):
                wrong.append(f"{op.kind} {op.args}: exit {out.code} without a structured error")
            continue
        try:
            ratio = wl.check(op, out)
        except (ValueError, KeyError, TypeError, *LIBRARY_ERRORS) as err:
            wrong.append(f"{op.kind} {op.args}: {type(err).__name__}: {err}")
            failed_kinds[op.kind] += 1
            continue
        worst = max(worst, ratio)
        worst_by_kind[op.kind] = max(worst_by_kind[op.kind], ratio)
        if not ratio <= 1.0:
            wrong.append(f"{op.kind} {op.args}: error is {ratio:.3g} x the allowed error")
            failed_kinds[op.kind] += 1
    return {
        "attempted": len(ops),
        "failed": sum(failed_kinds.values()),
        "failed_by_kind": dict(failed_kinds),
        "exit_codes_by_kind": {k: dict(v) for k, v in sorted(tally.items())},
        "err_over_tol_max": worst,
        "err_over_tol_by_kind": dict(sorted(worst_by_kind.items())),
        "failures": failures[:20],
        "wrong": wrong,
    }


def digest_record(out) -> bytes:
    return f"{out.code}\n{out.text}\n".encode()


def digest(outs) -> str:
    """sha256 over the ops' exit codes and outputs, in op order."""
    h = hashlib.sha256()
    for out in outs:
        h.update(digest_record(out))
    return h.hexdigest()


def input_shares(ops) -> dict:
    seen, repeated = set(), 0
    for op in ops:
        repeated += op.key in seen
        seen.add(op.key)
    return {
        "repeated_input_share": repeated / len(ops),
        "cone_count_histogram": dict(sorted(Counter(str(op.cones) for op in ops).items())),
        "tol_mix": dict(sorted(Counter(repr(op.tol) for op in ops).items())),
        "op_kind_mix": dict(sorted(Counter(op.kind for op in ops).items())),
    }


def tail(latencies):
    """Highest percentile with at least ten samples beyond it, taken per block
    of TAIL_BLOCK consecutive ops (the last block takes the remainder), and
    the median over blocks.

    On a run of tens of thousands of 1 ms ops the plain definition picks about
    p99.97, which a handful of scheduler preemptions set; per block it stays
    at about p99 however fast the program gets.  Runs shorter than two blocks
    are one block.  Returns the value and the percentile it stands for.
    """
    n_blocks = max(1, len(latencies) // TAIL_BLOCK)
    bounds = [len(latencies) * i // n_blocks for i in range(n_blocks + 1)]
    values, pcts = [], []
    for lo, hi in zip(bounds, bounds[1:]):
        xs = sorted(latencies[lo:hi])
        k = max(0, len(xs) - 11)
        values.append(xs[k])
        pcts.append(100.0 * (len(xs) - 10) / len(xs) if len(xs) > 10 else 100.0)
    return statistics.median(values), statistics.median(pcts)


def fingerprint(original_env: dict) -> dict:
    import numpy
    import scipy

    import conedet.kernels

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "click": importlib.metadata.version("click"),
        "kernels_backend": conedet.kernels.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "CONEDET_THREADS": original_env.get("CONEDET_THREADS"),
        "CONEDET_NO_EXT": original_env.get("CONEDET_NO_EXT"),
    }


def make_workload(name: str, seed: int):
    from workloads import WORKLOADS

    cls = WORKLOADS[name]
    if name == "cli-oneshot":
        return cls(seed, WORKDIR, env=child_env(), cwd=ROOT)
    return cls(seed, WORKDIR)


def timed_run(name: str, seed: int, seconds: float) -> tuple[dict, dict]:
    from workloads import Outcome

    wl = make_workload(name, seed)
    fresh_interpreter(wl.entry)  # compiles bytecode in a fresh checkout; not counted
    setup_samples = [sum(fresh_interpreter(wl.entry)[:2]) for _ in range(SETUP_REPEATS)]

    fixed = wl.fixed_ops()
    round_len = len(fixed) // wl.fixed_rounds
    if name != "cli-oneshot":
        wl.execute(fixed[0])  # warm-up: first-use caches, as in a long-lived process
    # Outcomes go to a file rather than a list, so the memory of this process
    # does not grow with the number of ops and peak_rss_mb stays comparable.
    log_path = os.path.join(WORKDIR, f"outcomes-{name}-{seed}.jsonl")
    lat = array("d")
    fixed_digest = hashlib.sha256()
    rss_kb = 0
    with open(log_path, "w") as log:
        t0 = perf_counter()
        for op in chain(fixed, wl.rounds_flat()):
            t = perf_counter()
            out = wl.execute(op)
            lat.append(perf_counter() - t)
            log.write(json.dumps([out.code, out.text, out.rss_kb]) + "\n")
            rss_kb = max(rss_kb, out.rss_kb)
            if len(lat) <= len(fixed):
                fixed_digest.update(digest_record(out))
            if len(lat) >= len(fixed) and len(lat) % round_len == 0 and perf_counter() - t0 >= seconds:
                break
        wall = perf_counter() - t0
    if name != "cli-oneshot":
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    # The generator is deterministic, so a fresh workload replays the same ops.
    replay = make_workload(name, seed)
    ops = list(islice(replay.rounds_flat(), len(lat)))
    with open(log_path) as log:
        checks = run_checks(wl, ops, (Outcome(*json.loads(line)) for line in log))
    os.remove(log_path)
    wl.cleanup()
    replay.cleanup()
    passed = checks["attempted"] - checks["failed"]
    tail_value, tail_pct = tail(lat)
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "latency_p50_s": statistics.median(lat),
        "latency_tail_s": tail_value,
        "throughput_ops_s": passed / wall,
        "peak_rss_mb": rss_kb / 1024.0,
    }
    detail = {
        "checks": checks,
        "failed_frac": checks["failed"] / checks["attempted"],
        "latency_tail_percentile": tail_pct,
        "latency_samples": len(lat),
        "latency_tail_blocks": max(1, len(lat) // TAIL_BLOCK),
        "wall_s": wall,
        "setup_samples_s": setup_samples,
        "fixed_ops": len(fixed),
        "digest_fixed_ops": fixed_digest.hexdigest(),
        "inputs": input_shares(ops),
    }
    return metrics, detail


def find_max_default_probe() -> dict:
    """``conedet find-max`` with default flags: exit 4 today, a known defect
    (the location is right; the error estimate is too pessimistic)."""
    proc = subprocess.run(
        [sys.executable, "-m", "conedet.cli", "find-max"],
        env=child_env(), cwd=ROOT, capture_output=True, text=True,
    )
    return {"exit_code": proc.returncode, "stdout": proc.stdout.strip()[:300]}


def traced_run(name: str, seed: int) -> tuple[dict, dict]:
    wl = make_workload(name, seed)
    passes = []
    for label in ("pass1", "pass2"):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "tracing.py"), name, str(seed), label, ROOT, WORKDIR],
            env=child_env(), cwd=ROOT, capture_output=True, text=True,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"traced pass failed:\n{proc.stderr}")
        passes.append(json.loads(proc.stdout.splitlines()[-1]))

    from tracing import PER_LAYER, is_count

    first, second = passes
    metrics = {}
    mismatched = []
    for key, value in first["metrics"].items():
        if is_count(key):
            metrics[key] = value
            if second["metrics"][key] != value:
                mismatched.append(key)
        else:
            metrics[key] = (value + second["metrics"][key]) / 2.0

    imports = [fresh_interpreter(wl.entry, importtime=True) for _ in range(IMPORT_REPEATS + 1)][1:]
    rows = [import_breakdown(report, wl.entry) for _, _, report in imports]
    for key in rows[0]:
        metrics[key] = statistics.median(r[key] for r in rows)
    metrics["constants.first_use_s"] = statistics.median(t for _, t, _ in imports)

    metrics["cli.process_overhead_s"] = 0.0
    if name == "cli-oneshot":
        invocations = []
        for op in wl.fixed_ops():
            t = perf_counter()
            wl.execute(op)
            invocations.append(perf_counter() - t)
        metrics["cli.process_overhead_s"] = (
            statistics.median(invocations) - statistics.median(first["inprocess_latencies"])
        )
        wl.cleanup()
    probe = find_max_default_probe()
    metrics["defects.find_max_default.failed"] = int(probe["exit_code"] != 0)

    checks = first["checks"]
    metrics["check.err_over_tol_max"] = checks["err_over_tol_max"]
    metrics["failed_frac"] = checks["failed"] / checks["attempted"]
    problems = list(checks["wrong"]) + list(second["checks"]["wrong"])
    if mismatched:
        problems.append(f"count metrics differ between traced passes: {mismatched}")
    if not (first["traced_matches_untraced"] and second["traced_matches_untraced"]):
        problems.append("tracing changed an output")
    if first["digest"] != second["digest"]:
        problems.append("outputs differ between the two traced interpreters")
    checks = dict(checks, wrong=problems)
    detail = {
        "checks": checks,
        "digest_fixed_ops": first["digest"],
        "counts_repeat": not mismatched,
        "per_pass_overhead_frac": [p["metrics"]["trace.overhead_frac"] for p in passes],
        "find_max_default_probe": probe,
    }
    return {k: metrics[k] for k in PER_LAYER}, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["cli-oneshot", "area-plane", "barnes-sweep"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "conedet", "__init__.py")):
        print(f"conedet sources not found under {SRC}", file=sys.stderr)
        return 2
    original_env = dict(os.environ)
    for var in ("CONEDET_THREADS", "CONEDET_NO_EXT"):
        os.environ.pop(var, None)
    sys.path.insert(0, SRC)
    import conedet

    if not os.path.abspath(conedet.__file__).startswith(SRC + os.sep):
        print(f"conedet was imported from {conedet.__file__}, not {SRC}", file=sys.stderr)
        return 2
    os.makedirs(WORKDIR, exist_ok=True)

    if args.trace:
        from tracing import PER_LAYER as units

        metrics, detail = traced_run(args.workload, args.seed)
    else:
        units = END_TO_END
        metrics, detail = timed_run(args.workload, args.seed, args.seconds)

    checks = detail["checks"]
    result = {
        "correct": not checks["wrong"],
        "attempted": checks["attempted"],
        "failed": checks["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, environment=fingerprint(original_env), **detail)
    path = os.path.join(WORKDIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)

    for problem in checks["wrong"]:
        print(f"check failed: {problem}")
    for key, value in metrics.items():
        print(f"{key} = {value!r} {units[key]}")
    print(f"result file: {os.path.relpath(path, ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
