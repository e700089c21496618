"""Benchmark of the socialevents engine: end to end and layer by layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {long,corpus,crowd,rl} --seed N \
        --seconds S --trace {0,1}

The seed makes the workload's inputs (see bench/workloads.py for why each
workload exists); the program sees only the generated files. Set-up builds
the inputs several times and reports the median. The passes run in-process
through socialevents.cli.main in a fresh child process (bench/worker.py),
timed with tracing off; the first pass warms up and is the byte reference
for the rest. Every pass goes through the correctness gate (bench/gate.py):
exit codes, artifact bytes equal to the first pass, and the semantic checks.

--trace 0 prints the end-to-end metrics of BENCHMARK.json. --trace 1 splits
the seconds between untraced passes and passes traced layer by layer
(bench/spans.py), checks that the traced outputs equal the untraced ones
byte for byte, and prints the per-layer metrics.

Human-readable lines come first; the last line of standard output is one
JSON object with correct, attempted, failed and metrics. The full report,
with quartiles, sample counts, input properties, digests and run metadata,
is written to .bench_out/<workload>-seed<N>.json and the spans of the median
traced pass to .bench_out/<workload>-seed<N>.spans.jsonl.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from spans import PROVENANCES

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SECONDS = 3.0  # set-up repeats until this is spent, within the bounds below
SETUP_REPEATS = (3, 9)
MIN_PASSES = 3
WORKER_TIMEOUT_S = 150


def _stats(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values),
            "min": min(values), "max": max(values)}


def _loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return done.stdout.strip() or None


def _version(package: str):
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def _import_seconds(env: dict) -> float:
    """Wall time of a fresh interpreter that imports the CLI."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import socialevents.cli"], env=env, check=True)
    return time.perf_counter() - start


def _worker(spec: dict, path: Path, env: dict) -> dict:
    spec_path = path.with_suffix(".spec.json")
    result_path = path.with_suffix(".result.json")
    spec_path.write_text(json.dumps(spec))
    subprocess.run([sys.executable, str(ROOT / "bench" / "worker.py"), str(spec_path),
                    str(result_path)], env=env, check=True, timeout=WORKER_TIMEOUT_S)
    return json.loads(result_path.read_text())


def _pass_ok(p: dict, reference: dict) -> bool:
    return all(c == 0 for c in p["codes"]) and p["digests"] == reference \
        and None not in reference.values()


def _setup(workloads, name: str, seed: int, work: Path, repeats: tuple[int, int], env: dict):
    """Build the inputs repeatedly, each time after a fresh interpreter has
    imported the CLI; repeats must give the same digests and the first build
    is kept. Returns the inputs, scaled and wall seconds per repeat, and
    whether the digests repeated."""
    import hostspeed

    scaled, wall = [], []
    inputs = None
    same = True
    low, high = repeats
    until = time.perf_counter() + SETUP_SECONDS
    while len(wall) < low or (len(wall) < high and time.perf_counter() < until):
        before = hostspeed.loop_seconds()
        import_s = _import_seconds(env)
        built, build_s = workloads.build(name, work / f"inputs{len(wall)}", seed)
        wall.append(import_s + build_s)
        scaled.append(hostspeed.scaled(wall[-1], before, hostspeed.loop_seconds()))
        if inputs is None:
            inputs = built
        else:
            same &= built.digests == inputs.digests
            shutil.rmtree(built.directory)
    return inputs, scaled, wall, same


def _gate(gate, workloads, inputs, work: Path, passes: list[dict]) -> tuple[list[str], int]:
    """Problems found in the first pass, and the number of failed passes."""
    first = passes[0]
    reference = first["digests"]
    if not _pass_ok(first, reference):
        problems = [f"first pass failed: exit codes {first['codes']}"]
    elif inputs.unit == "frames":
        problems = gate.check_build(work / "pass0", inputs.properties["videos"])
    else:
        problems = gate.check_rl(work / "pass0", inputs.properties["groups"], workloads.K)
    failed = len(passes) if problems else sum(not _pass_ok(p, reference) for p in passes)
    return problems, failed


def _per_layer(traced: dict, properties: dict, untraced_s: float) -> dict:
    """Medians over the traced passes after the warm-up, plus the input's
    contested-frame counts and the tracing overhead."""
    runs = [p["metrics"] for p in traced["passes"][1:]]
    layer = {key: statistics.median(r[key] for r in runs) for key in runs[0]}
    for key in ("frames_contested", "frames_contested_wide"):
        layer[f"identity.{key}"] = properties.get(key, {"count": 0})["count"]
    traced_s = statistics.median(p["scaled_seconds"] for p in traced["passes"][1:])
    layer["trace.overhead"] = traced_s / untraced_s
    return layer


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("long", "corpus", "crowd", "rl"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "socialevents" / "cli.py").is_file():
        print(f"error: program source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec_file = json.loads((ROOT / "BENCHMARK.json").read_text())
    import gate
    import hostspeed
    # Imported here so that no set-up repeat pays for it; set-up times the
    # import in a fresh interpreter instead.
    import socialevents.cli  # noqa: F401
    import workloads

    env = dict(os.environ, PYTHONPATH=str(SRC))
    meta = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "loadavg_before": _loadavg(),
        "git_commit": _git_commit(),
        "command": [sys.executable, *sys.argv],
    }
    name = f"{args.workload}-seed{args.seed}"
    work = OUT / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    repeats = SETUP_REPEATS if args.trace == 0 else (1, 1)
    inputs, setup_s, setup_wall_s, digests_repeat = _setup(
        workloads, args.workload, args.seed, work, repeats, env)

    base = {"stages": inputs.stages, "artifacts": inputs.artifacts,
            "workdir": str(work), "min_passes": MIN_PASSES}
    share = args.seconds if args.trace == 0 else args.seconds / 2
    timed = _worker({**base, "seconds": share, "traced": False}, work / "timed", env)
    traced = None
    if args.trace:
        try:
            traced = _worker({**base, "seconds": share, "traced": True,
                              "spans_path": str(OUT / f"{name}.spans.jsonl")},
                             work / "traced", env)
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
            print(f"warning: traced run failed, per-layer metrics missing: {exc}",
                  file=sys.stderr)

    all_passes = timed["passes"] + (traced["passes"] if traced else [])
    problems, failed = _gate(gate, workloads, inputs, work, all_passes)

    timed_passes = timed["passes"][1:]
    pass_s = [p["scaled_seconds"] for p in timed_passes]
    pass_wall_s = [p["seconds"] for p in timed_passes]
    properties = dict(inputs.properties)
    if inputs.frames:
        contested, wide = workloads.contested_frames(inputs.frames)
        properties["frames_contested"] = workloads.share(contested, len(inputs.frames))
        properties["frames_contested_wide"] = workloads.share(wide, len(inputs.frames))
        if not problems:
            properties["qa_by_category"] = workloads.category_shares(
                workloads.read_jsonl(work / "pass0" / "qa.jsonl"))

    end_to_end = {
        "throughput": _stats([inputs.units / s for s in pass_s]),
        "setup_s": _stats(setup_s),
        "peak_rss_mb": timed["max_rss_kb"] / 1024,
        "pass_s": _stats(pass_s),
        "wall_throughput": _stats([inputs.units / s for s in pass_wall_s]),
        "wall_setup_s": _stats(setup_wall_s),
    }
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "unit_of_work": inputs.unit, "units_per_pass": inputs.units,
        "input_digests": inputs.digests, "input_digests_repeat": digests_repeat,
        "gate_problems": problems[:20], "attempted": len(all_passes), "failed": failed,
        "failed_ratio": failed / len(all_passes),
        "end_to_end": end_to_end,
        "wall_pass_seconds": pass_wall_s,
        "reference_host_loop_s": hostspeed.REFERENCE_S,
        "properties": properties,
    }
    values = {key: end_to_end[key]["median"] for key in ("throughput", "setup_s")}
    values["peak_rss_mb"] = end_to_end["peak_rss_mb"]
    if args.trace:
        values = {}
        if traced:
            values = _per_layer(traced, properties, statistics.median(pass_s))
            properties["samples_by_provenance"] = {
                p: workloads.share(values.get(f"gaze.samples_{p}", 0),
                                   sum(values.get(f"gaze.samples_{q}", 0) for q in PROVENANCES))
                for p in PROVENANCES}
            report["missing_functions"] = traced["missing"]
        report["per_layer"] = values
    meta["loadavg_after"] = _loadavg()
    report["meta"] = meta

    section = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec_file[section] if m["name"] in values}
    missing = [m["name"] for m in spec_file[section] if m["name"] not in values]
    report["missing_metrics"] = missing
    OUT.joinpath(f"{name}.json").write_text(json.dumps(report, indent=1))
    shutil.rmtree(work)

    print(f"workload {args.workload} seed {args.seed}: {inputs.units} {inputs.unit} per pass, "
          f"{len(pass_s)} timed passes; nproc {meta['nproc']}, python {meta['python']}, "
          f"numpy {meta['numpy']}, scipy {meta['scipy']}, commit {meta['git_commit']}, "
          f"loadavg {meta['loadavg_before']} -> {meta['loadavg_after']}")
    for key, stats in end_to_end.items():
        if isinstance(stats, dict):
            print(f"  {key:<16} median {stats['median']:.6g}  q1 {stats['q1']:.6g}  "
                  f"q3 {stats['q3']:.6g}  n {stats['n']}")
        else:
            print(f"  {key:<16} {stats:.6g}")
    print(f"  failed_ratio     {failed}/{len(all_passes)}")
    for metric, entry in metrics.items():
        print(f"  {metric} = {entry['value']:.6g} {entry['unit']}")
    for key, digest in inputs.digests.items():
        print(f"  sha256 {key} {digest}")
    if missing:
        print(f"  missing metrics: {', '.join(missing)}")
    for problem in problems[:20]:
        print(f"  gate: {problem}")

    correct = failed == 0 and digests_repeat
    print(json.dumps({"correct": correct, "attempted": len(all_passes), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
