"""Child process that runs one workload's CLI passes in-process.

Usage: python bench/worker.py SPEC.json RESULT.json

SPEC.json holds the stages (argv lists whose "{out}" is the pass directory),
the artifact names, the seconds to measure, the minimum number of passes,
the work directory and whether to trace. RESULT.json receives per pass the
wall time, the wall time scaled to the reference host speed (see
hostspeed.py), exit codes and artifact digests, plus this process's peak
RSS, which covers only this workload because the process is fresh.

A first pass warms up; timed passes follow until the seconds are spent.
Untraced, the first pass keeps its artifacts as the byte reference. Traced,
every stage runs with one worker thread under the tracer, so that span
durations are busy time, and the spans of the median pass are written to
one file at the end.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import shutil
import sys
import traceback
from pathlib import Path
from time import perf_counter

import hostspeed


def _digests(out: Path, artifacts: list[str]) -> dict:
    result = {}
    for name in artifacts:
        path = out / name
        result[name] = hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None
    return result


def _serial(argv: list[str]) -> list[str]:
    argv = list(argv)
    argv[argv.index("--threads") + 1] = "1"
    return argv


def run_pass(main, stages, out: Path, tracer=None) -> tuple[list, float]:
    """Run the stages in order, stopping at the first that fails; returns
    the exit codes (None for a crash) and the wall time."""
    codes = []
    start = perf_counter()
    for stage, argv in stages:
        argv = [a.replace("{out}", str(out)) for a in argv]
        try:
            code = main(argv) if tracer is None else tracer.stage(stage, main, argv)
        except SystemExit as exc:  # argparse rejects an argument
            code = exc.code
        except Exception:  # a crash fails this pass; later passes still run
            traceback.print_exc()
            code = None
        codes.append(code)
        if code != 0:
            break
    return codes, perf_counter() - start


def run_passes(spec: dict, main, tracer=None) -> tuple[list, list]:
    """A warm-up pass, then passes until the seconds are spent; returns the
    passes and, when traced, the spans of each."""
    work = Path(spec["workdir"])
    prefix, stages = "pass", spec["stages"]
    if tracer is not None:
        prefix, stages = "traced", [(stage, _serial(argv)) for stage, argv in stages]
    passes, recorded = [], []
    deadline = None
    while deadline is None or len(passes) <= spec["min_passes"] or perf_counter() < deadline:
        out = work / f"{prefix}{len(passes)}"
        gc.collect()
        before = hostspeed.loop_seconds()
        codes, seconds = run_pass(main, stages, out, tracer)
        after = hostspeed.loop_seconds()
        entry = {"seconds": seconds, "scaled_seconds": hostspeed.scaled(seconds, before, after),
                 "codes": codes, "digests": _digests(out, spec["artifacts"])}
        if tracer is not None:
            entry["metrics"] = tracer.metrics()
            entry["metrics"]["cli.bytes_written"] = sum(
                p.stat().st_size for p in out.iterdir()) if out.is_dir() else 0
            recorded.append(tracer.reset())
        passes.append(entry)
        if tracer is not None or len(passes) > 1:  # the first untraced pass is the reference
            shutil.rmtree(out, ignore_errors=True)
        if deadline is None:
            deadline = perf_counter() + spec["seconds"]
    return passes, recorded


def traced(spec: dict, main) -> dict:
    import spans

    tracer = spans.Tracer()
    tracer.install()
    passes, recorded = run_passes(spec, main, tracer)
    # The spans of the median pass after the warm-up; all passes of a long
    # run would make a file of tens of megabytes.
    measured = sorted(range(1, len(passes)), key=lambda i: passes[i]["scaled_seconds"])
    median = measured[len(measured) // 2]
    with open(spec["spans_path"], "w", encoding="utf-8") as fh:
        fh.write(json.dumps(["pass", "id", "name", "start", "end", "parent", "key"]) + "\n")
        for i, span in enumerate(recorded[median]):
            fh.write(json.dumps([median, i, *span]) + "\n")
    return {"passes": passes, "missing": tracer.missing}


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    from socialevents.cli import main as cli_main

    if spec["traced"]:
        result = traced(spec, cli_main)
    else:
        result = {"passes": run_passes(spec, cli_main)[0]}
    result["max_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(sys.argv[2]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
