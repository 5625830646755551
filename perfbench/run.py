"""chorcheck benchmark: CLI calls as users make them, checked and timed.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fanin --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

Each call is one in-process `chorcheck.cli.main([...])` with its standard
output captured and compared with the expected answer in `workloads.py`.
A pass issues every call of the workload once, in an order the seed
shuffles.  Passes form a closed loop: one client, one thread, the next call
issued when the previous one returns, until `--seconds` have passed.

Workloads (see BENCHMARK.json for why each was chosen):

* fanin    -- `check` on the fan-in family at k=3 (conforming), 1 call a pass.
* lts      -- `lts -o FILE` on the fan-in collaboration at k=3, 1 call a pass.
* corpus   -- the paper's case studies, 19 calls a pass.
* all      -- every workload above, each in its own process, traced and not.

With `--trace 0` the run reports end-to-end metrics: `pass_s.best`, the
sum over the workload's calls of each call's fastest time in the run, the
process's peak RSS, and `setup_s`, the time from spawning a fresh interpreter
to `import chorcheck.cli` done (median over several spawns).  Fastest times,
not medians, are the gated ones because the shared hosts this runs on change
speed by up to half for seconds to minutes at a time: a run's median call
measures how much of the run fell in a slow stretch, while nearly every run
of this length holds some calls at full speed.  Short calls with small
working sets catch those stretches best, which is why the generated families
run at k=3.  The median and 90th percentile pass and the calls per second
are printed too.  With `--trace 1` traced and untraced passes alternate; the
traced ones give per-layer self times and size counters (see `spans.py`),
averaged per call, and the two halves give the tracing overhead.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("fanin", "lts", "corpus")
SETUP_SPAWNS = 15
P90_MIN_PASSES = 100  # at least ten samples lie beyond the 90th percentile

sys.path.insert(0, str(HERE))
from workloads import Call, corpus_calls, generated_calls  # noqa: E402

END_TO_END = {
    "pass_s.best": "s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}

# Per-layer metric -> unit.  Times are self times; every value is per call.
PER_LAYER = {
    "cli.self_s": "s",
    "text_syntax.parse_s": "s",
    "text_syntax.calls": "count",
    "bpmn_xml.load_s": "s",
    "composition.compose_s": "s",
    "semantics.generate_lts_s": "s",
    "semantics.states": "count",
    "semantics.transitions": "count",
    "semantics.us_per_transition": "us",
    "semantics.hide_s": "s",
    "semantics.tau_transitions": "count",
    "conformance.saturate_s": "s",
    "conformance.saturate_calls": "count",
    "conformance.closure_pairs": "count",
    "conformance.weak_transitions": "count",
    "conformance.check_tbc.self_s": "s",
    "conformance.check_bbc.self_s": "s",
    "conformance.counterexample_len": "count",
    "conformance.export_aut_s": "s",
    "conformance.aut_bytes": "count",
    "trace.overhead_ratio": "ratio",
}

# Span layer (see spans.SITES) -> the per-layer metric reporting its self time.
SELF_TIME = {
    "cli": "cli.self_s",
    "text_syntax.parse": "text_syntax.parse_s",
    "bpmn_xml.load": "bpmn_xml.load_s",
    "composition.compose": "composition.compose_s",
    "semantics.generate_lts": "semantics.generate_lts_s",
    "semantics.hide": "semantics.hide_s",
    "conformance.saturate": "conformance.saturate_s",
    "conformance.check_tbc": "conformance.check_tbc.self_s",
    "conformance.check_bbc": "conformance.check_bbc.self_s",
    "conformance.export_aut": "conformance.export_aut_s",
}


def measure_setup(spawns: int) -> float:
    """Median time from spawning a fresh interpreter to `import chorcheck.cli` done.

    The child prints `time.monotonic()` once the import has finished; the
    clock is system-wide, so the parent can subtract its own spawn time.  One
    spawn before the timed ones writes the bytecode caches.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = "import chorcheck.cli, time; print(time.monotonic())"
    times = []
    for i in range(spawns + 1):
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=ROOT,
            capture_output=True, text=True, check=True,
        )
        if i:
            times.append(float(done.stdout) - start)
    return statistics.median(times)


def calls_for(workload: str) -> list[Call]:
    if workload == "corpus":
        return corpus_calls()
    return generated_calls(workload, OUT / workload)


def verify(call: Call, code: int, stdout: str) -> str:
    """Return '' if the call gave its expected answer, else what differed."""
    problems = []
    if code != call.code:
        problems.append(f"exit code {code}, expected {call.code}")
    if stdout != call.stdout:
        problems.append(f"stdout {stdout!r}, expected {call.stdout!r}")
    if call.out:
        try:
            data = Path(call.out).read_bytes()
        except OSError as err:
            problems.append(f"cannot read {call.out}: {err}")
        else:
            header = data[: data.find(b"\n")].decode("ascii", "replace")
            if header != call.aut_header:
                problems.append(f"header {header!r}, expected {call.aut_header!r}")
            sha256 = hashlib.sha256(data).hexdigest()
            if sha256 != call.aut_sha256:
                problems.append(f".aut sha256 {sha256}, expected {call.aut_sha256}")
    return "; ".join(problems)


def run_call(main, call: Call, tracer=None) -> tuple[float, str]:
    """Issue one call; return its wall time and '' or a description of the failure."""
    if call.out:
        Path(call.out).unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    paused = tracer.paused_s if tracer is not None else 0.0
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            if tracer is None:
                code = main(list(call.argv))
            else:
                code = tracer.call(main, list(call.argv))
    except Exception:  # a raising call is a failed call; the run goes on
        return time.perf_counter() - start, "raised " + traceback.format_exc()
    elapsed = time.perf_counter() - start
    if tracer is not None:
        elapsed -= tracer.paused_s - paused  # counting is not part of the call
    problem = verify(call, code, stdout.getvalue())
    if problem and stderr.getvalue():
        problem += f"; stderr {stderr.getvalue()!r}"
    return elapsed, problem


def closed_loop(calls: list[Call], seed: int, seconds: float, tracer=None):
    """Run passes back to back for `seconds`; with a tracer, trace every other pass.

    A pass's time is the sum of its calls' times.  Returns (untraced pass
    times, traced pass times, each call's fastest untraced time, failures,
    elapsed seconds).
    """
    from chorcheck.cli import main

    rng = random.Random(seed)
    plain, traced, failures = [], [], []
    fastest = dict.fromkeys(calls, float("inf"))
    at_least = 1 if tracer is None else 2  # one traced and one untraced pass
    start = time.perf_counter()
    deadline = start + seconds
    while len(plain) + len(traced) < at_least or time.perf_counter() < deadline:
        use_tracer = tracer is not None and len(traced) < len(plain)
        order = list(calls)
        rng.shuffle(order)
        pass_s = 0.0
        for call in order:
            if use_tracer:
                tracer.install()
                try:
                    elapsed, problem = run_call(main, call, tracer)
                finally:
                    tracer.uninstall()
            else:
                elapsed, problem = run_call(main, call)
                fastest[call] = min(fastest[call], elapsed)
            pass_s += elapsed
            if problem:
                failures.append((call, problem))
        (traced if use_tracer else plain).append(pass_s)
    return plain, traced, fastest, failures, time.perf_counter() - start


def end_to_end(fastest: dict, setup_s: float) -> dict:
    return {
        "pass_s.best": sum(fastest.values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
    }


def per_layer(tracer, plain: list[float], traced: list[float], calls_per_pass: int) -> dict:
    n = len(traced) * calls_per_pass
    values = {name: 0.0 for name in PER_LAYER}
    for layer, seconds in tracer.self_s.items():
        values[SELF_TIME[layer]] = seconds / n
    for name, count in tracer.counts.items():
        values[name] = count / n
    transitions = tracer.counts.get("semantics.transitions", 0)
    if transitions:
        values["semantics.us_per_transition"] = (
            tracer.self_s["semantics.generate_lts"] / transitions * 1e6
        )
    values["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    return values


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> int:
    if not (SRC / "chorcheck" / "cli.py").is_file():
        print(f"error: no chorcheck sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    setup_s = 0.0 if trace else measure_setup(SETUP_SPAWNS)
    import chorcheck.cli  # noqa: F401  (imported before the clock starts)

    calls = calls_for(workload)
    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
    plain, traced, fastest, failures, elapsed = closed_loop(calls, seed, seconds, tracer)
    attempted = (len(plain) + len(traced)) * len(calls)

    for (call, problem), times in Counter(failures).items():
        print(f"FAIL {call.name} ({times}x): {' '.join(call.argv)}\n  {problem}")
    print(f"{workload}: {attempted} calls in {elapsed:.2f} s, "
          f"failed_ratio {len(failures) / attempted:.4f} ({len(failures)} failed)")
    if trace:
        metrics, units = per_layer(tracer, plain, traced, len(calls)), PER_LAYER
        print(f"traced passes: {len(traced)}, untraced passes: {len(plain)}")
        total = sum(tracer.self_s.values())
        for layer, seconds in sorted(tracer.self_s.items(), key=lambda kv: -kv[1]):
            print(f"share {SELF_TIME[layer]} {100 * seconds / total:.1f} %")
        for site in tracer.absent:
            print(f"absent span: {site}")
        for note in sorted(tracer.uncounted):
            print(f"uncounted: {note}")
    else:
        metrics, units = end_to_end(fastest, setup_s), END_TO_END
        print(f"passes: {len(plain)}, {len(calls)} calls each")
        print(f"pass_s.p50 = {statistics.median(plain):.6f} s")
        if len(plain) >= P90_MIN_PASSES:
            print(f"pass_s.p90 = {statistics.quantiles(plain, n=10)[-1]:.6f} s")
        print(f"calls_per_s = {attempted / elapsed:.4f} 1/s")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def run_all(seed: int, seconds: float) -> int:
    """Run every workload in its own process, untraced then traced."""
    ok = True
    summary = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
            lines = done.stdout.splitlines()
            print(f"== {workload} trace={trace} (exit {done.returncode})")
            print("\n".join(lines[:-1]))
            if done.returncode != 0 or not lines:
                sys.stderr.write(done.stderr)
                ok = False
                continue
            result = json.loads(lines[-1])
            ok = ok and result["correct"]
            summary.setdefault(workload, {}).update(result["metrics"])
    print(json.dumps(summary))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
