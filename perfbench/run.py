"""Benchmark of ``RealConfig.apply_changes`` as shipped, end to end and
layer by layer.

Run from the repository root::

    python3 perfbench/run.py --workload ospf-flap-abort-k6 --seed 1 --seconds 35 --trace 0

Each workload runs in this one process as a single-threaded closed loop:
one caller waits for each verification, as an operator or ``repro serve``
does.  The verifier is the shipped default (transactional, ``workers=1``,
lint off).  The workloads are defined in ``perfbench/inputs.py``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` prints the
per-layer metrics of a separate traced run (see ``perfbench/tracing.py``)
and writes its spans to ``perfbench/out/``.  Correctness is checked in
every run, outside the timed region; a mismatch makes the command exit 1.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: ``RealConfig`` constructions per run; ``setup_s`` is their median.
SETUPS = 3
#: Aborted calls made after the loop by workloads that do not abort inside it.
PROBES = 9
#: Commits a loop makes at least, so that the tail percentile (ten
#: samples beyond it) is at or above the median.
MIN_COMMITS = 20

#: name -> (value, unit, the samples it summarises)
Metrics = Dict[str, Tuple[float, str, str]]


class AbortRequested(Exception):
    """Raised by the abort hook, as a deadline check would be."""


class Stream:
    """Drives one verifier through a workload's change pairs."""

    def __init__(self, workload, verifier, tracer=None) -> None:
        from repro.serve.stream import fib_fingerprint

        self.workload = workload
        self.verifier = verifier
        self.tracer = tracer
        self.fingerprint_of = fib_fingerprint
        self.commits_ms: List[float] = []
        self.rollbacks_ms: List[float] = []
        self.attempted = 0
        self.failures: List[str] = []
        self.check_seconds = 0.0
        self.loop_seconds = 0.0
        self.pairs_done = 0
        self.mid = None
        self.start_fingerprint = self._fingerprint()
        #: Fingerprint of the current state, while no commit has changed it.
        self.known: Optional[str] = self.start_fingerprint

    def _fingerprint(self) -> str:
        started = time.perf_counter()
        fingerprint = self.fingerprint_of(self.verifier)
        self.check_seconds += time.perf_counter() - started
        return fingerprint

    def _call(self, kind: str, batch) -> None:
        self.attempted += 1
        if self.tracer is None:
            self.verifier.apply_changes(batch)
        else:
            self.tracer.verification(kind, lambda: self.verifier.apply_changes(batch))

    def commit(self, batch) -> bool:
        self.known = None
        started = time.perf_counter()
        try:
            self._call("commit", batch)
        except Exception as exc:  # any exception is a wrong outcome
            self.failures.append(f"commit {_describe(batch)} raised {exc!r}")
            return False
        self.commits_ms.append((time.perf_counter() - started) * 1000.0)
        return True

    def abort(self, batch) -> bool:
        """Abort ``batch`` at the first stage boundary after the policy
        check returns, so generator, model and checker state all roll
        back; the fingerprint must then equal its pre-attempt value."""
        before = self.known if self.known is not None else self._fingerprint()
        checker = self.verifier.checker
        owned = "check_batch" in vars(checker)
        check_batch = checker.check_batch
        checked = []

        def check_then_flag(*args, **kwargs):
            report = check_batch(*args, **kwargs)
            checked.append(True)
            return report

        def hook() -> None:
            if checked:
                raise AbortRequested()

        checker.check_batch = check_then_flag
        self.verifier.abort_check = hook
        started = time.perf_counter()
        try:
            self._call("abort", batch)
        except AbortRequested:
            self.rollbacks_ms.append((time.perf_counter() - started) * 1000.0)
        except Exception as exc:  # any other exception is a wrong outcome
            self.failures.append(f"abort {_describe(batch)} raised {exc!r}")
            return False
        else:
            self.failures.append(f"abort {_describe(batch)} committed")
            return False
        finally:
            self.verifier.abort_check = None
            if owned:
                checker.check_batch = check_batch
            else:
                del checker.check_batch
        self.known = self._fingerprint()
        if self.known != before:
            self.failures.append(f"rollback of {_describe(batch)} left state changed")
            return False
        return True

    def run(
        self,
        seconds: Optional[float] = None,
        min_commits: int = MIN_COMMITS,
        pairs: Optional[int] = None,
    ) -> None:
        """The closed loop: for ``seconds`` of loop time and at least
        ``min_commits`` commits, or over exactly ``pairs`` pairs.  A pair
        always completes, so the stream ends where it started."""
        started = time.perf_counter()
        checks_before = self.check_seconds
        workload = self.workload
        while not self.failures:
            elapsed = time.perf_counter() - started - (self.check_seconds - checks_before)
            if pairs is not None:
                if self.pairs_done >= pairs:
                    break
            elif elapsed >= seconds and len(self.commits_ms) >= min_commits:
                break
            do, undo = workload.pairs[self.pairs_done % len(workload.pairs)]
            if workload.abort_first and not self.abort(do):
                break
            if not self.commit(do):
                break
            if self.mid is None:
                self.mid = (self.verifier.snapshot, self._fingerprint())
            self.commit(undo)
            self.pairs_done += 1
        self.loop_seconds = (
            time.perf_counter() - started - (self.check_seconds - checks_before)
        )

    def probe_rollbacks(self) -> None:
        """Aborted calls for workloads whose loop has none, so that every
        workload reports the rollback latency of its state size."""
        if self.workload.abort_first:
            return
        for do, _ in self.workload.pairs[:PROBES]:
            if not self.abort(do):
                return

    def check_end(self) -> None:
        if not self.failures and self._fingerprint() != self.start_fingerprint:
            self.failures.append("state after the stream differs from after set-up")

    def check_from_scratch(self) -> None:
        """A verifier built from scratch on the mid-stream snapshot must
        reach the fingerprint the incremental one had there."""
        if self.failures:
            return
        if self.mid is None:
            self.failures.append("no mid-stream state was recorded")
            return
        snapshot, expected = self.mid
        self.verifier = None
        gc.collect()
        workload = self.workload
        from repro.core.realconfig import RealConfig

        self.verifier = RealConfig(
            snapshot, endpoints=workload.endpoints, policies=workload.policies
        )
        if self._fingerprint() != expected:
            self.failures.append("from-scratch verifier disagrees mid-stream")
        self.verifier = None


def _describe(batch) -> str:
    return "; ".join(change.describe() for change in batch)


def _tail(samples: List[float]) -> Tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and its
    value: the eleventh-largest sample."""
    ordered = sorted(samples)
    n = len(ordered)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def _fresh_verifier(workload):
    gc.collect()
    return workload.verifier()


def end_to_end(workload, seconds: float) -> Tuple[Metrics, List[Stream], List[str]]:
    setup: List[float] = []
    verifier = None
    for _ in range(SETUPS):
        verifier = None
        gc.collect()
        started = time.perf_counter()
        verifier = workload.verifier()
        setup.append(time.perf_counter() - started)
    stream = Stream(workload, verifier)
    verifier = None
    gc.collect()
    stream.run(seconds=seconds)
    stream.probe_rollbacks()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    stream.check_end()
    stream.check_from_scratch()

    metrics: Metrics = {"setup_s": (statistics.median(setup), "s", f"n={len(setup)}")}
    commits = stream.commits_ms
    if len(commits) >= MIN_COMMITS:
        percentile, tail = _tail(commits)
        n = f"n={len(commits)}"
        metrics["verify_p50_ms"] = (statistics.median(commits), "ms", n)
        metrics["verify_tail_ms"] = (tail, "ms", f"{n}, p{percentile:.1f}")
        metrics["verifies_per_s"] = (
            len(commits) / stream.loop_seconds,
            "1/s",
            f"{n} in {stream.loop_seconds:.1f} s",
        )
    if stream.rollbacks_ms:
        where = "in the loop" if workload.abort_first else "probes after the loop"
        metrics["rollback_p50_ms"] = (
            statistics.median(stream.rollbacks_ms),
            "ms",
            f"n={len(stream.rollbacks_ms)}, {where}",
        )
    metrics["peak_rss_mb"] = (peak_mb, "MB", "n=1")
    return metrics, [stream], []


def _traced_pass(workload, tracing, **run_args) -> Tuple[Stream, object]:
    verifier = _fresh_verifier(workload)
    tracer = tracing.Tracer()
    tracer.instrument(verifier)
    try:
        stream = Stream(workload, verifier, tracer)
        stream.run(**run_args)
        stream.probe_rollbacks()
        stream.check_end()
    finally:
        tracer.unwrap_all()
    return stream, tracer


def per_layer(workload, seconds: float, spans_path: Path) -> Tuple[Metrics, List[Stream], List[str]]:
    import tracing

    # Two traced passes sandwich one untraced pass over the same pairs, so
    # host drift biases the tracing overhead less.  The first pass's pair
    # count fixes the inputs of the other two.
    first, first_tracer = _traced_pass(
        workload, tracing, seconds=seconds / 3, min_commits=1
    )
    streams = [first]
    tracers = [first_tracer]
    if not first.failures:
        baseline = Stream(workload, _fresh_verifier(workload))
        baseline.run(pairs=first.pairs_done)
        baseline.check_end()
        baseline.check_from_scratch()
        streams.append(baseline)
        if not baseline.failures:
            second, second_tracer = _traced_pass(
                workload, tracing, pairs=first.pairs_done
            )
            streams.append(second)
            tracers.append(second_tracer)

    notes: List[str] = []
    if len(tracers) < 2 or any(stream.failures for stream in streams):
        return {}, streams, notes
    unrepeated = tracing.unrepeated_counters(tracers[0], tracers[1])
    if unrepeated:
        streams[-1].failures.append(
            "work counters differ between two traced passes over the same inputs: "
            + ", ".join(unrepeated)
        )
        return {}, streams, notes

    spans_path.parent.mkdir(parents=True, exist_ok=True)
    with open(spans_path, "w", encoding="utf-8") as handle:
        for label, tracer in zip(("traced-1", "traced-2"), tracers):
            tracer.write(handle, label)
    notes.append(f"spans written to {spans_path.relative_to(HERE.parent)}")

    metrics, shares = tracing.layer_metrics(
        tracers, statistics.median(streams[1].commits_ms)
    )
    notes.append(
        "share of committed verify wall-clock (self time): "
        + ", ".join(f"{layer} {share * 100:.1f}%" for layer, share in shares.items())
    )
    return metrics, streams, notes


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import inputs

    if args.workload not in inputs.WORKLOADS:
        parser.error(
            f"unknown workload {args.workload!r} "
            f"(one of {', '.join(inputs.WORKLOADS)})"
        )

    workload = inputs.build(args.workload, args.seed)
    if args.trace:
        spans_path = HERE / "out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        metrics, streams, notes = per_layer(workload, args.seconds, spans_path)
    else:
        metrics, streams, notes = end_to_end(workload, args.seconds)

    attempted = sum(stream.attempted for stream in streams)
    failures = [failure for stream in streams for failure in stream.failures]
    for failure in failures:
        print(f"FAILED: {failure}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for name, (value, unit, samples) in metrics.items():
        print(f"  {name:28s} {value:14.4f} {unit:6s} {samples}")
    print(
        f"  {'failed_ratio':28s} {len(failures) / max(attempted, 1):14.4f} "
        f"{'ratio':6s} {len(failures)} of {attempted} operations"
    )
    for note in notes:
        print(f"  {note}")
    correct = not failures
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": max(attempted, 1),
                "failed": len(failures),
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
