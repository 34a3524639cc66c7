"""Span recording for the traced run, done from the benchmark's own files.

The program under test is not edited: :class:`Tracer` wraps public
functions of one verifier's components (on the instances) and the module
globals the pipeline calls through, records a span around each call, and
undoes every wrapper when the traced pass ends.  Spans are kept in memory
and written out as JSON lines when the run ends.

Each span records its name, start, end, parent span and the verification
it belongs to.  A layer's self time is its span's duration minus the
durations of its child spans; the calls are single-threaded, so children
never overlap and nothing waits, so no wait time is reported.
"""

from __future__ import annotations

import gc
import json
import statistics
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

import repro.config.diff as config_diff
import repro.core.realconfig as realconfig
import repro.policy.checker as policy_checker
import repro.routing.program as routing_program

#: Span names, grouped into the layers whose self time adds up to the
#: whole verification (``verify`` is the root the benchmark opens).
LAYERS: Dict[str, Tuple[str, ...]] = {
    "txn.capture": (
        "txn.capture.generator",
        "txn.capture.model",
        "txn.capture.checker",
    ),
    "txn.restore": (
        "txn.restore.generator",
        "txn.restore.model",
        "txn.restore.checker",
    ),
    "config": ("config.apply_changes", "config.snapshot_lines"),
    "generation": ("generation",),
    "routing": ("routing.update_to", "routing.extract_facts"),
    "ddlog": ("ddlog.run_epoch",),
    "dataplane": ("dataplane.apply",),
    "policy.analyze": ("policy.analyze_ec",),
    "policy.evaluate": ("policy.check_batch",),
    "unattributed": ("verify",),
}

#: Work counters that must repeat exactly across two traced passes over
#: the same inputs.
EXACT_COUNTERS = (
    "ddlog.records",
    "ddlog.recompute_calls",
    "policy.next_devices_calls",
    "dataplane.moves",
    "txn.records_captured",
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "verification")

    def __init__(
        self, name: str, start: float, parent: Optional[int], verification: int
    ) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.verification = verification

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Verification:
    """One ``apply_changes`` call: its kind, root span and work counters."""

    def __init__(self, index: int, kind: str) -> None:
        self.index = index
        self.kind = kind
        self.root = -1
        self.counters: Dict[str, float] = {}


class Tracer:
    """In-memory span and counter recorder for one traced pass."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.verifications: List[Verification] = []
        self._stack: List[int] = []
        self._deferred: List[Callable[[], None]] = []
        self._undo: List[Tuple[Any, str, Any, bool]] = []
        self._engine: Any = None
        self._gc_started = 0.0

    # -- spans and counters ---------------------------------------------------

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        verification = self.verifications[-1].index if self.verifications else -1
        self.spans.append(Span(name, time.perf_counter(), parent, verification))
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, amount: float) -> None:
        counters = self.verifications[-1].counters
        counters[name] = counters.get(name, 0) + amount

    def defer(self, thunk: Callable[[], None]) -> None:
        """Run ``thunk`` after the verification's root span has ended, so
        counters that cost work to derive add no time to any span."""
        self._deferred.append(thunk)

    def verification(self, kind: str, call: Callable[[], Any]) -> Any:
        """Run ``call`` as one verification under a ``verify`` root span."""
        record = Verification(len(self.verifications), kind)
        self.verifications.append(record)
        # The capture copies the state as it stands before the call.
        self.count("txn.records_captured", self._engine.state_size())
        record.root = self.begin("verify")
        try:
            return call()
        finally:
            self.end(record.root)
            deferred, self._deferred = self._deferred, []
            for thunk in deferred:
                thunk()

    # -- wrapping -------------------------------------------------------------

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: Optional[str],
        after: Optional[Callable[[Any], None]] = None,
    ) -> None:
        """Replace ``owner.attr`` by a wrapper that records a span named
        ``name`` (no span when ``None``) and then calls ``after(result)``.  :meth:`unwrap_all` puts the original back."""
        original = getattr(owner, attr)
        begin, end = self.begin, self.end

        if name is None:

            def wrapper(*args, **kwargs):
                result = original(*args, **kwargs)
                after(result)
                return result

        else:

            def wrapper(*args, **kwargs):
                index = begin(name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    end(index)
                if after is not None:
                    after(result)
                return result

        self._undo.append((owner, attr, original, attr in vars(owner)))
        setattr(owner, attr, wrapper)

    def _on_gc(self, phase: str, info: Dict[str, int]) -> None:
        """Charge collector pauses inside a verification to it: the pause
        lands in whichever span was open, so it is reported on its own."""
        if phase == "start":
            self._gc_started = time.perf_counter()
        elif self._stack:
            self.count("gc.pause_ms", (time.perf_counter() - self._gc_started) * 1000.0)
            if info["generation"] == 2:
                self.count("gc.full_collections", 1)

    def unwrap_all(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._undo:
            owner, attr, original, owned = self._undo.pop()
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def instrument(self, verifier: Any) -> None:
        """Wrap every layer boundary of one verifier's pipeline."""
        generator = verifier.generator
        control_plane = generator.control_plane
        engine = control_plane.compiled.engine
        self._engine = engine
        model = verifier.model
        count, defer = self.count, self.defer
        gc.callbacks.append(self._on_gc)

        for part in ("generator", "model", "checker"):
            component = getattr(verifier, part)
            self.wrap(component, "capture_state", f"txn.capture.{part}")
            self.wrap(component, "restore_state", f"txn.restore.{part}")

        def lines(counter):
            def derive():
                count("config.lines_rendered", sum(counter.values()))
                count(
                    "config.devices_rendered",
                    len({line.device for line in counter}),
                )

            defer(derive)

        self.wrap(realconfig, "apply_changes", "config.apply_changes")
        self.wrap(config_diff, "snapshot_lines", "config.snapshot_lines", lines)

        self.wrap(
            generator,
            "update_to",
            "generation",
            lambda updates: count("generation.rule_updates", len(updates)),
        )
        self.wrap(
            control_plane,
            "update_to",
            "routing.update_to",
            lambda _: count("routing.fact_changes", control_plane.last_fact_changes),
        )
        self.wrap(routing_program, "extract_facts", "routing.extract_facts")

        def epoch(stats):
            count("ddlog.iterations", stats.iterations)
            count("ddlog.messages", stats.messages)
            count("ddlog.records", stats.records)
            count("ddlog.recompute_calls", stats.recompute_calls)
            defer(lambda: count("ddlog.state_records", engine.state_size()))

        self.wrap(engine, "run_epoch", "ddlog.run_epoch", epoch)

        def batch(result):
            count("dataplane.moves", len(result.moves))

            def derive():
                count("dataplane.ports_touched", result.ports_touched)
                count("dataplane.affected_ecs", len(result.affected_ec_ids(model)))
                count("dataplane.ecs_total", model.num_ecs())

            defer(derive)

        self.wrap(verifier.updater, "apply", "dataplane.apply", batch)

        def report(result):
            count("policy.ecs_analyzed", len(result.affected_ecs))
            count("policy.rechecked", result.policies_rechecked)

        self.wrap(verifier.checker, "check_batch", "policy.check_batch", report)
        self.wrap(policy_checker, "analyze_ec", "policy.analyze_ec")
        # Counted, not spanned: thousands of calls per verification.
        self.wrap(
            model, "next_devices", None, lambda _: count("policy.next_devices_calls", 1)
        )

    # -- derived figures ------------------------------------------------------

    def span_times(self) -> List[Dict[str, Dict[str, float]]]:
        """Per verification: span name -> {"total": s, "self": s}, summed
        over the spans of that name."""
        child_seconds = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_seconds[span.parent] += span.seconds
        out: List[Dict[str, Dict[str, float]]] = [
            {} for _ in self.verifications
        ]
        for index, span in enumerate(self.spans):
            if span.verification < 0:
                continue
            entry = out[span.verification].setdefault(
                span.name, {"total": 0.0, "self": 0.0}
            )
            entry["total"] += span.seconds
            entry["self"] += span.seconds - child_seconds[index]
        return out

    def write(self, handle, label: str) -> None:
        """Write every span as one JSON line, tagged with ``label``."""
        for span in self.spans:
            record = {
                "pass": label,
                "name": span.name,
                "start": span.start,
                "end": span.end,
                "parent": span.parent,
                "verification": span.verification,
            }
            handle.write(json.dumps(record) + "\n")


def layer_metrics(
    tracers: List[Tracer], untraced_p50_ms: float
) -> Tuple[Dict[str, Tuple[float, str, str]], Dict[str, float]]:
    """Per-layer metrics as ``name -> (value, unit, sample note)`` (medians
    per committed verification), plus each layer's share of the committed verifications'
    wall-clock time."""
    commits: List[Tuple[Dict[str, Dict[str, float]], Dict[str, float]]] = []
    aborts: List[Dict[str, Dict[str, float]]] = []
    for tracer in tracers:
        for times, record in zip(tracer.span_times(), tracer.verifications):
            if record.kind == "commit":
                commits.append((times, record.counters))
            else:
                aborts.append(times)

    def total(times, *names):
        return sum(times.get(name, {}).get("total", 0.0) for name in names)

    def self_time(times, *names):
        return sum(times.get(name, {}).get("self", 0.0) for name in names)

    def median_ms(values):
        return (statistics.median(values) * 1000.0, "ms", f"n={len(values)}")

    def median_count(key):
        values = [counters.get(key, 0) for _, counters in commits]
        return (statistics.median(values), "count", f"n={len(values)}")

    metrics: Dict[str, Tuple[float, str, str]] = {}
    capture = LAYERS["txn.capture"]
    restore = LAYERS["txn.restore"]
    metrics["txn.capture_ms"] = median_ms([total(t, *capture) for t, _ in commits])
    metrics["txn.restore_ms"] = median_ms([total(t, *restore) for t in aborts])
    metrics["txn.records_captured"] = median_count("txn.records_captured")
    metrics["config.diff_ms"] = median_ms(
        [total(t, "config.apply_changes") for t, _ in commits]
    )
    metrics["config.lines_rendered"] = median_count("config.lines_rendered")
    metrics["config.devices_rendered"] = median_count("config.devices_rendered")
    metrics["generation_ms"] = median_ms([total(t, "generation") for t, _ in commits])
    metrics["generation.rule_updates"] = median_count("generation.rule_updates")
    metrics["routing.facts_ms"] = median_ms(
        [total(t, "routing.extract_facts") for t, _ in commits]
    )
    metrics["routing.fact_changes"] = median_count("routing.fact_changes")
    metrics["ddlog.epoch_ms"] = median_ms(
        [total(t, "ddlog.run_epoch") for t, _ in commits]
    )
    for key in (
        "iterations",
        "messages",
        "records",
        "recompute_calls",
        "state_records",
    ):
        metrics[f"ddlog.{key}"] = median_count(f"ddlog.{key}")
    metrics["dataplane.apply_ms"] = median_ms(
        [total(t, "dataplane.apply") for t, _ in commits]
    )
    for key in ("moves", "ports_touched", "affected_ecs", "ecs_total"):
        metrics[f"dataplane.{key}"] = median_count(f"dataplane.{key}")
    metrics["policy.check_ms"] = median_ms(
        [total(t, "policy.check_batch") for t, _ in commits]
    )
    metrics["policy.analyze_ms"] = median_ms(
        [total(t, "policy.analyze_ec") for t, _ in commits]
    )
    metrics["policy.evaluate_ms"] = median_ms(
        [self_time(t, "policy.check_batch") for t, _ in commits]
    )
    metrics["policy.ecs_analyzed"] = median_count("policy.ecs_analyzed")
    metrics["policy.next_devices_calls"] = median_count("policy.next_devices_calls")
    cells = sum(c.get("policy.next_devices_calls", 0) for _, c in commits)
    moves = sum(c.get("dataplane.moves", 0) for _, c in commits)
    # Useful-work ratio over all committed verifications.
    metrics["policy.cells_per_move"] = (
        cells / moves if moves else 0.0,
        "ratio",
        f"{cells} next_devices calls / {moves} dataplane.moves",
    )
    metrics["policy.rechecked"] = median_count("policy.rechecked")
    metrics["gc.pause_ms"] = (
        statistics.median(c.get("gc.pause_ms", 0.0) for _, c in commits),
        "ms",
        f"n={len(commits)}",
    )
    metrics["gc.full_collections"] = median_count("gc.full_collections")
    metrics["verify.unattributed_ms"] = median_ms(
        [self_time(t, "verify") for t, _ in commits]
    )
    traced_p50_ms = statistics.median(
        [total(t, "verify") for t, _ in commits]
    ) * 1000.0
    metrics["trace.overhead_pct"] = (
        (traced_p50_ms / untraced_p50_ms - 1.0) * 100.0,
        "%",
        f"traced p50 {traced_p50_ms:.1f} ms vs untraced {untraced_p50_ms:.1f} ms",
    )

    wall = sum(total(t, "verify") for t, _ in commits)
    shares = {
        layer: sum(self_time(t, *names) for t, _ in commits) / wall
        for layer, names in LAYERS.items()
        if layer != "txn.restore"
    }
    return metrics, shares


def unrepeated_counters(first: Tracer, second: Tracer) -> List[str]:
    """The counters of :data:`EXACT_COUNTERS` whose per-verification
    values differ between two traced passes over the same inputs."""

    def series(tracer: Tracer, key: str) -> List[float]:
        return [record.counters.get(key, 0) for record in tracer.verifications]

    return [
        key for key in EXACT_COUNTERS if series(first, key) != series(second, key)
    ]
