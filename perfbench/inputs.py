"""The benchmark's workloads: inputs generated from a seed.

Every workload is a fat tree, the policy set below and a stream of
change/inverse pairs, so each stream ends where it started.  The program
under test receives only the generated changes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

from repro.config.changes import Change
from repro.config.schema import Snapshot
from repro.core.realconfig import RealConfig
from repro.net.headerspace import HeaderBox
from repro.net.topologies import LabeledTopology, fat_tree
from repro.policy.spec import BlackholeFree, LoopFree, Policy, Reachability
from repro.workloads import acl_changes, bgp_snapshot, ospf_snapshot, stream_batches

#: Change pairs asked of the generators: more than they make at k<=8, so
#: every run draws from all of them.
PAIRS = 1000

Pair = Tuple[Sequence[Change], Sequence[Change]]


def policies(labeled: LabeledTopology) -> List[Policy]:
    """LoopFree, BlackholeFree and pairwise Reachability: the policy set
    of ``benchmarks/bench_figure1_pipeline.py``, kept here so that the
    benchmark's inputs do not move when that file does."""
    out: List[Policy] = [LoopFree("loop-free"), BlackholeFree("blackhole-free")]
    endpoints = sorted(labeled.host_prefixes)
    for i, src in enumerate(endpoints):
        dst = endpoints[(i + len(endpoints) // 2) % len(endpoints)]
        if src == dst:
            continue
        out.append(
            Reachability(
                f"reach-{src}-{dst}",
                src=src,
                dst=dst,
                match=HeaderBox.from_dst_prefix(labeled.host_prefixes[dst][0]),
            )
        )
    return out


@dataclass
class Workload:
    name: str
    snapshot: Snapshot
    endpoints: List[str]
    policies: List[Policy]
    pairs: List[Pair]
    #: Abort the first change of each pair once before committing it.
    abort_first: bool

    def verifier(self) -> RealConfig:
        """A verifier as shipped: transactional, ``workers=1``, lint off."""
        return RealConfig(
            self.snapshot, endpoints=self.endpoints, policies=self.policies
        )


def _stratified(pairs: List[Pair], labeled: LabeledTopology) -> List[Pair]:
    """Reorder ``pairs`` so that every stretch of the stream mixes change
    kinds and the roles of the changed devices in the same proportions as
    the whole list.  The kinds differ in cost, so without this a run's
    median would follow how many of each its seed happened to put first.
    Order within a stratum stays the seed's.  Smooth weighted round robin:
    each stratum is picked exactly as often as it has pairs."""
    strata: Dict[Tuple[str, str], List[Pair]] = {}
    for pair in pairs:
        change = pair[0][0]
        key = (type(change).__name__, labeled.roles.get(change.device, ""))
        strata.setdefault(key, []).append(pair)
    queues = {key: iter(members) for key, members in strata.items()}
    credit = dict.fromkeys(strata, 0)
    ordered: List[Pair] = []
    for _ in pairs:
        for key, members in strata.items():
            credit[key] += len(members)
        chosen = max(credit, key=lambda key: (credit[key], key))
        credit[chosen] -= len(pairs)
        ordered.append(next(queues[chosen]))
    return ordered


def _flaps(protocol: str, k: int, abort_first: bool):
    def build(name: str, seed: int) -> Workload:
        labeled = fat_tree(k)
        snapshot = (
            ospf_snapshot(labeled) if protocol == "ospf" else bgp_snapshot(labeled)
        )
        batches = stream_batches(labeled, protocol=protocol, count=2 * PAIRS, seed=seed)
        # The stream cycles once it has used every pair; keep one cycle.
        unique: Dict[str, Pair] = {}
        for do, undo in zip(batches[0::2], batches[1::2]):
            unique.setdefault(repr(do), (do, undo))
        pairs = list(unique.values())
        return Workload(
            name,
            snapshot,
            sorted(labeled.host_prefixes),
            policies(labeled),
            _stratified(pairs, labeled),
            abort_first,
        )

    return build


def _acl_harden(name: str, seed: int) -> Workload:
    labeled = fat_tree(6)
    snapshot = ospf_snapshot(labeled)
    # Every pair starts from the base snapshot, so each inverse is computed
    # on it: the pre-change snapshot of that pair.
    pairs: List[Pair] = [
        ([change], [change.invert(snapshot)])
        for change in acl_changes(labeled, count=PAIRS, seed=seed)
    ]
    return Workload(
        name,
        snapshot,
        sorted(labeled.host_prefixes),
        policies(labeled),
        pairs,
        False,
    )


#: ``bgp-flap-k8`` is not in ``BENCHMARK.json``: on a 2-core VM whose speed
#: drifts under sustained load, its k=8 state made it the least steady
#: workload (the quartile spread of ``verify_p50_ms`` over ten seeds was 28%
#: and 24%, above the 25% bound), and the time budget fits 35-s runs for two
#: workloads only.  It stays runnable by hand for k=8 measurements.
WORKLOADS: Dict[str, Callable[[str, int], Workload]] = {
    "ospf-flap-abort-k6": _flaps("ospf", 6, abort_first=True),
    "bgp-flap-k8": _flaps("bgp", 8, abort_first=False),
    "acl-harden-k6": _acl_harden,
}


def build(name: str, seed: int) -> Workload:
    return WORKLOADS[name](name, seed)
