"""Worst-case latency bounds and schedulability verdicts for ring traffic.

The bound for a flow splits into the contention-free traversal time, the
interference suffered before injection (a busy-period fixed point over the
upstream and co-injected traffic), the interference suffered after injection
(bounded per downstream switch by its worst packet-buffer backlog), and, when
ejection links are shared, the cost of bounded deflections. Indirect
interference enters through a jitter inflation term per upstream interferer,
resolved either pessimistically from deadlines or by iterating the whole
flowset to a fixed point.

All arithmetic is exact integer cycles; every recurrence is monotone
non-decreasing and is cut off as soon as the flow can no longer meet its
deadline, which guarantees termination.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from typing import Literal

from .traffic import Flow, Flowset, InterferenceSets


class AnalysisError(ValueError):
    pass


class InvariantError(AnalysisError):
    """A recurrence broke its monotonicity: a defect of the analysis, never
    of its input."""


Injection = Literal["independent", "shared"]
Ejection = Literal["independent", "shared"]
JitterMethod = Literal["simplified", "iterative"]
MaxloopMode = Literal["fixed", "oldest_first"]
IposFormula = Literal["tight", "coarse"]


@dataclass(frozen=True)
class AnalysisConfig:
    """Configuration switches selecting the model variant to analyse."""

    injection: Injection = "shared"
    ejection: Ejection = "independent"
    jitter_method: JitterMethod = "iterative"
    maxloop_mode: MaxloopMode = "fixed"
    maxloop: int = 0
    ipos_formula: IposFormula = "tight"
    iteration_cap: int = 1000
    # Count the flow itself among the same-destination flows that bound its
    # deflections (off: a flow's single en-route packet cannot deflect itself).
    oldest_first_inclusive: bool = False
    # Study variant: drop the destination switch from the downstream buffering
    # sum, where ejection cannot in fact be delayed by a local injection.
    exclude_destination_buffer: bool = False

    def __post_init__(self):
        if self.injection not in ("independent", "shared"):
            raise AnalysisError(f"bad injection mode {self.injection!r}")
        if self.ejection not in ("independent", "shared"):
            raise AnalysisError(f"bad ejection mode {self.ejection!r}")
        if self.jitter_method not in ("simplified", "iterative"):
            raise AnalysisError(f"bad jitter method {self.jitter_method!r}")
        if self.maxloop_mode not in ("fixed", "oldest_first"):
            raise AnalysisError(f"bad maxloop mode {self.maxloop_mode!r}")
        if self.maxloop < 0 or self.iteration_cap < 1:
            raise AnalysisError("maxloop and iteration_cap must be non-negative / positive")
        if self.ejection == "independent" and self.maxloop != 0:
            raise AnalysisError("independent ejection implies maxloop = 0")
        if self.ejection == "shared" and self.maxloop_mode == "fixed" and self.maxloop < 1:
            raise AnalysisError("shared ejection with a fixed bound requires maxloop >= 1")
        if self.ipos_formula not in ("tight", "coarse"):
            raise AnalysisError(f"bad ipos formula {self.ipos_formula!r}")


_PROFILE_RE = re.compile(r"^(\d+)D_(NI|IU)_(II|SI)$")
_PROFILE_OF_RE = re.compile(r"^OF_(NI|IU)_(II|SI)$")


def parse_profile(name: str, **overrides) -> AnalysisConfig:
    """Named configuration profiles: e.g. 0D_IU_SI, 3D_NI_II, OF_IU_SI.

    <k>D fixes the deflection bound at k (0D means independent ejection);
    OF bounds deflections by the same-destination flow count under
    Oldest-First arbitration. NI/IU select the non-iterative or iterative
    indirect-jitter method; II/SI select independent or shared injection.
    """
    m = _PROFILE_RE.match(name)
    if m:
        k = int(m.group(1))
        cfg = AnalysisConfig(
            injection="independent" if m.group(3) == "II" else "shared",
            ejection="independent" if k == 0 else "shared",
            jitter_method="simplified" if m.group(2) == "NI" else "iterative",
            maxloop_mode="fixed",
            maxloop=k,
        )
        return replace(cfg, **overrides) if overrides else cfg
    m = _PROFILE_OF_RE.match(name)
    if m:
        cfg = AnalysisConfig(
            injection="independent" if m.group(2) == "II" else "shared",
            ejection="shared",
            jitter_method="simplified" if m.group(1) == "NI" else "iterative",
            maxloop_mode="oldest_first",
        )
        return replace(cfg, **overrides) if overrides else cfg
    raise AnalysisError(f"unknown configuration profile {name!r}")


def profile_name(config: AnalysisConfig) -> str:
    jit = "NI" if config.jitter_method == "simplified" else "IU"
    inj = "II" if config.injection == "independent" else "SI"
    if config.ejection == "shared" and config.maxloop_mode == "oldest_first":
        return f"OF_{jit}_{inj}"
    return f"{config.maxloop}D_{jit}_{inj}"


@dataclass(frozen=True)
class FlowResult:
    """Per-flow latency decomposition; the bound is the exact component sum."""

    flow: int
    no_load: int            # contention-free traversal latency
    loop: int               # contention-free full-circle latency
    maxloop: int            # deflection bound used
    pre_idle: int           # head-of-queue wait (shared injection only, else 0)
    pre_queue: int          # in-queue wait (shared injection only, else 0)
    pre_injection: int      # total interference before injection
    post_injection: int     # downstream interference, deflection circuits included
    indirect_jitter: int    # jitter inflation assumed for this flow's interferers
    bound: int              # worst-case latency
    deadline: int
    schedulable: bool


Verdict = Literal["schedulable", "unschedulable", "iteration_cap_exceeded"]


@dataclass(frozen=True)
class FlowsetResult:
    verdict: Verdict
    results: dict[int, FlowResult]
    iterations: int
    failing_flow: int | None = None

    @property
    def schedulable(self) -> bool:
        return self.verdict == "schedulable"


@dataclass
class AnalysisRecord:
    """Optional instrumentation: per-flow bound traces across outer iterations
    and the iterate sequence of every inner busy-period fixed point."""

    bound_traces: dict[int, list[int]] = field(default_factory=dict)
    busy_traces: list[list[int]] = field(default_factory=list)

    def note_bound(self, flow_id: int, value: int) -> None:
        self.bound_traces.setdefault(flow_id, []).append(value)


def basic_latency(flowset: Flowset, flow: Flow) -> int:
    """Contention-free source-to-destination latency: path switches + payload."""
    return flowset.index.route[flow.id][1] + 1 + flow.length - 1


def loop_latency(flowset: Flowset, flow: Flow) -> int:
    """Contention-free latency of one full circle of the flow's ring."""
    return flowset.topology.ring(flow.ring).size + flow.length


def ring_capacity(flowset: Flowset, ring_id: int) -> int:
    """Packet-buffer size of every switch of the ring: the override when set,
    otherwise the largest packet assigned to the ring (1 when unused)."""
    ring = flowset.topology.ring(ring_id)
    # Each flow's source switch bounds the flow's own payload, so the largest
    # backlog bound plus one is the largest packet of the ring.
    largest = max(flowset.index.buffer_bounds[ring_id]) + 1
    if ring.buffer_capacity is not None:
        if largest > ring.buffer_capacity:
            raise AnalysisError(
                f"ring {ring_id}: buffer capacity {ring.buffer_capacity} cannot hold "
                f"a {largest}-flit packet"
            )
        return ring.buffer_capacity
    return largest


def resolve_maxloop(flowset: Flowset, flow: Flow, config: AnalysisConfig) -> int:
    """Deflection bound per flow: zero without ejection sharing; the configured
    constant; or the number of other flows targeting the same core, each of
    which can win the Oldest-First arbitration once."""
    if config.ejection == "independent":
        return 0
    if config.maxloop_mode == "fixed":
        return config.maxloop
    others = len(flowset.index.on_dst[flow.dst]) - 1
    return others + 1 if config.oldest_first_inclusive else others


def post_injection_interference(flowset: Flowset, flow: Flow,
                                config: AnalysisConfig, maxloop: int) -> int:
    """Downstream buffering bound, plus one whole-ring bound per deflection.

    The tight variant sums each downstream switch's own backlog bound; the
    coarse variant charges the full buffer capacity per switch. The
    destination switch is included unless the study flag drops it.
    """
    start, downstream = flowset.index.route[flow.id]
    bounds = flowset.index.buffer_bounds[flow.ring]
    size = len(bounds)
    if config.exclude_destination_buffer:
        downstream -= 1
    if config.ipos_formula == "coarse":
        capacity = ring_capacity(flowset, flow.ring)
        return downstream * capacity + maxloop * size * capacity
    direct = sum(bounds[(start + d) % size] for d in range(1, downstream + 1))
    return direct + maxloop * sum(bounds)


def _fixed_point(base: int, terms, jk: dict[int, int], budget: int,
                 trace: list | None = None) -> int | None:
    """Smallest w with w = base + sum of ceil((w + J + Jk)/T)*L over the terms.

    Iterates from w = base; every step is non-decreasing. Returns None as an
    exceeds-deadline signal once w would pass the budget (the recurrence has
    no other termination guard and may diverge under overload).
    """
    w = base
    if trace is not None:
        trace.append(w)
    if w > budget:
        return None
    while True:
        nxt = base
        for period, length, jit, jid, copies in terms:
            nxt += ((w + jit + jk[jid] + period - 1) // period) * length * copies
        if trace is not None:
            trace.append(nxt)
        if nxt == w:
            return w
        if nxt < w:
            raise InvariantError(f"busy-period iterate decreased from {w} to {nxt}")
        w = nxt
        if w > budget:
            return None


class _FlowContext:
    """Static per-flow data shared by every pass of an analysis run."""

    __slots__ = ("flow", "no_load", "loop", "maxloop", "post", "fixed",
                 "budget", "in_sum", "terms", "in_core", "diverges")

    def __init__(self, flowset: Flowset, flow: Flow, config: AnalysisConfig,
                 maxloops: dict[int, int]):
        index = flowset.index
        by_id = index.flows
        sets = index.interference[flow.id]
        self.flow = flow
        self.no_load = basic_latency(flowset, flow)
        self.loop = loop_latency(flowset, flow)
        self.maxloop = maxloops[flow.id]
        self.post = post_injection_interference(flowset, flow, config, self.maxloop)
        self.fixed = self.no_load + self.loop * self.maxloop + self.post
        self.budget = flow.deadline - self.fixed
        self.in_sum = sum(by_id[j].length for j in sets.in_ring)
        self.in_core = tuple(g.id for g in index.on_core[flow.src] if g.id != flow.id)
        # Busy-period ceiling terms: one per upstream interferer, plus
        # maxloop_j replica terms per flow of the ring (the flow itself
        # included) when ejection sharing makes deflections possible.
        copies = dict.fromkeys(sets.up, 1)
        if config.ejection == "shared":
            for g in index.on_ring[flow.ring]:
                if maxloops[g.id]:
                    copies[g.id] = copies.get(g.id, 0) + maxloops[g.id]
        self.terms = tuple(
            (by_id[j].period, by_id[j].length, by_id[j].jitter, j, n)
            for j, n in sorted(copies.items())
        )
        # The load sum(L * n / T) reaches 1 exactly when num >= den.
        num, den = 0, 1
        for period, length, _, _, n in self.terms:
            num = num * period + length * n * den
            den *= period
        self.diverges = num >= den


class _Contexts:
    """Flow contexts drawn from a generator the first time an iteration
    reaches them and kept for later passes, so a pass that stops at a
    failing flow never builds the contexts of the flows after it."""

    def __init__(self, pending):
        self._pending = pending
        self._built: list[_FlowContext] = []

    def __iter__(self):
        yield from self._built
        for ctx in self._pending:
            self._built.append(ctx)
            yield ctx


def _build_context(flowset: Flowset, config: AnalysisConfig) -> _Contexts:
    """The flows' contexts in flow-id order, each built on first use."""
    if config.ipos_formula == "coarse":
        # Reject an undersized buffer override before any flow can fail.
        for ring_id in flowset.index.on_ring:
            ring_capacity(flowset, ring_id)
    flows = flowset.index.flows.values()
    maxloops = {f.id: resolve_maxloop(flowset, f, config) for f in flows}
    return _Contexts(_FlowContext(flowset, f, config, maxloops) for f in flows)


def _busy(ctx: _FlowContext, base: int, jk: dict[int, int],
          record: AnalysisRecord | None) -> int | None:
    if ctx.diverges:
        return None
    trace = [] if record is not None else None
    value = _fixed_point(base, ctx.terms, jk, ctx.budget, trace)
    if record is not None:
        record.busy_traces.append(trace)
    return value


def analyze(flowset: Flowset, config: AnalysisConfig,
            record: AnalysisRecord | None = None) -> FlowsetResult:
    """Latency bounds and a schedulability verdict for the whole flowset.

    The simplified jitter method runs a single pass with every interferer's
    indirect jitter fixed at deadline minus no-load latency. The iterative
    method starts from zero jitter and repeats passes, feeding each flow's
    bound minus its no-load latency back in, until no bound changes
    (schedulable), a bound passes its deadline (unschedulable, empty result),
    or the iteration cap trips. Bounds never decrease across passes. Shared
    injection needs a two-phase pass: head-of-queue waits for all flows
    first, then the queue terms that consume them.
    """
    if not flowset.flows:
        return FlowsetResult("schedulable", {}, 0)
    contexts = _build_context(flowset, config)
    shared = config.injection == "shared"
    lengths = {f.id: f.length for f in flowset.flows}

    if config.jitter_method == "simplified":
        jk = {f.id: f.deadline - basic_latency(flowset, f) for f in flowset.flows}
        outcome = _run_pass(contexts, jk, dict.fromkeys(lengths, 0), lengths, shared,
                            record, update_jk=False)
        if isinstance(outcome, int):
            return FlowsetResult("unschedulable", {}, 1, failing_flow=outcome)
        rows, _ = outcome
        return FlowsetResult("schedulable", _freeze(contexts, rows, jk), 1)

    jk = dict.fromkeys(lengths, 0)
    bounds = dict.fromkeys(lengths, 0)
    rows: dict[int, tuple[int, int, int]] = {}
    for iteration in range(1, config.iteration_cap + 1):
        outcome = _run_pass(contexts, jk, bounds, lengths, shared, record,
                            update_jk=True)
        if isinstance(outcome, int):
            return FlowsetResult("unschedulable", {}, iteration, failing_flow=outcome)
        rows, changed = outcome
        if not changed:
            return FlowsetResult("schedulable", _freeze(contexts, rows, jk), iteration)
    return FlowsetResult("iteration_cap_exceeded", {}, config.iteration_cap)


def _run_pass(contexts, jk, bounds, lengths, shared, record, update_jk):
    """One pass over all flows; returns the failing flow id, or (rows, changed)."""
    changed = False
    rows: dict[int, tuple[int, int, int]] = {}
    idle: dict[int, int] = {}
    if shared:
        for ctx in contexts:
            value = _busy(ctx, 1, jk, record)
            if value is None:
                return ctx.flow.id
            idle[ctx.flow.id] = value
    for ctx in contexts:
        fid = ctx.flow.id
        if shared:
            queue = sum(lengths[j] + idle[j] for j in ctx.in_core)
            pre = idle[fid] + queue
            rows[fid] = (idle[fid], queue, pre)
            if pre > ctx.budget:
                return fid
        else:
            value = _busy(ctx, 1 + ctx.in_sum, jk, record)
            if value is None:
                return fid
            rows[fid] = (0, 0, value)
            pre = value
        bound = ctx.fixed + pre
        if bound > ctx.flow.deadline:
            return fid
        if record is not None:
            record.note_bound(fid, bound)
        if bound != bounds[fid]:
            if bound < bounds[fid]:
                raise InvariantError(
                    f"flow {fid}: bound decreased from {bounds[fid]} to {bound}")
            changed = True
            bounds[fid] = bound
            if update_jk:
                jk[fid] = bound - ctx.no_load
    return rows, changed


def _freeze(contexts, rows, jk) -> dict[int, FlowResult]:
    out = {}
    for ctx in contexts:
        fid = ctx.flow.id
        pre_idle, pre_queue, pre = rows[fid]
        bound = ctx.fixed + pre
        out[fid] = FlowResult(
            flow=fid,
            no_load=ctx.no_load,
            loop=ctx.loop,
            maxloop=ctx.maxloop,
            pre_idle=pre_idle,
            pre_queue=pre_queue,
            pre_injection=pre,
            post_injection=ctx.post,
            indirect_jitter=jk[fid],
            bound=bound,
            deadline=ctx.flow.deadline,
            schedulable=bound <= ctx.flow.deadline,
        )
    return out


_CSV_HEADER = "flow,C,C_loop,maxloop,I_pre_idle,I_pre_queue,I_pre,I_pos,Jk,R,D,schedulable"


def results_to_csv(result: FlowsetResult, config: AnalysisConfig,
                   seed: int | None = None,
                   diagnostics: dict[int, InterferenceSets] | None = None) -> str:
    """Result table with the verdict in a header record and optional
    interference-set diagnostics as comment lines."""
    meta = f"# verdict={result.verdict} iterations={result.iterations}"
    meta += f" config={profile_name(config)}"
    if result.failing_flow is not None:
        meta += f" failing_flow={result.failing_flow}"
    if seed is not None:
        meta += f" seed={seed}"
    lines = [meta]
    if diagnostics:
        for fid in sorted(diagnostics):
            sets = diagnostics[fid]
            lines.append(
                "# interference flow={} up={} down={} in={} upind={}".format(
                    fid, _ids(sets.up), _ids(sets.down), _ids(sets.in_ring),
                    _ids(sets.upind))
            )
    lines.append(_CSV_HEADER)
    for fid in sorted(result.results):
        r = result.results[fid]
        lines.append(
            f"{r.flow},{r.no_load},{r.loop},{r.maxloop},{r.pre_idle},{r.pre_queue},"
            f"{r.pre_injection},{r.post_injection},{r.indirect_jitter},{r.bound},"
            f"{r.deadline},{'true' if r.schedulable else 'false'}"
        )
    return "\n".join(lines) + "\n"


def _ids(values) -> str:
    return "+".join(str(v) for v in sorted(values)) if values else "-"
