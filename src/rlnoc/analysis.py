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
from collections import UserDict
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from functools import cache, cached_property
from itertools import count
from typing import Literal, NamedTuple

from .topology import _is_int
from .traffic import Flow, Flowset, InterferenceSets, term_load


class AnalysisError(ValueError):
    pass


class InvariantError(RuntimeError):
    """A recurrence broke its monotonicity: a defect of the analysis, never
    of its input."""


Injection = Literal["independent", "shared"]
JitterMethod = Literal["simplified", "iterative"]
IposFormula = Literal["tight", "coarse"]
MaxLoop = int | Literal["oldest_first"]


@dataclass(frozen=True)
class AnalysisConfig:
    """Configuration switches selecting the model variant to analyse.

    ``injection`` and ``maxloop`` (0, k >= 1 or ``"oldest_first"``) select
    the platform: each flow's injection queue (``FlowsetIndex.queues``) and
    ejection link (``FlowsetIndex.links``), and the deflection bound the
    analysis assumes.
    """

    injection: Injection = "shared"
    jitter_method: JitterMethod = "iterative"
    maxloop: MaxLoop = 0
    ipos_formula: IposFormula = "tight"

    def __post_init__(self):
        if self.injection not in ("independent", "shared"):
            raise AnalysisError(f"bad injection mode {self.injection!r}")
        if not (self.maxloop == "oldest_first" or _is_int(self.maxloop) and self.maxloop >= 0):
            raise AnalysisError(f"maxloop must be an integer >= 0 or 'oldest_first', "
                                f"got {self.maxloop!r}")
        if self.jitter_method not in ("simplified", "iterative"):
            raise AnalysisError(f"bad jitter method {self.jitter_method!r}")
        if self.ipos_formula not in ("tight", "coarse"):
            raise AnalysisError(f"bad ipos formula {self.ipos_formula!r}")


_PROFILE_RE = re.compile(r"(\d+D|OF)_(NI|IU)_(II|SI)")


def parse_profile(name: str, **overrides) -> AnalysisConfig:
    """Named configuration profiles: e.g. 0D_IU_SI, 3D_NI_II, OF_IU_SI.

    <k>D fixes the deflection bound at k (0D means independent ejection);
    OF bounds deflections by the same-destination flow count under
    Oldest-First arbitration. NI/IU select the non-iterative or iterative
    indirect-jitter method; II/SI select independent or shared injection.
    """
    m = _PROFILE_RE.fullmatch(name)
    if m is None:
        raise AnalysisError(f"unknown configuration profile {name!r}")
    ejection, jitter, injection = m.groups()
    cfg = AnalysisConfig(
        injection="independent" if injection == "II" else "shared",
        jitter_method="simplified" if jitter == "NI" else "iterative",
        maxloop="oldest_first" if ejection == "OF" else int(ejection[:-1]),
    )
    return replace(cfg, **overrides) if overrides else cfg


def profile_name(config: AnalysisConfig) -> str:
    ejection = "OF" if config.maxloop == "oldest_first" else f"{config.maxloop}D"
    jit = "NI" if config.jitter_method == "simplified" else "IU"
    inj = "II" if config.injection == "independent" else "SI"
    return f"{ejection}_{jit}_{inj}"


@dataclass(frozen=True)
class FlowResult:
    """Per-flow latency decomposition of a schedulable flowset; the bound is
    the exact component sum and never exceeds the deadline."""

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


Verdict = Literal["schedulable", "unschedulable"]


@dataclass(frozen=True)
class FlowsetResult:
    """Per-flow results (empty unless schedulable), the pass count and, for
    an unschedulable flowset, the flow whose bound first passed its
    deadline; the verdict is read from ``failing_flow``."""

    results: Mapping[int, FlowResult]
    iterations: int
    failing_flow: int | None = None

    @property
    def schedulable(self) -> bool:
        return self.failing_flow is None

    @property
    def verdict(self) -> Verdict:
        return "schedulable" if self.failing_flow is None else "unschedulable"


@dataclass
class AnalysisRecord:
    """Optional instrumentation: each flow's bound after every pass that
    reaches it, and the iterate sequence of every busy-period fixed point
    in the order computed, a failing one included."""

    bound_traces: dict[int, list[int]] = field(default_factory=dict)
    busy_traces: list[list[int]] = field(default_factory=list)


def _fixed_point(base: int, terms, jk: dict[int, int], budget: int,
                 traces: list | None = None) -> int | None:
    """Smallest w with w = base + sum of ceil((w + J + Jk)/T)*L*n over the
    terms, each pre-folded as (T, L * n, J + T - 1, id) to one floor division.

    Iterates from w = base; every step is non-decreasing. Returns None as an
    exceeds-deadline signal once w would pass the budget (the recurrence has
    no other termination guard and may diverge under overload). Given
    ``traces``, appends the iterate sequence to it as one list.
    """
    w = base
    trace = None
    if traces is not None:
        trace = [w]
        traces.append(trace)
    if w > budget:
        return None
    while True:
        nxt = base
        for period, load, offset, jid in terms:
            nxt += ((w + offset + jk[jid]) // period) * load
        if trace is not None:
            trace.append(nxt)
        if nxt == w:
            return w
        if nxt < w:
            raise InvariantError(f"busy-period iterate decreased from {w} to {nxt}")
        w = nxt
        if w > budget:
            return None


class _FlowContext(NamedTuple):
    """A flow's bound terms under one configuration, composed from the
    config-independent facts of the flowset index."""

    flow: Flow
    no_load: int        # C: contention-free traversal, hops + length
    loop: int           # C_loop: one full circle, ring size + length
    queue: tuple        # its injection queue's key
    in_sum: int         # length of the others in its queue (independent injection only, else 0)
    maxloop: int
    post: int
    fixed: int          # C + C_loop * maxloop + I_pos
    budget: int         # what I_pre may take before the deadline is missed; -1 if it diverges
    terms: tuple        # busy-period terms (T, L * n, J + T - 1, id): replicas, then up
    diverges: bool      # the terms' load sum(L * n / T) reaches 1


def _contexts(flowset: Flowset, config: AnalysisConfig):
    """The flow contexts under the configuration, as a function of the flow
    id that builds each context on first use: a pass that stops at a failing
    flow never builds the contexts of the flows after it.

    Each flow's queue comes from ``FlowsetIndex.queues``. Its deflection
    bound ``maxloop`` is k, or under Oldest-First the other flows sending to
    its core, each of which can win the arbitration once. The bound is the
    analysis's premise, not a property of the links: a header denied a busy
    link returns one loop later, so one competing packet longer than the
    ring denies it about ceil(length / ring size) times. Only a link that
    serves one flow rules deflection out. ``I_pos`` charges each downstream
    switch its backlog bound (tight) or the buffer capacity (coarse), plus
    one whole-ring bound per deflection.
    """
    index = flowset.index
    queue = index.queues(config.injection)
    if config.maxloop == "oldest_first":
        maxloops = {fid: len(index.on_dst[f.dst]) - 1 for fid, f in index.flows.items()}
    else:
        maxloops = dict.fromkeys(index.flows, config.maxloop)
    lengths: dict[tuple, int] = {}
    if config.injection == "independent":
        for fid, key in queue.items():
            lengths[key] = lengths.get(key, 0) + index.flows[fid].length
    # Every flow of a ring that may deflect enters the busy period of each
    # flow of the ring (itself included) as maxloop_j replicas, in addition
    # to its upstream term.
    replicas = {}
    for ring_id, members in index.on_ring.items():
        terms = tuple((g.period, g.length * maxloops[g.id], g.jitter + g.period - 1, g.id)
                      for g in members if maxloops[g.id])
        replicas[ring_id] = (terms, term_load(terms))
    # Reading the capacities rejects an undersized override before any flow
    # can fail.
    capacity = index.capacity if config.ipos_formula == "coarse" else None

    @cache
    def context(fid: int) -> _FlowContext:
        flow = index.flows[fid]
        start, hops = index.route[fid]
        size = len(index.buffer_bounds[flow.ring])
        maxloop = maxloops[fid]
        if capacity is None:
            sums = index.backlog_sums[flow.ring]
            post = (sums[start + hops + 1] - sums[start + 1]
                    + maxloop * sums[size])
        else:
            post = (hops + maxloop * size) * capacity[flow.ring]
        no_load, loop = hops + flow.length, size + flow.length
        fixed = no_load + loop * maxloop + post
        terms, (num, den) = replicas[flow.ring]
        switch = (flow.ring, start)
        up_num, up_den = index.up_load.get(switch, (0, 1))
        key = queue[fid]
        # No workload diverges (0 of 6,276,287 busy periods of the full sweep
        # at 100 flowsets per point, none in the campaign search), but at a
        # load of exactly 1 the plain recurrence climbs linearly to the budget:
        # one such term with a budget of 10^8 takes 10^7 iterates and 3.0 s
        # (2-core Intel Xeon, Python 3.11), against one comparison with a
        # budget of -1.
        diverges = num * up_den + up_num * den >= den * up_den
        return _FlowContext(flow, no_load, loop, key,
                            lengths[key] - flow.length if lengths else 0,
                            maxloop, post, fixed, -1 if diverges else flow.deadline - fixed,
                            terms + index.up_terms.get(switch, ()), diverges)

    return context


def analyze(flowset: Flowset, config: AnalysisConfig,
            record: AnalysisRecord | None = None) -> FlowsetResult:
    """Latency bounds and a schedulability verdict for the whole flowset.

    Each pass bounds every flow, by id in id order. The simplified jitter
    method runs a single pass with every interferer's indirect jitter fixed
    at deadline minus no-load latency. The iterative method starts from zero
    jitter and repeats passes, feeding each flow's bound minus its no-load
    latency back in, until no bound changes (schedulable). Shared injection
    needs a two-phase pass: head-of-queue waits for all flows first, then
    the queue terms that consume them. The analysis stops at the first flow
    that passes its deadline (unschedulable, empty result): in the idle
    phase, at its queue term, or in its busy period under independent
    injection.

    The loop needs no cap: bounds are integers that never decrease (else
    ``InvariantError``), a pass that does not fail leaves each flow's within
    [C_f, D_f], and one that does not end the loop raises at least one, so
    there are at most 1 + sum(D_f - C_f) passes.
    """
    if not flowset.flows:
        return FlowsetResult({}, 0)
    index = flowset.index
    context = _contexts(flowset, config)
    flows = index.flows
    shared = config.injection == "shared"
    # Under the simplified method the jitter never changes, so its first
    # pass is its last.
    iterative = config.jitter_method == "iterative"
    jk = {fid: 0 if iterative else f.deadline - (index.route[fid][1] + f.length)
          for fid, f in flows.items()}
    bounds = dict.fromkeys(flows, 0)
    traces = None if record is None else record.busy_traces
    for iteration in count(1):
        changed = False
        rows: dict[int, tuple[int, int, int]] = {}
        idle: dict[int, int] = {}
        queued: dict = {}  # per injection queue, the sum of length + idle of its flows
        if shared:
            for ctx in map(context, flows):
                value = _fixed_point(1, ctx.terms, jk, ctx.budget, traces)
                if value is None:
                    return FlowsetResult({}, iteration, ctx.flow.id)
                idle[ctx.flow.id] = value
                queued[ctx.queue] = queued.get(ctx.queue, 0) + ctx.flow.length + value
        for ctx in map(context, flows):
            fid = ctx.flow.id
            if shared:
                queue = queued[ctx.queue] - ctx.flow.length - idle[fid]
                pre = idle[fid] + queue
                if pre > ctx.budget:
                    return FlowsetResult({}, iteration, fid)
                rows[fid] = (idle[fid], queue, pre)
            else:
                pre = _fixed_point(1 + ctx.in_sum, ctx.terms, jk, ctx.budget, traces)
                if pre is None:
                    return FlowsetResult({}, iteration, fid)
                rows[fid] = (0, 0, pre)
            bound = ctx.fixed + pre
            if record is not None:
                record.bound_traces.setdefault(fid, []).append(bound)
            if bound != bounds[fid]:
                if bound < bounds[fid]:
                    raise InvariantError(
                        f"flow {fid}: bound decreased from {bounds[fid]} to {bound}")
                bounds[fid] = bound
                if iterative:
                    changed = True
                    jk[fid] = bound - ctx.no_load
        if not changed:
            return FlowsetResult(_Results(context, flows, rows, jk), iteration)


class _Results(UserDict):
    """The per-flow results of a schedulable verdict, built from its last
    pass on first read: reading only the verdict never builds them."""

    def __init__(self, context, flows, rows, jk):
        self._last_pass = (context, flows, rows, jk)

    def __reduce__(self):  # copied and pickled as the plain dict
        return dict, (self.data,)

    @cached_property
    def data(self) -> dict[int, FlowResult]:
        context, flows, rows, jk = self._last_pass
        out = {}
        for ctx in map(context, flows):
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
            f"{r.deadline},true"
        )
    return "\n".join(lines) + "\n"


def _ids(values) -> str:
    return "+".join(str(v) for v in sorted(values)) if values else "-"
