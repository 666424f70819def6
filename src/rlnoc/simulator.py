"""Cycle-accurate simulation of the routerless switch protocol.

The simulator exists to check the analysis from the outside: observed packet
latencies and deflection counts must never exceed the analytical bounds for a
flowset the analysis declares schedulable.

Per network cycle, from the state at the start of the cycle:

* a flit that arrived during the previous cycle leaves its flit buffer, going
  to the ejection link when addressed to the local core, otherwise to the
  ring output port, or into the packet buffer when a local payload injection
  or a buffer drain holds that port;
* the output port serves, in priority order, an ongoing packet injection
  (non-preemptive), the packet-buffer head, the flit-buffer flit, and only
  then a fresh header from the injection queue, admitted only when the
  ring's packet buffer is empty and no ring traffic used the port this
  cycle (a flit leaving over the ejection link frees the port and so does
  not block injection);
* an ejection link carries one flit per cycle; a header that is denied the
  link (another packet is ejecting, or an older simultaneous header wins)
  deflects, taking its whole packet once more around the ring. Arbitration is
  Oldest-First on the release timestamp, ties broken by flow id.

A flit sent on a link during cycle t is processed by the downstream switch in
cycle t+1, so in an empty network the last flit of a packet crosses the
ejection link hops + length - 1 cycles after release.

Because utilisation is typically low, the engine's resting state is closed
form. A packet whose flits touch no other packet's is a worm: if its header
leaves the source at cycle h, flit i leaves the switch d hops on (0 <= d <
hops) at h + d + i, so that port's band is [h + d, h + d + length - 1], and
crosses the ejection link at e + i, e = h + hops. The ejecting switch uses no
port. A worm's delivery is known, and booked, when it becomes a worm, and the
engine moves from release to release, keeping per ring its live worms, per
ejection link their intervals [e, e + length - 1] and per queue the first
cycle its next packet may send a header. Each ring, ejection link and queue
keeps these in one small mutable slot that its flows share, so admission
reads and writes list entries rather than keyed maps. Every release is
admitted by the one rule below. Most find their queue ready and no live band
at their source port, so h = t: such a worm has its flow's latency hops +
length - 1 and no deflection, shared ring or not. The per-flow statistics
take each flow's release count from the schedule, count that latency for
every release and walk only the packets admitted with h > t, released while
stepping or materialised.

A release at t starts from h = max(t, h' + max(length' - 1, 1)), where
(h', length') is its queue's previous packet: a head is dequeued in the port
phase of its last-flit cycle and the next head is served in that cycle's
header phase, but a header-only head is dequeued in the header phase, so the
next waits a cycle. h then moves past every live band at the source port,
since a header waits while ring traffic uses its port. The release becomes
a worm if its band meets no live worm's on any port of its path and its
ejection interval meets none on its link. Only meeting flits interact: a
flit that reaches a port in another packet's band is buffered or holds back
a header, and a header on a busy link deflects. So no flit of the new worm,
and none of the live worms', behaves other than the formulas say: closed
form is bit for bit like stepping. Otherwise the ring state of every live
worm is built, queued packets (h > t included) in release order, and the
engine steps while packets can interact and hands them back as worms once
they cannot. A handover fails while a queue holds two packets, a
deflection entry is set, two undelivered packets share a ring or an
ejection link, or a ring holds packet buffers other than a buffered worm's:
one, at a switch X inside its packet's path, holding that packet's flits,
its flits behind X and still to inject following one another. Each of these
lasts until a cycle dequeues a packet, clears such an entry or delivers
one; releases only add packets. So a handover is tried only after such a
cycle, and after the first cycle stepped after a clash. While its packet is
alone, X's port serves the buffer's head each cycle and each flit reaching
X joins its back, so every flit leaves X len(buffer) cycles after it
reaches it, and delivery is the worm formula with e moved by that lag. A
handed-back worm that holds a buffer, or whose flits reach back past its
source (it deflected), holds its whole ring until it ends. A traced run
always steps, because closed form emits no per-cycle events, so tests
compare closed form with the traced run. A stepped cycle visits only the
rings that hold traffic, so idle rings cost nothing. Each ring's ports, each
ejection link and each queue is resolved independently of its peers, so
only a traced run, whose event list follows the order of visits, sorts them.
"""

from __future__ import annotations

import hashlib
import random
from collections import deque
from dataclasses import dataclass, field
from typing import Literal

from .analysis import AnalysisConfig, AnalysisError, FlowsetResult
from .seeds import derive_seed
from .topology import _is_int
from .traffic import Flowset


class ProtocolViolation(RuntimeError):
    """The engine reached a state the switch protocol rules out."""


def hardware_from_config(config: AnalysisConfig) -> AnalysisConfig:
    """Deprecated alias: ``simulate`` takes the ``AnalysisConfig`` itself."""
    return config


@dataclass(frozen=True)
class SimConfig:
    seed: int = 0
    horizon: int = 1_000_000
    # A model drawn from the seed, or a tuple of (cycle, flow id) releases below the horizon.
    release: Literal["periodic", "sporadic"] | tuple[tuple[int, int], ...] = "sporadic"
    collect_trace: bool = False

    def __post_init__(self):
        if not _is_int(self.horizon) or self.horizon < 1:
            raise AnalysisError(f"horizon must be an integer >= 1, got {self.horizon!r}")
        if not _is_int(self.seed):
            raise AnalysisError(f"seed must be an integer, got {self.seed!r}")
        if isinstance(self.release, tuple):
            if bad := [r for r in self.release if not (
                    isinstance(r, tuple) and len(r) == 2 and _is_int(r[0]) and _is_int(r[1])
                    and 0 <= r[0] < self.horizon)]:
                raise AnalysisError(f"a release is a pair (cycle, flow id) of integers, "
                                    f"0 <= cycle < horizon {self.horizon}, got {bad[0]!r}")
        elif self.release not in ("periodic", "sporadic"):
            raise AnalysisError(f"bad release model {self.release!r}")


@dataclass(frozen=True)
class FlowStats:
    packets: int
    max_latency: int
    mean_latency: float
    max_deflections: int


@dataclass
class SimOutcome:
    per_flow: dict[int, FlowStats]
    released: int
    delivered: int
    flits_injected: int
    flits_ejected: int
    deflections: int
    drained: bool
    digest: str
    # Cycles simulated one by one; the rest were fast-forwarded. Not part of
    # the digest or of any report.
    stepped_cycles: int
    trace: list = field(default_factory=list)


class _RingState:
    __slots__ = ("ring_id", "size", "capacity", "fb", "pb", "defl", "inj", "thru")

    def __init__(self, ring_id: int, size: int, capacity: int):
        self.ring_id = ring_id
        self.size = size
        self.capacity = capacity
        self.fb: dict[int, int] = {}
        self.pb: dict[int, deque] = {}
        self.defl: dict[int, int] = {}
        self.inj: dict[int, list] = {}
        # Flits routed to the output port this cycle; empty between cycles.
        self.thru: dict[int, int] = {}


def _release_schedule(flowset: Flowset, cfg: SimConfig,
                      shift: int) -> tuple[list[int], list[int]]:
    """Every release the model draws, in time order, packed as ``cycle <<
    shift | rank``, its flow's rank in id order (``shift`` bits hold any rank),
    and each flow's release count, by rank.

    Sporadic releases all fall before the horizon. A periodic release is
    ``offset + n*T + U[0,J]`` for every ``offset + n*T`` below the horizon,
    the offset drawn from U[0,T). Jitter can put a release at or after the
    horizon (but before horizon + J); such a packet is simulated like any
    other. Every draw, a flow's first included, inlines ``randrange(n)``, n >=
    1: ``getrandbits(k)`` for k = n.bit_length(), repeated until it falls below
    n. Each flow is seeded by the C base class's ``seed``: for an int,
    ``Random.seed`` only checks the type, calls it and resets ``gauss_next``,
    which ``getrandbits`` never reads, so the stream is the same.
    """
    out: list[int] = []
    counts: list[int] = []
    append, horizon = out.append, cfg.horizon
    rng = random.Random()
    getrandbits, seed = rng.getrandbits, super(random.Random, rng).seed
    for rank, f in enumerate(flowset.index.flows.values()):
        drawn = len(out)
        period = f.period
        seed(derive_seed(cfg.seed, "rel", f.id))
        if cfg.release == "periodic":
            k = period.bit_length()
            offset = getrandbits(k)
            while offset >= period:
                offset = getrandbits(k)
            n = f.jitter + 1
            k = n.bit_length()
            for base in range(offset, horizon, period):
                r = getrandbits(k)
                while r >= n:
                    r = getrandbits(k)
                append((base + r) << shift | rank)
        else:
            n = period + 1
            k = n.bit_length()
            t = getrandbits(k)
            while t >= n:
                t = getrandbits(k)
            while t < horizon:
                append(t << shift | rank)
                r = getrandbits(k)
                while r >= n:
                    r = getrandbits(k)
                t += period + r
        counts.append(len(out) - drawn)
    out.sort()
    return out, counts


# Most releases one simulation may run. A release costs about 185 bytes of
# peak memory and 1.5 us (2M sporadic releases of an 80-flow 4x4 flowset, on a
# 2-core Intel Xeon with Python 3.11), so a run at the limit peaks near 0.9 GB.
MAX_RELEASES = 5_000_000


def simulate(flowset: Flowset, cfg: SimConfig, config: AnalysisConfig) -> SimOutcome:
    """Run one deterministic simulation of the platform ``config`` analyses
    (its ``injection`` and ``maxloop``) and collect per-flow statistics.

    Observed latency is the cycle a packet's last flit crosses the ejection
    link minus its release cycle. The run goes past the horizon until every
    released packet is delivered. A schedule naming a flow the flowset lacks
    raises AnalysisError, as does one of over MAX_RELEASES releases or a horizon
    at which a model could draw more (at most ceil(horizon / T) per flow),
    before any is drawn; so does one owing a queue or a link more flits than the
    run's cycles, before stepping.
    """
    if isinstance(cfg.release, tuple):
        if unknown := sorted({fid for _, fid in cfg.release} - flowset.index.flows.keys()):
            raise AnalysisError(f"the release schedule names unknown flows {unknown}")
        most, allows = len(cfg.release), "the release schedule has"
    else:
        most = sum(-(-cfg.horizon // f.period) for f in flowset.flows)
        allows = f"horizon {cfg.horizon} allows up to"
    if most > MAX_RELEASES:
        raise AnalysisError(f"{allows} {most} releases, over the limit of {MAX_RELEASES}")
    return _Engine(flowset, cfg, config).run()


# Most live worms one ring or ejection link holds in closed form. A release
# beyond them is stepped, so an overloaded queue costs a few lookups per
# release, not one per packet it holds.
_MAX_SHARERS = 8


class _Engine:
    def __init__(self, flowset: Flowset, cfg: SimConfig, config: AnalysisConfig):
        self.cfg = cfg
        topo = flowset.topology
        width = topo.width

        # A flit is encoded as (packet id << idx_bits) | flit index, with just
        # enough index bits for the longest packet.
        longest = max((f.length for f in flowset.flows), default=1)
        self.idx_bits = max(1, (longest - 1).bit_length())
        self.idx_mask = (1 << self.idx_bits) - 1

        self.rings: dict[int, _RingState] = {
            ring.id: _RingState(ring.id, ring.size, flowset.index.capacity[ring.id])
            for ring in topo.rings
        }
        # Ids of the rings whose fb, pb or inj is non-empty.
        self.busy_rings: set[int] = set()
        # Per flow, by rank in id order: ring id, source/destination
        # positions, hop count, length, queue key and ejection-link key (from
        # the flowset index), then the closed-form slots (see ``run``) of its
        # ring, ejection link and queue, shared with the flows on the same
        # ring, link or queue. Keys are tuples so that a traced run sorts
        # them uniformly.
        self.flow_info: list[tuple] = []
        self.ring_slots: dict[int, list] = {}
        self.link_slots: dict[tuple, list] = {}
        self.queue_slots: dict[tuple, list] = {}
        index = flowset.index
        queue, link = index.queues(config.injection), index.links(config.maxloop)
        for f in index.flows.values():
            start, hops = index.route[f.id]
            qkey, ekey = queue[f.id], link[f.id]
            self.flow_info.append((f.ring, start, (start + hops) % self.rings[f.ring].size,
                                   hops, f.length, qkey, ekey,
                                   self.ring_slots.setdefault(f.ring, [0, []]),
                                   self.link_slots.setdefault(ekey, [0, []]),
                                   self.queue_slots.setdefault(qkey, [0])))

        self.queues: dict[tuple, deque] = {}
        self.ebusy: dict[tuple, list] = {}

        # Packet registry: a packet's id is its index in the sorted releases, each
        # packed as cycle << shift | its flow's rank (index in fids), which sorts
        # as (cycle, flow id); pkt_info holds its flow_info tuple. counts holds
        # each flow's release count, by rank, taken from the schedule.
        self.fids = fids = list(index.flows)
        self.shift = shift = len(fids).bit_length()
        self.mask = mask = (1 << shift) - 1
        if isinstance(cfg.release, tuple):
            rank = {fid: i for i, fid in enumerate(fids)}
            self.releases = sorted(t << shift | rank[fid] for t, fid in cfg.release)
            self.counts = [0] * len(fids)
            for _, fid in cfg.release:
                self.counts[rank[fid]] += 1
        else:
            self.releases, self.counts = _release_schedule(flowset, cfg, shift)
        flow_info = self.flow_info
        self.pkt_info = [flow_info[r & mask] for r in self.releases]
        self.pkt_deflections = [0] * len(self.releases)
        self.pkt_delivery = [-1] * len(self.releases)
        # Packets whose latency may differ from their flow's unhindered
        # latency: those admitted with h > t, released while stepping, or
        # materialised.
        self.deviants: set[int] = set()
        # horizon + 10M cycles to drain past the horizon or a later, jittered release
        last = self.releases[-1] >> shift if self.releases else 0
        self.guard = max(last, cfg.horizon) + cfg.horizon + 10_000_000
        # A queue sends and a link ejects at most one flit per cycle, so one
        # owing more flits than cycles 0 to guard can never drain.
        for slot, what in ((5, "an injection queue of core {} must send"),
                           (6, "an ejection link of core {} must eject")):
            owed: dict[tuple, int] = {}
            for info, n in zip(self.flow_info, self.counts):
                owed[info[slot]] = owed.get(info[slot], 0) + n * info[4]
            for key, flits in owed.items():
                if flits > self.guard + 1:
                    core = (key[0] % width, key[0] // width)
                    raise AnalysisError(f"{what.format(core)} {flits} flits, over the "
                                        f"{self.guard + 1} cycles a run may take")

        self.flits_injected = 0
        self.flits_ejected = 0
        self.trace: list = []
        self.freed = False  # set by a dequeue, a delivery or a cleared entry
        # Per buffered worm of the last handover, its packet buffer's switch and lag.
        self.held: dict[int, tuple] = {}
        self.stepped_cycles = 0

    # -- main loop ------------------------------------------------------------

    def run(self) -> SimOutcome:
        releases, pkt_info, pkt_delivery = self.releases, self.pkt_info, self.pkt_delivery
        deviants, guard, traced = self.deviants, self.guard, self.cfg.collect_trace
        n_rel, shift = len(releases), self.shift
        ptr = 0
        t = 0
        settled = 0  # flits of the packets that became worms at release
        # Closed form (see the module docstring), off while stepping. Each
        # ring's slot is [until, worms] with each worm (end, pkt, e, h),
        # where end = e + length is the cycle after its last flit and until
        # the largest end; each ejection key's is [until, [(e, end), ...]];
        # each queue key's is [ready], the first cycle its next packet may
        # send a header. A slot is idle from t >= until (or ready) on, and
        # a worm is live while t < end; its delivery and flits are booked
        # when it becomes a worm. A worm admitted to an idle ring or link is
        # kept as its packet id alone, and its tuple is rebuilt only when a
        # later release finds it live: its end is the slot's until, e = end -
        # length and h = e - hops. Only this admission writes an id, always
        # with h set, and ``_handover`` zeroes every until before it writes
        # its lists, so no stale id is read.
        closed = not traced
        while True:
            if closed:
                # Admit each release as a worm until its flits could touch a
                # live worm's on a ring port or an ejection link: wait for the
                # queue, then for or among the live worms (module docstring).
                while ptr < n_rel:
                    t = releases[ptr] >> shift
                    _, _, _, hops, length, _, _, rs, ls, qs = pkt_info[ptr]
                    h = qs[0]
                    if h < t:
                        h = t
                    if t < rs[0]:
                        lone = rs[1]
                        if type(lone) is int:
                            o_e = rs[0] - pkt_info[lone][4]
                            rs[1] = [(rs[0], lone, o_e, o_e - pkt_info[lone][3])]
                        h = self._place(rs[1], ptr, h, t)
                        if h is None:
                            break
                    e = h + hops
                    end = e + length
                    if t < ls[0]:
                        spans = ls[1]
                        if type(spans) is int:
                            spans = ls[1] = [(ls[0] - pkt_info[spans][4], ls[0])]
                        else:
                            spans[:] = [span for span in spans if span[1] > t]
                        if len(spans) >= _MAX_SHARERS or any(
                                s_e < end and e < s_end for s_e, s_end in spans):
                            break
                        spans.append((e, end))
                        if end > ls[0]:
                            ls[0] = end
                    else:
                        ls[0], ls[1] = end, ptr
                    if t < rs[0]:
                        rs[1].append((end, ptr, e, h))
                        if end > rs[0]:
                            rs[0] = end
                    else:
                        rs[0], rs[1] = end, ptr
                    qs[0] = h + length - 1 if length > 1 else h + 1
                    pkt_delivery[ptr] = end - 1
                    if h != t:
                        deviants.add(ptr)
                    settled += length
                    ptr += 1
                else:
                    break
                self._materialise(t)
                closed, self.freed = False, True
            elif not (self.queues or self.ebusy or self.busy_rings):
                if ptr >= n_rel:
                    break
                t = releases[ptr] >> shift
            if t > guard:
                raise ProtocolViolation("simulation failed to drain within its guard window")
            while ptr < n_rel and releases[ptr] >> shift == t:
                self.queues.setdefault(pkt_info[ptr][5], deque()).append(ptr)
                deviants.add(ptr)
                if traced:
                    self.trace.append(("release", t, ptr, self.fids[releases[ptr] & self.mask]))
                ptr += 1
            self._cycle(t)
            self.stepped_cycles += 1
            t += 1
            # Only a cycle that freed something can enable a handover (module docstring).
            if self.freed and not traced:
                self.freed = False
                closed = self._handover(t)
        self.flits_injected += settled
        self.flits_ejected += settled
        return self._finish()

    # -- closed form ----------------------------------------------------------

    def _place(self, ring_worms: list, pkt: int, h: int, t: int) -> int | None:
        """The header cycle of a release at t that could send its header at h
        but for the live worms on its ring, or None if its band meets one of
        theirs. Drops the worms that ended by t from ``ring_worms``."""
        info = self.pkt_info
        rid, src, _, hops, length = info[pkt][:5]
        size = self.rings[rid].size
        ring_worms[:] = [w for w in ring_worms if w[0] > t]
        if len(ring_worms) >= _MAX_SHARERS:
            return None
        bands = []
        for _, other, _, other_h in ring_worms:
            if other_h is None:
                return None
            _, o_src, _, o_hops, o_len = info[other][:5]
            bands.append((other_h - o_src, o_src, o_hops, o_len))
        # Wait out the bands that pass the source port; they are disjoint.
        for start, o_len in sorted((shift + o_src + (src - o_src) % size, o_len)
                                   for shift, o_src, o_hops, o_len in bands
                                   if (src - o_src) % size < o_hops):
            if start <= h < start + o_len:
                h = start + o_len
        # Where both paths cross a port, unwrapped by k, the other band
        # starts delta cycles after this one: they meet if -o_len < delta <
        # length.
        for shift, o_src, o_hops, o_len in bands:
            for k in (-size, 0, size):
                if (max(o_src, src + k) < min(o_src + o_hops, src + k + hops)
                        and -o_len < shift - h + src + k < length):
                    return None
        return h

    def _materialise(self, t: int) -> None:
        """Build the ring state of the worms live at the start of cycle t,
        replacing the flits booked for them by those sent and ejected by t;
        queued packets enter their queues in release order. A buffered worm
        (``_handover``) gets back its packet buffer, with the flits past it
        on its worm and those behind it on one lag cycles earlier."""
        bits, pkt_info = self.idx_bits, self.pkt_info
        live = []
        for until, ring_worms in self.ring_slots.values():
            if until <= t:
                continue
            if type(ring_worms) is int:
                e = until - pkt_info[ring_worms][4]
                live.append((until, ring_worms, e, e - pkt_info[ring_worms][3]))
            else:
                live.extend(w for w in ring_worms if w[0] > t)
        live.sort(key=lambda w: w[1])
        for _, pkt, e, h in live:
            self.deviants.add(pkt)
            rid, src, dst, hops, length, qkey, ekey, _, _, _ = pkt_info[pkt]
            ring = self.rings[rid]
            size = ring.size
            # A buffered worm's flits [j, j + lag) wait at X; any other worm
            # has x = dst and lag 0.
            x, lag = self.held.get(pkt, (dst, 0))
            sent = length if h is None and not lag else min(length, max(0, t - e + hops + lag))
            gone = max(0, t - e)
            j = t - e + (dst - x) % size
            self.flits_injected += sent - length
            self.flits_ejected += gone - length
            # At t, flit i is e + i - t switches short of dst.
            ring.fb.update({(dst + t - e - i) % size: (pkt << bits) | i
                            for i in range(gone, min(j, sent))})
            ring.fb.update({(dst + t - e + lag - i) % size: (pkt << bits) | i
                            for i in range(max(j + lag, gone), sent)})
            if j < sent and lag:
                ring.pb[x] = deque((pkt << bits) | i for i in range(j, min(j + lag, sent)))
            if sent < length:
                self.queues.setdefault(qkey, deque()).append(pkt)
                if sent:
                    ring.inj[src] = [pkt, sent, qkey]
            if gone:
                self.ebusy[ekey] = [pkt, gone]
            if ring.fb or ring.inj:
                self.busy_rings.add(rid)

    def _handover(self, t: int) -> bool:
        """At the start of cycle t, return the packets to closed form, filling
        the slots (see ``run``) and clearing the ring state, or return False
        while packets can interact. Each packet's delivery is booked, and the
        flit counters gain the flits it has still to send and eject.

        A packet alone on its ring may hold one packet buffer, at a switch X
        inside its path, if its flits behind X and still to inject follow one
        another (module docstring). Each flit then leaves X lag =
        len(buffer) cycles after it reaches X. Such a worm has h = None, and
        ``held`` keeps X and lag for ``_materialise``."""
        rings, pkt_info, bits, mask = self.rings, self.pkt_info, self.idx_bits, self.idx_mask
        worms: dict[int, tuple] = {}
        held: dict[int, tuple] = {}
        # A queue head injects from h (its header at t if not yet injecting);
        # a packet out of its queue has h = None and e set by any of its
        # flits, or by its buffer. A busy ring's flits must all be one
        # packet's.
        for queue in self.queues.values():
            if len(queue) > 1:
                return False
            info = pkt_info[queue[0]]
            state = rings[info[0]].inj.get(info[1])
            h = t if state is None else t - state[1]
            worms[queue[0]] = (h + info[3], h)
        for rid in self.busy_rings:
            ring = rings[rid]
            fb, pb, size = ring.fb, ring.pb, ring.size
            if ring.defl or len(pb) > 1:
                return False
            if pb:
                (x, buf), = pb.items()
                flit = buf[-1]
            else:
                x, flit = next(iter(fb.items()))
            pkt = flit >> bits
            if any(f >> bits != pkt for f in fb.values()):
                return False
            if not pb:
                worms.setdefault(pkt, (t + (pkt_info[pkt][2] - x) % size - (flit & mask), None))
                continue
            # Behind X: up flits back to the source, then the injection, or
            # the packet's last flits, all on the path. The first reaches X
            # at t and, like the rest, leaves it lag cycles later.
            _, src, _, hops, length = pkt_info[pkt][:5]
            last, lag = flit & mask, len(buf)
            up, state = (x - src) % size, ring.inj.get(src)
            n = up if state else length - 1 - last
            if not (0 < up < hops and n <= up and all(f >> bits == pkt for f in buf)
                    and (state is None or state[1] == last + up + 1)
                    and all(fb.get((x - j) % size) == flit + j + 1 for j in range(n))):
                return False
            worms[pkt] = (t + hops - up - last - 1 + lag, worms[pkt][1] if state else None)
            held[pkt] = (x, lag)
        if any(busy[0] not in worms for busy in self.ebusy.values()):
            return False
        # No two packets may share a ring or an ejection link.
        if (len({pkt_info[pkt][0] for pkt in worms}) < len(worms)
                or len({pkt_info[pkt][6] for pkt in worms}) < len(worms)):
            return False
        for slots in (self.ring_slots, self.link_slots, self.queue_slots):
            for slot in slots.values():
                slot[0] = 0
        for pkt, (e, h) in worms.items():
            _, _, _, hops, length, _, _, rs, ls, qs = pkt_info[pkt]
            end = e + length
            if h is not None:
                qs[0] = h + length - 1 if length > 1 else h + 1
                self.flits_injected += h + length - t
            if pkt in held:
                h = None
            elif h is None and e - hops + length <= t:
                # Every flit left is on the path a worm sent at e - hops
                # would take, so that worm's bands describe it; otherwise
                # (after a deflection, or buffered) the worm holds its whole
                # ring.
                h = e - hops
            rs[0], rs[1] = end, [(end, pkt, e, h)]
            ls[0], ls[1] = end, [(e, end)]
            self.flits_ejected += end - max(t, e)
            self.pkt_delivery[pkt] = end - 1
        for rid in self.busy_rings:
            rings[rid].fb, rings[rid].pb, rings[rid].inj = {}, {}, {}
        self.held = held
        self.queues.clear()
        self.ebusy.clear()
        self.busy_rings.clear()
        return True

    # -- one cycle ------------------------------------------------------------

    def _cycle(self, t: int) -> None:
        rings = self.rings
        busy_rings = self.busy_rings
        pkt_info = self.pkt_info
        bits, mask = self.idx_bits, self.idx_mask
        trace = self.trace if self.cfg.collect_trace else None
        # Only a traced run visits rings, ejection links, ports and queues in
        # sorted order, for its event list (module docstring). Rings idle at
        # cycle start have no flit to route and no port to serve.
        ordered = trace is not None
        active = sorted(busy_rings) if ordered else list(busy_rings)

        # Route every flit in a flit buffer: ejection candidates (per ejection
        # link, at most one per ring) or thru traffic for the output port, in
        # the ring's thru map. The flit buffers then take this cycle's flits.
        eject_cands: dict[tuple, list] = {}
        for rid in active:
            ring = rings[rid]
            for pos, flit in ring.fb.items():
                pkt = flit >> bits
                idx = flit & mask
                info = pkt_info[pkt]
                if info[2] == pos and info[0] == rid:
                    if ring.defl.get(pos) == pkt:
                        ring.thru[pos] = flit
                        if idx == info[4] - 1:
                            del ring.defl[pos]
                            self.freed = True
                    else:
                        eject_cands.setdefault(info[6], []).append((ring, pos, pkt, idx))
                else:
                    ring.thru[pos] = flit
            ring.fb.clear()

        # Resolve ejection links, one flit each per cycle: a busy link takes its
        # packet's next flit (index >= 1), a free one the oldest header by
        # (release, flow id), which is packet id order; other headers deflect.
        busy_links = len(self.ebusy)
        for ekey in sorted(eject_cands) if ordered else eject_cands:
            cands = eject_cands[ekey]
            busy = self.ebusy.get(ekey)
            if busy is None:
                if any(c[3] for c in cands):
                    raise ProtocolViolation("mid-packet flit arrived on a free ejection link")
                busy = (min(c[2] for c in cands), 0)
            for ring, pos, pkt, idx in cands:
                if pkt == busy[0]:
                    if idx != busy[1]:
                        raise ProtocolViolation("ejection lost packet contiguity")
                    busy_links -= idx > 0
                    self._eject(ekey, pkt, idx, t, trace)
                elif idx == 0:
                    self._deflect(ring, pos, pkt, t, trace)
                else:
                    raise ProtocolViolation("payload flit arrived for a denied packet")
        if busy_links:
            raise ProtocolViolation("ejecting packet missed a cycle")

        # Resolve output ports and commit the flits they emit to the next
        # flit buffers. A flit leaving over the ejection link frees the port,
        # so it does not gate header injection (the buffer-empty rule
        # protects the port, not the slot).
        for rid in active:
            ring = rings[rid]
            fb, pb, inj, ring_thru = ring.fb, ring.pb, ring.inj, ring.thru
            ports = {**ring_thru, **pb, **inj}
            for pos in sorted(ports) if ordered else ports:
                if pos in inj:
                    state = inj[pos]
                    pkt, idx = state[0], state[1]
                    flit = (pkt << bits) | idx
                    self.flits_injected += 1
                    if idx + 1 == pkt_info[pkt][4]:
                        del inj[pos]
                        self._dequeue(state[2])
                    else:
                        state[1] = idx + 1
                    if pos in ring_thru:
                        self._buffer(ring, pos, ring_thru.pop(pos))
                elif pos in pb:
                    buf = pb[pos]
                    flit = buf.popleft()
                    if pos in ring_thru:
                        buf.append(ring_thru.pop(pos))
                    if not buf:
                        del pb[pos]
                        self.freed = True
                else:
                    flit = ring_thru.pop(pos)
                fb[(pos + 1) % ring.size] = flit
                if trace is not None:
                    trace.append(("out", t, rid, pos, flit >> bits, flit & mask))
            if ring_thru:
                raise ProtocolViolation("a flit was left behind in a flit buffer")
            if not (fb or pb or inj):
                busy_rings.discard(rid)

        # Fresh header injections: head of each idle queue, provided the
        # ring's flit buffer was empty this cycle and its packet buffer is.
        # A copy, since a header-only head leaves its queue here.
        for qkey in sorted(self.queues) if ordered else list(self.queues):
            pkt = self.queues[qkey][0]
            info = pkt_info[pkt]
            rid, pos, length = info[0], info[1], info[4]
            ring = rings[rid]
            nxt = (pos + 1) % ring.size
            # Blocked whenever the output port carried ring traffic this
            # cycle, filling the next flit buffer: a thru or deflected flit,
            # a packet buffer that was draining at cycle start (even if it
            # emptied this cycle), or an ongoing payload injection (even one
            # that finished this cycle), which is also how a head that is
            # still injecting is skipped. No two queues share a port.
            if nxt in ring.fb:
                continue
            ring.fb[nxt] = pkt << bits
            busy_rings.add(rid)
            self.flits_injected += 1
            if trace is not None:
                trace.append(("inject", t, pkt, rid, pos))
                trace.append(("out", t, rid, pos, pkt, 0))
            if length == 1:
                self._dequeue(qkey)
            else:
                ring.inj[pos] = [pkt, 1, qkey]

    def _dequeue(self, qkey: tuple) -> None:
        """Drop a queue's head, whose last flit has left, and the queue once
        it is empty."""
        queue = self.queues[qkey]
        queue.popleft()
        self.freed = True
        if not queue:
            del self.queues[qkey]

    def _buffer(self, ring: _RingState, pos: int, flit: int) -> None:
        buf = ring.pb.setdefault(pos, deque())
        buf.append(flit)
        if len(buf) > ring.capacity:
            raise ProtocolViolation(
                f"packet buffer overflow at ring {ring.ring_id} position {pos}"
            )

    def _eject(self, ekey: tuple, pkt: int, idx: int, t: int, trace) -> None:
        length = self.pkt_info[pkt][4]
        self.flits_ejected += 1
        if trace is not None:
            trace.append(("eject", t, ekey, pkt, idx))
        if idx == length - 1:
            self.ebusy.pop(ekey, None)
            self.freed = True
            self.pkt_delivery[pkt] = t
            if trace is not None:
                trace.append(("deliver", t, pkt, t - (self.releases[pkt] >> self.shift)))
        else:
            self.ebusy[ekey] = [pkt, idx + 1]

    def _deflect(self, ring: _RingState, pos: int, pkt: int, t: int, trace) -> None:
        self.pkt_deflections[pkt] += 1
        if self.pkt_info[pkt][4] > 1:
            ring.defl[pos] = pkt
        ring.thru[pos] = pkt << self.idx_bits
        if trace is not None:
            trace.append(("deflect", t, ring.ring_id, pos, pkt))

    def _finish(self) -> SimOutcome:
        if self.queues or self.ebusy or self.busy_rings:
            raise ProtocolViolation("network failed to drain after the last release")
        if -1 in self.pkt_delivery:
            raise ProtocolViolation("a released packet has no delivery cycle")
        releases, shift, mask = self.releases, self.shift, self.mask
        # Every packet but the deviants was admitted in closed form with
        # h = t, so it has its flow's unhindered latency hops + length - 1
        # and no deflection; the deviants are walked one by one. Statistics
        # are kept by rank.
        flow_stats = [[0, 0, 0, 0] for _ in self.fids]
        for pkt in self.deviants:
            release = releases[pkt] >> shift
            stats = flow_stats[releases[pkt] & mask]
            latency = self.pkt_delivery[pkt] - release
            stats[0] += 1
            stats[1] += latency
            if latency > stats[2]:
                stats[2] = latency
            defl = self.pkt_deflections[pkt]
            if defl > stats[3]:
                stats[3] = defl
        for stats, info, released in zip(flow_stats, self.flow_info, self.counts):
            rest = released - stats[0]
            if rest:
                latency = info[3] + info[4] - 1
                stats[0] += rest
                stats[1] += rest * latency
                if latency > stats[2]:
                    stats[2] = latency
        per_flow = {fid: FlowStats(count, worst, total / count if count else 0.0, defl)
                    for fid, (count, total, worst, defl) in zip(self.fids, flow_stats)}
        # The digest hashes "packet:delivery:deflections" for every packet,
        # joined by ";"; with no deflection the last field is a literal 0.
        # Its arguments are interleaved by slice assignment into one list,
        # dropped once copied so that it does not outlive the copy.
        n, deflections = len(self.pkt_info), sum(self.pkt_deflections)
        k = 3 if deflections else 2
        values = [0] * (k * n)
        values[0::k] = range(n)
        values[1::k] = self.pkt_delivery
        if deflections:
            values[2::3] = self.pkt_deflections
        values = tuple(values)
        blob = (b"%d:%d:%d;" if deflections else b"%d:%d:0;") * n % values
        digest = hashlib.sha256(blob[:-1]).hexdigest()
        return SimOutcome(
            per_flow=per_flow,
            released=n,
            delivered=sum(stats.packets for stats in per_flow.values()),
            flits_injected=self.flits_injected,
            flits_ejected=self.flits_ejected,
            deflections=deflections,
            drained=True,
            digest=digest,
            stepped_cycles=self.stepped_cycles,
            trace=self.trace,
        )


@dataclass(frozen=True)
class OracleViolation:
    flow: int
    kind: Literal["latency", "deflections"]
    observed: int
    limit: int


@dataclass(frozen=True)
class OracleReport:
    violations: tuple[OracleViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def oracle_check(flowset: Flowset, analysis: FlowsetResult,
                 outcome: SimOutcome) -> OracleReport:
    """Compare observed behaviour against the analytical bounds.

    Every delivered packet of every flow must stay at or below its flow's
    latency bound and deflection bound; any excess is a violation. Requires a
    schedulable analysis result, since only then are the bounds valid.
    """
    if not analysis.schedulable:
        raise ValueError("oracle_check needs a schedulable analysis result")
    violations = []
    for fid, stats in sorted(outcome.per_flow.items()):
        if stats.packets == 0:
            continue
        result = analysis.results[fid]
        if stats.max_latency > result.bound:
            violations.append(OracleViolation(fid, "latency", stats.max_latency,
                                              result.bound))
        if stats.max_deflections > result.maxloop:
            violations.append(OracleViolation(fid, "deflections",
                                              stats.max_deflections, result.maxloop))
    return OracleReport(tuple(violations))


def outcome_to_csv(outcome: SimOutcome, cfg: SimConfig, config: AnalysisConfig) -> str:
    release = cfg.release
    if isinstance(release, tuple):
        # One whitespace-free token, the same for any listing order.
        blob = repr(sorted(release)).encode("ascii")
        release = f"schedule:{len(release)}:{hashlib.sha256(blob).hexdigest()[:12]}"
    lines = [
        "# seed={} horizon={} release={} injection={} ejection={} drained=true".format(
            cfg.seed, cfg.horizon, release, config.injection,
            "shared" if config.maxloop else "independent")
    ]
    lines.append("flow,packets,max_latency,mean_latency,max_deflections")
    for fid in sorted(outcome.per_flow):
        s = outcome.per_flow[fid]
        lines.append(f"{fid},{s.packets},{s.max_latency},{s.mean_latency:.3f},"
                     f"{s.max_deflections}")
    return "\n".join(lines) + "\n"
