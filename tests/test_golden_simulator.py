"""Golden digests of simulator outcomes.

``SimOutcome.digest`` hashes every packet's delivery cycle and deflection
count. The other simulator tests compare closed form with the traced run,
which steps every cycle. A change to the shared cycle engine could alter
both at once; these digests pin the exact outcomes instead. The cases are
criterion-2 style schedulable flowsets under each campaign-type
configuration with sporadic and periodic releases, plus dense short runs on
shared ejection links where packets deflect. The dense runs also pin the
hash of their full event trace, which fixes the order in which the engine
processes rings, ports and ejection links within a cycle. The digest itself
is rebuilt from a traced run's delivery and deflection events, so its
format is pinned apart from the engine's own formatting.
"""

import hashlib
from collections import Counter

import pytest

from rlnoc.analysis import AnalysisConfig, parse_profile
from rlnoc.harness import find_schedulable_flowset
from rlnoc.seeds import derive_seed
from rlnoc.simulator import SimConfig, simulate
from rlnoc.traffic import BenchmarkParams, generate_flowset

MASTER_SEED = 20260808
HORIZON = 1_000_000

# (configuration, flows per set, release model) -> digest
GOLDEN_CAMPAIGN = {
    ("0D_IU_II", 40, "periodic"): "d485e718b02b02487b62d8bc97f5b880c2361948425f1e5a82b7525bb034738f",
    ("0D_IU_II", 40, "sporadic"): "d417b52dcfaaf0ce80440b18181daa0454c1c78e571e4f9a87a01175f3616bba",
    ("0D_IU_SI", 60, "periodic"): "9ce27d7499584ce207f6519935798329278f8453010af8bcbcf4d6f72c4ad4bb",
    ("0D_IU_SI", 60, "sporadic"): "2ba1646ea2557c4c0d9b115d8955f04d5d7bb6dcb76e5bc5b8cc2bbe7955eaad",
    ("1D_IU_SI", 40, "periodic"): "c9bd2558a9060b670452b104042882824159cb6dfdffd3a92b95e2c5e3eb0c3e",
    ("1D_IU_SI", 40, "sporadic"): "b95bbf196682fbbc2731d35b2827b07a28c3e3de96008448e3a6745c30e9dca2",
    ("2D_IU_SI", 60, "periodic"): "63342e74d3f9d508d23742164cc476f95d33c4dd5ff659112d6d983767d6f841",
    ("2D_IU_SI", 60, "sporadic"): "f64018a8ee323fa1df89e0bc00feb0751485f50ebad942f7f6f452e9301b4758",
    ("OF_IU_SI", 40, "periodic"): "96b460abc7916fc465f950d65f313efaf7afd0c90c4ac539c7e7ec0910df7ef0",
    ("OF_IU_SI", 40, "sporadic"): "774f13d1fb64c892c49c1067ba9e20885088644bbaead6cf6b832d1487e2cd9f",
}

# flows per shared ejection link (None: one Oldest-First link per core)
# -> (deflections, digest)
GOLDEN_DENSE = {
    None: (61, "fd2330b524970272a88d508ca4c2b6e47478bb08b1504d82fcde323ecc2b2335"),
    2: (12, "9bef6eac429e9314a673c64386f869ede59ef7813152e23ab261d576d452f1d8"),
}

# flows per shared ejection link -> sha256 of repr(outcome.trace)
GOLDEN_DENSE_TRACE = {
    None: "0c8ba117dadfaaddd1a0390f9309374c20bd60748463934a9db920dfb027d185",
    2: "1e4b927ef704320b1f1c31fa2a5b8171346b64331840c47fd5396022bcc2747d",
}


def campaign_outcome(name, flows, release, collect_trace=False):
    config = parse_profile(name)
    flowset, _, _ = find_schedulable_flowset(
        BenchmarkParams(flows_per_set=flows), config,
        derive_seed(MASTER_SEED, "golden", name), max_attempts=500)
    cfg = SimConfig(seed=derive_seed(MASTER_SEED, "golden-sim", name, release),
                    horizon=HORIZON, release=release, collect_trace=collect_trace)
    outcome = simulate(flowset, cfg, config)
    assert outcome.drained
    return outcome


def dense_outcome(flows_per_link, collect_trace):
    flowset = generate_flowset(BenchmarkParams(
        flows_per_set=120, packet_range=(8, 32), period_range=(200, 1_500), seed=7))
    cfg = SimConfig(seed=3, horizon=3_000, collect_trace=collect_trace)
    hw = AnalysisConfig(injection="shared", maxloop=flows_per_link or "oldest_first")
    return simulate(flowset, cfg, hw)


@pytest.mark.parametrize("name,flows,release", sorted(GOLDEN_CAMPAIGN))
def test_campaign_digest(name, flows, release):
    assert campaign_outcome(name, flows, release).digest == \
        GOLDEN_CAMPAIGN[(name, flows, release)]


def test_campaign_digest_stepping_every_cycle():
    key = ("OF_IU_SI", 40, "periodic")
    outcome = campaign_outcome(*key, collect_trace=True)
    assert outcome.deflections > 0
    assert outcome.digest == GOLDEN_CAMPAIGN[key]


# The traced dense runs are checked by test_dense_shared_ejection_trace.
@pytest.mark.parametrize("collect_trace", (False,))
@pytest.mark.parametrize("flows_per_link", (None, 2))
def test_dense_shared_ejection_digest(flows_per_link, collect_trace):
    outcome = dense_outcome(flows_per_link, collect_trace)
    assert (outcome.deflections, outcome.digest) == GOLDEN_DENSE[flows_per_link]


@pytest.mark.parametrize("flows_per_link", (None, 2))
def test_dense_shared_ejection_trace(flows_per_link):
    outcome = dense_outcome(flows_per_link, collect_trace=True)
    assert (outcome.deflections, outcome.digest) == GOLDEN_DENSE[flows_per_link]
    trace_digest = hashlib.sha256(repr(outcome.trace).encode("ascii")).hexdigest()
    assert trace_digest == GOLDEN_DENSE_TRACE[flows_per_link]


def digest_from_events(outcome):
    """The digest rebuilt from a traced run's events: every packet's delivery
    cycle from its ``deliver`` event and its deflection count from its
    ``deflect`` events, hashed as "packet:delivery:deflections" joined by ";"."""
    delivery, deflections = {}, Counter()
    for event in outcome.trace:
        if event[0] == "deliver":
            delivery[event[2]] = event[1]
        elif event[0] == "deflect":
            deflections[event[4]] += 1
    assert sorted(delivery) == list(range(outcome.released))
    blob = ";".join(f"{pkt}:{delivery[pkt]}:{deflections[pkt]}"
                    for pkt in range(outcome.released))
    return hashlib.sha256(blob.encode("ascii")).hexdigest()


@pytest.mark.parametrize("run, deflections", [
    (lambda trace: campaign_outcome("0D_IU_SI", 60, "sporadic", trace), 0),
    (lambda trace: dense_outcome(None, trace), 61),
], ids=["campaign_deflection_free", "dense_oldest_first"])
def test_digest_equals_one_rebuilt_from_trace_events(run, deflections):
    # The closed-form digest, whichever way the engine formats it, against
    # one computed from first principles: a run with no deflection and one
    # with many.
    closed, traced = run(False), run(True)
    assert closed.deflections == traced.deflections == deflections
    assert closed.digest == digest_from_events(traced)
