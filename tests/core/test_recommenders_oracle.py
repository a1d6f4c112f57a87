"""``TrustTable.recommenders`` reads one domain bucket, pinned to a full scan.

Scalar Ω iterates only the trustee's domain bucket.  These properties
replay random record/remove/re-record sequences and check, for every
trustee, context and excluded asker (absent entities included), that the
bucket walk yields exactly the ``(z, record)`` pairs — in the same order —
as the whole-table scan it replaced, kept inline here as the oracle.  Ω
and Γ are then checked with ``==`` against scan-based oracles, so the
summation order (and with it every float) is pinned too.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.context import TrustContext
from repro.core.decay import ExponentialDecay, NoDecay
from repro.core.domains import DomainMap
from repro.core.engine import TrustEngine
from repro.core.recommender import RecommenderWeights
from repro.core.tables import TrustTable

CONTEXTS = (TrustContext("execute"), TrustContext("store"), TrustContext("toa"))
ENTITIES = ("a", "b", "c", "d", "e", "f", 7, 8)
ABSENT = "nobody"
NOW = 1_000.0

# Few buckets, so most entities share one: a bucket then holds opinions
# about many trustees and the trustee filter inside it is exercised.
CROWDED = DomainMap(domain_of=lambda entity: "hub" if entity != "f" else "edge")
DOMAIN_MAPS = {"crc": DomainMap(), "crowded": CROWDED}

ops = st.lists(
    st.tuples(
        st.sampled_from(("record", "record", "remove")),
        st.sampled_from(ENTITIES),
        st.sampled_from(ENTITIES),
        st.sampled_from(CONTEXTS),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=NOW, allow_nan=False),
    ),
    max_size=60,
)


def _build(domains: DomainMap, sequence) -> TrustTable:
    table = TrustTable(domains)
    for op, truster, trustee, context, value, time in sequence:
        if truster == trustee:
            continue
        if op == "record":
            table.record(truster, trustee, context, value, time)
        elif (truster, trustee, context) in table:
            table.remove(truster, trustee, context)
    return table


def _scan(table: TrustTable, trustee, context, excluding):
    """The pre-bucket ``recommenders``: filter every record of the table."""
    return [
        (truster, rec)
        for (truster, target, ctx), rec in table.items()
        if target == trustee and ctx == context and truster != excluding
    ]


def _omega_oracle(table, weights, decay, trustee, context, asking):
    total = 0.0
    count = 0
    for z, rec in _scan(table, trustee, context, asking):
        weight = weights.factor(z, trustee)
        if weight == 0.0:
            continue
        total += rec.value * weight * decay(NOW - rec.last_transaction)
        count += 1
    return total / count if count else 0.0


def _weights(domains: DomainMap, learned) -> RecommenderWeights:
    weights = RecommenderWeights(learning_rate=1.0, domains=domains)
    for recommender, claimed, actual in learned:
        weights.observe_outcome(recommender, claimed, actual)
    return weights


learned = st.lists(
    st.tuples(
        st.sampled_from(ENTITIES),
        st.sampled_from((0.0, 0.5, 1.0)),
        st.sampled_from((0.0, 0.5, 1.0)),
    ),
    max_size=6,
)


@settings(max_examples=150, deadline=None)
@given(domains=st.sampled_from(sorted(DOMAIN_MAPS)), sequence=ops)
def test_recommenders_equal_full_scan(domains, sequence):
    table = _build(DOMAIN_MAPS[domains], sequence)
    for trustee in ENTITIES + (ABSENT,):
        for context in CONTEXTS:
            for excluding in ENTITIES + (ABSENT,):
                got = list(table.recommenders(trustee, context, excluding=excluding))
                expected = _scan(table, trustee, context, excluding)
                assert got == expected
                # Same record objects, not merely equal values.
                assert all(a is b for (_, a), (_, b) in zip(got, expected))


@settings(max_examples=100, deadline=None)
@given(
    domains=st.sampled_from(sorted(DOMAIN_MAPS)),
    sequence=ops,
    learned=learned,
    decayed=st.booleans(),
)
def test_omega_and_gamma_equal_scan_oracle(domains, sequence, learned, decayed):
    domain_map = DOMAIN_MAPS[domains]
    table = _build(domain_map, sequence)
    weights = _weights(domain_map, learned)
    decay = ExponentialDecay(rate=0.003, floor=0.1) if decayed else NoDecay()
    engine = TrustEngine.build(table=table, weights=weights, decay=decay)
    for trustee in ENTITIES + (ABSENT,):
        for context in CONTEXTS:
            for asking in ENTITIES + (ABSENT,):
                omega = _omega_oracle(table, weights, decay, trustee, context, asking)
                assert (
                    engine.reputation.evaluate(trustee, context, NOW, asking=asking)
                    == omega
                )
                rec = table.get(asking, trustee, context)
                theta = (
                    0.0
                    if rec is None
                    else rec.value * decay(NOW - rec.last_transaction)
                )
                assert engine.gamma(asking, trustee, context, NOW) == (
                    engine.alpha * theta + engine.beta * omega
                )
