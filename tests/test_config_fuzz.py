"""Config fuzzer: every document either raises ConfigError or runs.

A document starts from values each field accepts on its own, drawn so that
the fields can still disagree with one another (partition weights against
the dataset size, classes per client against the client count,
freeze_offload's profiled batches against local updates, tiers against
clients). A document may have a single local update (FedSGD), which only
freeze_offload rejects. Up to two fields are then replaced with a value of
the wrong type, a non-finite float or a boundary number, and an int field
may also get a whole number outside int64. The learning rate, the data
noise and freeze_offload's profile noise may get 1e308, the hidden width
2**62 and the client count 2**63 - 1. A value for freeze_offload's
profiling knobs goes to the document's last freeze_offload entry, or to
one added when the document has none, as only that strategy profiles.
Phase times of 1e-300 s may meet a dispatch latency of 1e10 s, with a
freeze_offload entry, and 2**40 local updates may meet batches of 2**30
samples: pairs that no one field's extreme reaches. A document that
parses must run all of its strategies for its rounds (at most 2) to
completion, in lockstep as `fedsim run` does; any other exception is an
escape that `fedsim run` would report through its catch-all with exit 2.
"""

import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fedsim.config import ConfigError, parse_config
from fedsim.engine import run_experiments

BAD = st.one_of(
    st.sampled_from([None, True, False, "2", [], {}, [1], {"a": 1}]),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.sampled_from([0, -1, 0.0, -1.0, 2.5, 1e-320]),
)

# Whole numbers no int64 holds, drawn for int fields only.
OUT_OF_INT64 = st.sampled_from([2**63, 10**30, 1e300])

# Values each field accepts on its own that training or memory cannot: a
# learning rate or data noise that makes training diverge, profile noise
# that overflows the profiled times, a model wider than numpy can address,
# and more clients than any partition can give samples to.
HUGE = {
    ("training", "learning_rate"): 1e308,
    ("dataset", "noise_sigma"): 1e308,
    ("freeze_offload", "profile_noise_sigma"): 1e308,
    ("training", "hidden_dim"): 2**62,
    ("clients", "count"): 2**63 - 1,
}

# Where a bad value may go: (section, key). The section None is the top
# level, and "freeze_offload" the document's last freeze_offload entry.
FIELDS = [
    ("dataset", "num_classes"),
    ("dataset", "samples_per_class"),
    ("dataset", "input_dim"),
    ("dataset", "noise_sigma"),
    ("clients", "count"),
    ("clients", "per_round"),
    ("clients", "speed_low"),
    ("clients", "speed_high"),
    ("clients", "speed_factors"),
    ("partition", "mode"),
    ("partition", "classes_per_client"),
    ("partition", "sizes"),
    ("training", "rounds"),
    ("training", "local_updates"),
    ("training", "batch_size"),
    ("training", "learning_rate"),
    ("training", "hidden_dim"),
    ("freeze_offload", "profile_batches"),
    ("freeze_offload", "profile_noise_sigma"),
    ("profile", "base"),
    ("latency", "dispatch"),
    ("latency", "transfer"),
    (None, "strategies"),
    (None, "seed"),
]
INT_FIELDS = {
    ("dataset", "num_classes"),
    ("dataset", "samples_per_class"),
    ("dataset", "input_dim"),
    ("clients", "count"),
    ("clients", "per_round"),
    ("partition", "classes_per_client"),
    ("training", "rounds"),
    ("training", "local_updates"),
    ("training", "batch_size"),
    ("training", "hidden_dim"),
    ("freeze_offload", "profile_batches"),
    (None, "seed"),
}

STRATEGIES = st.one_of(
    st.sampled_from(["fedavg", "fednova", {"name": "fedavg"}]),
    st.builds(lambda mu: {"name": "fedprox", "mu": mu}, st.sampled_from([0.0, 0.01, 1.0])),
    st.builds(lambda t: {"name": "tifl", "tiers": t}, st.integers(1, 4)),
    st.builds(lambda m: {"name": "deadline", "multiplier": m}, st.floats(0.1, 3.0)),
    # Without its own profile_noise_sigma, freeze_offload measures exactly.
    st.builds(
        lambda f, b, s: {
            "name": "freeze_offload",
            "similarity_factor": f,
            "profile_batches": b,
            **({} if s is None else {"profile_noise_sigma": s}),
        },
        st.floats(0.0, 2.0),
        st.integers(1, 4),
        st.sampled_from([0.0, 0.2, None]),
    ),
)


@st.composite
def documents(draw):
    num_classes = draw(st.integers(2, 5))
    count = draw(st.integers(1, 12))
    updates = draw(st.integers(1, 6))
    low = draw(st.floats(0.05, 1.0))
    doc = {
        "dataset": {
            "num_classes": num_classes,
            "samples_per_class": draw(st.integers(2, 30)),
            "input_dim": draw(st.integers(1, 4)),
            "noise_sigma": draw(st.floats(0.0, 3.0)),
        },
        "clients": {
            "count": count,
            "per_round": draw(st.integers(1, count)),
            "speed_low": low,
            "speed_high": draw(st.floats(low, 1.0)),
        },
        "partition": {"mode": draw(st.sampled_from(["iid", "noniid"]))},
        "training": {
            "rounds": draw(st.integers(1, 2)),
            "local_updates": updates,
            "batch_size": draw(st.integers(1, 9)),
            "learning_rate": draw(st.floats(1e-3, 1.0)),
            "hidden_dim": draw(st.integers(1, 6)),
        },
        "profile": {},
        "latency": {
            "dispatch": draw(st.sampled_from([0.0, 0.5, 3.0, 30.0])),
            "transfer": draw(st.sampled_from([0.0, 1.0, 10.0])),
        },
        "strategies": draw(st.lists(STRATEGIES, min_size=1, max_size=3)),
        "seed": draw(st.integers(0, 1000)),
    }
    if doc["partition"]["mode"] == "noniid":
        doc["partition"]["classes_per_client"] = draw(st.integers(1, num_classes))
    if draw(st.booleans()):
        weight = st.one_of(st.floats(0.5, 50.0), st.sampled_from([1000.0, 1e-3]))
        doc["partition"]["sizes"] = draw(st.lists(weight, min_size=count, max_size=count))
    if draw(st.booleans()):
        factor = st.floats(0.01, 1.0)
        doc["clients"]["speed_factors"] = draw(st.lists(factor, min_size=count, max_size=count))
    if draw(st.booleans()):
        phase = st.floats(1e-3, 2.0)
        doc["profile"]["base"] = draw(
            st.fixed_dictionaries({"ff": phase, "fc": phase, "bc": phase, "bf": phase})
        )
    if draw(st.booleans()):
        # Tiny phase times against a long dispatch latency, which no one
        # field's extreme reaches: the batches a client has run by the time
        # the schedule arrives overflow a float.
        doc["profile"]["base"] = {"ff": 1e-300, "fc": 1e-300, "bc": 1e-300, "bf": 1e-300}
        doc["latency"]["dispatch"] = 1e10
        doc["strategies"].append({"name": "freeze_offload", "similarity_factor": 4.0})
    if draw(st.booleans()):
        # A round's batches more than numpy can address, though neither
        # count is on its own.
        doc["training"].update(local_updates=2**40, batch_size=2**30)
    if draw(st.booleans()):
        # Each huge value on its own, so that documents which otherwise
        # parse reach it often.
        section, key = draw(st.sampled_from(sorted(HUGE)))
        holder(doc, section)[key] = HUGE[section, key]
    for section, key in draw(st.lists(st.sampled_from(FIELDS), max_size=2, unique=True)):
        # The narrow pools come before BAD so that hypothesis draws them often.
        pools = [st.just(HUGE[section, key])] if (section, key) in HUGE else []
        if (section, key) in INT_FIELDS:
            pools.append(OUT_OF_INT64)
        holder(doc, section)[key] = draw(st.one_of(*pools, BAD))
    return doc


def holder(doc, section):
    """The mapping that holds `section`'s keys. For "freeze_offload" that is
    the last freeze_offload entry, added if there is none; when `strategies`
    is not a list, a mapping the document does not hold."""
    if section is None:
        return doc
    if section != "freeze_offload":
        return doc[section]
    entries = doc["strategies"]
    if not isinstance(entries, list):
        return {}
    for entry in reversed(entries):
        if isinstance(entry, dict) and entry.get("name") == "freeze_offload":
            return entry
    # Its label is one no drawn entry has.
    entries.append({"name": "freeze_offload", "similarity_factor": 3.0})
    return entries[-1]


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(documents())
def test_every_document_raises_config_error_or_runs(doc):
    try:
        config = parse_config(doc)
        assert config.training.rounds <= 2
        # A noniid partition the seed's train split cannot realise is a
        # ConfigError from building the experiment.
        results = run_experiments(config, [(s, config.seed) for s in config.strategies])
        assert [len(r.traces) for r in results] == [config.training.rounds] * len(results)
    except ConfigError:
        pass
