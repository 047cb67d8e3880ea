"""Tests for the freeze-and-offload scheduler.

The offload-point scan and the greedy matcher are both checked against
independent brute-force reimplementations on randomized inputs, plus a set
of hand-computed fixed cases.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsim.profiling import ClientProfile, PhaseTimings
from fedsim.scheduling import (
    OffloadAssignment,
    build_schedule,
    find_offload_point,
    mean_completion_time,
    offload_points,
    split_sending_receiving,
)
from fedsim.similarity import ClassCountSubmission, SimilarityOracle

from distance_table import DistanceTable


def profile(cid, full_time, remaining, bf=None):
    """Profile with a given full batch time; phases split 0.15/0.05/0.15/0.65."""
    if bf is None:
        bf = 0.65 * full_time
    rest = full_time - bf
    return ClientProfile(
        client_id=cid,
        timings=PhaseTimings(
            ff=rest * 3 / 7, fc=rest * 1 / 7, bc=rest * 3 / 7, bf=bf
        ),
        remaining_updates=remaining,
    )


def uniform_matrix(ids, value=0.0):
    m = len(ids)
    values = np.full((m, m), float(value))
    np.fill_diagonal(values, 0.0)
    return DistanceTable(values=values, client_ids=tuple(ids))


def matrix_from(ids, pairs):
    m = len(ids)
    values = np.zeros((m, m))
    index = {cid: i for i, cid in enumerate(ids)}
    for (a, b), d in pairs.items():
        values[index[a], index[b]] = d
        values[index[b], index[a]] = d
    return DistanceTable(values=values, client_ids=tuple(ids))


def brute_force_offload(t_a, t_b, x_b, r_a, r_b):
    """Exhaustive minimum over every candidate offload point."""
    costs = [
        max((r_a - d) * t_a + d * x_b, (r_b - d) * t_b)
        for d in range(1, min(r_a, r_b) + 1)
    ]
    return min(costs)


class TestFindOffloadPoint:
    def test_monotone_decreasing_runs_to_the_end(self):
        # Cost falls with every extra offloaded batch, so the scan should
        # hand over everything it can.
        cost, point = find_offload_point(4.0, 1.0, 1.0, 10, 10)
        assert cost == pytest.approx(10.0)
        assert point == 10

    def test_interior_minimum_stops_early(self):
        # d=1: max(23, 27) = 27; d=2: max(26, 24) = 26; d=3: max(29, 21) = 29.
        cost, point = find_offload_point(2.0, 3.0, 5.0, 10, 10)
        assert cost == pytest.approx(26.0)
        assert point == 2

    def test_single_remaining_batch(self):
        cost, point = find_offload_point(5.0, 2.0, 3.0, 1, 1)
        assert cost == pytest.approx(3.0)
        assert point == 1

    def test_matches_brute_force(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            t_a = float(rng.uniform(0.5, 10.0))
            t_b = float(rng.uniform(0.1, t_a))
            x_b = float(rng.uniform(0.05, t_b))
            r_a = int(rng.integers(1, 40))
            r_b = int(rng.integers(1, 40))
            cost, point = find_offload_point(t_a, t_b, x_b, r_a, r_b)
            assert cost == pytest.approx(brute_force_offload(t_a, t_b, x_b, r_a, r_b))
            assert 1 <= point <= min(r_a, r_b)
            achieved = max(
                (r_a - point) * t_a + point * x_b, (r_b - point) * t_b
            )
            assert achieved == pytest.approx(cost)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            find_offload_point(0.0, 1.0, 1.0, 5, 5)
        with pytest.raises(ValueError):
            find_offload_point(1.0, 1.0, 1.0, 0, 5)
        with pytest.raises(ValueError):
            find_offload_point(1.0, 1.0, -0.5, 5, 5)


class TestSplit:
    def test_mean_and_partition(self):
        profiles = [
            profile(0, 4.0, 10),  # estimate 40
            profile(1, 4.0, 10),  # estimate 40
            profile(2, 1.0, 10),  # estimate 10
            profile(3, 3.0, 10),  # estimate 30
        ]
        mean = mean_completion_time(profiles)
        assert mean == pytest.approx(30.0)
        sending, receiving = split_sending_receiving(profiles, mean)
        assert [p.client_id for p in sending] == [0, 1]
        assert [p.client_id for p in receiving] == [3, 2]

    def test_tie_with_mean_receives(self):
        # A client exactly on the mean must not be a sender.
        profiles = [profile(0, 2.0, 10), profile(1, 2.0, 10)]
        mean = mean_completion_time(profiles)
        sending, receiving = split_sending_receiving(profiles, mean)
        assert sending == []
        assert [p.client_id for p in receiving] == [0, 1]

    def test_sort_orders(self):
        profiles = [
            profile(5, 6.0, 10),
            profile(1, 5.0, 10),
            profile(2, 5.0, 10),
            profile(9, 1.0, 10),
            profile(3, 2.0, 10),
            profile(4, 2.0, 10),
        ]
        mean = mean_completion_time(profiles)  # 35
        sending, receiving = split_sending_receiving(profiles, mean)
        # Senders ascending by estimate, ties by id.
        assert [p.client_id for p in sending] == [1, 2, 5]
        # Receivers descending by estimate, ties by id.
        assert [p.client_id for p in receiving] == [3, 4, 9]

    def test_empty_profiles_rejected(self):
        with pytest.raises(ValueError):
            mean_completion_time([])


def greedy_oracle(profiles, matrix, factor):
    """Independent reimplementation of the matching loop."""
    mean = sum(p.estimated_remaining_time() for p in profiles) / len(profiles)
    sending = sorted(
        (p for p in profiles if p.estimated_remaining_time() > mean),
        key=lambda p: (p.estimated_remaining_time(), p.client_id),
    )
    receiving = sorted(
        (p for p in profiles if p.estimated_remaining_time() <= mean),
        key=lambda p: (-p.estimated_remaining_time(), p.client_id),
    )
    used = set()
    pairs = []
    for weak in sending:
        if weak.remaining_updates < 1:
            continue
        if len(used) == len(receiving):
            break
        scored = []
        for strong in receiving:
            if strong.client_id in used or strong.remaining_updates < 1:
                continue
            costs = [
                max(
                    (weak.remaining_updates - d) * weak.timings.full_time
                    + d * strong.timings.bf,
                    (strong.remaining_updates - d) * strong.timings.full_time,
                )
                for d in range(
                    1, min(weak.remaining_updates, strong.remaining_updates) + 1
                )
            ]
            completion = min(costs)
            s = float(matrix.block([weak.client_id], [strong.client_id])[0, 0])
            scored.append(
                (completion * (1.0 + math.log(s * factor + 1.0)), strong.client_id)
            )
        if not scored:
            continue
        scored.sort()
        pairs.append((weak.client_id, scored[0][1]))
        used.add(scored[0][1])
    return pairs


def random_profiles(rng, n):
    ids = list(range(n))
    rng.shuffle(ids)
    return [
        profile(
            cid,
            full_time=float(rng.uniform(0.5, 8.0)),
            remaining=int(rng.integers(1, 30)),
        )
        for cid in ids
    ]


def random_matrix(rng, ids):
    m = len(ids)
    values = np.zeros((m, m))
    for i in range(m):
        for j in range(i + 1, m):
            values[i, j] = values[j, i] = float(rng.uniform(0.0, 2.0))
    return DistanceTable(values=values, client_ids=tuple(sorted(ids)))


class TestBuildSchedule:
    def test_invariants_on_random_inputs(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(2, 12))
            profiles = random_profiles(rng, n)
            matrix = random_matrix(rng, [p.client_id for p in profiles])
            factor = float(rng.choice([0.0, 0.5, 1.0, 5.0]))
            schedule = build_schedule(profiles, matrix, factor)
            sending = set(schedule.sending_ids)
            receiving = set(schedule.receiving_ids)
            assert sending.isdisjoint(receiving)
            assert sending | receiving == {p.client_id for p in profiles}
            strongs = [a.strong_client_id for a in schedule.assignments]
            assert len(strongs) == len(set(strongs))
            for a in schedule.assignments:
                assert a.weak_client_id in sending
                assert a.strong_client_id in receiving
                assert a.offload_point >= 1
                assert a.estimated_completion > 0

    def test_matches_greedy_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            n = int(rng.integers(2, 10))
            profiles = random_profiles(rng, n)
            matrix = random_matrix(rng, [p.client_id for p in profiles])
            factor = float(rng.choice([0.0, 1.0, 3.0]))
            schedule = build_schedule(profiles, matrix, factor)
            got = [(a.weak_client_id, a.strong_client_id) for a in schedule.assignments]
            assert got == greedy_oracle(profiles, matrix, factor)

    def test_factor_zero_ignores_similarity(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            n = int(rng.integers(2, 10))
            profiles = random_profiles(rng, n)
            ids = [p.client_id for p in profiles]
            hostile = random_matrix(rng, ids)
            friendly = uniform_matrix(sorted(ids), 0.0)
            a = build_schedule(profiles, hostile, 0.0)
            b = build_schedule(profiles, friendly, 0.0)
            assert a.assignments == b.assignments

    def test_assignment_stores_raw_completion(self):
        # The similarity factor steers the choice but the stored estimate is
        # the undiscounted completion time of the chosen pair.
        profiles = [profile(0, 5.0, 10), profile(1, 1.0, 4), profile(2, 1.2, 4)]
        matrix = matrix_from([0, 1, 2], {(0, 1): 2.0, (0, 2): 0.0, (1, 2): 0.0})
        schedule = build_schedule(profiles, matrix, 4.0)
        assert len(schedule.assignments) == 1
        a = schedule.assignments[0]
        cost, point = find_offload_point(
            5.0,
            next(p for p in profiles if p.client_id == a.strong_client_id).timings.full_time,
            next(p for p in profiles if p.client_id == a.strong_client_id).timings.bf,
            10,
            4,
        )
        assert a.estimated_completion == pytest.approx(cost)
        assert a.offload_point == point

    def test_similarity_steers_choice(self):
        # Receiver 2 is slightly slower but far more similar; with a large
        # factor it must win, with factor zero the faster receiver 1 wins.
        profiles = [profile(0, 5.0, 10), profile(1, 1.0, 4), profile(2, 1.2, 4)]
        matrix = matrix_from([0, 1, 2], {(0, 1): 2.0, (0, 2): 0.0, (1, 2): 0.0})
        with_sim = build_schedule(profiles, matrix, 4.0)
        without = build_schedule(profiles, matrix, 0.0)
        assert with_sim.assignments[0].strong_client_id == 2
        assert without.assignments[0].strong_client_id == 1

    def test_equal_cost_tie_goes_to_lower_id(self):
        profiles = [profile(0, 5.0, 10), profile(7, 1.0, 4), profile(3, 1.0, 4)]
        matrix = uniform_matrix([0, 3, 7], 0.0)
        schedule = build_schedule(profiles, matrix, 1.0)
        assert schedule.assignments[0].strong_client_id == 3

    def test_more_senders_than_receivers(self):
        profiles = [
            profile(0, 8.0, 10),
            profile(1, 7.0, 10),
            profile(2, 6.0, 10),
            profile(3, 1.0, 10),
        ]
        matrix = uniform_matrix([0, 1, 2, 3], 0.0)
        schedule = build_schedule(profiles, matrix, 1.0)
        assert len(schedule.assignments) == 1
        # The fastest-finishing sender is matched first.
        assert schedule.assignments[0].weak_client_id == 2

    def test_exhausted_receiver_skipped(self):
        profiles = [profile(0, 5.0, 10), profile(1, 1.0, 0), profile(2, 1.5, 4)]
        matrix = uniform_matrix([0, 1, 2], 0.0)
        schedule = build_schedule(profiles, matrix, 1.0)
        assert [a.strong_client_id for a in schedule.assignments] == [2]

    def test_exhausted_sender_skipped(self):
        # remaining_updates 0 with a huge per-batch time: estimated time 0
        # puts it in the receiving set, never the sending set.
        profiles = [profile(0, 50.0, 0), profile(1, 1.0, 4), profile(2, 3.0, 8)]
        schedule = build_schedule(profiles, uniform_matrix([0, 1, 2], 0.0), 1.0)
        assert all(a.weak_client_id != 0 for a in schedule.assignments)

    def test_single_profile_yields_no_assignments(self):
        schedule = build_schedule([profile(0, 3.0, 5)], uniform_matrix([0]), 1.0)
        assert schedule.assignments == ()
        assert schedule.sending_ids == ()
        assert schedule.receiving_ids == (0,)

    def test_unknown_client_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            build_schedule([profile(9, 3.0, 5)], uniform_matrix([0, 1]), 1.0)

    def test_client_missing_from_oracle_distances_rejected(self):
        oracle = SimilarityOracle([0, 1, 2], num_classes=2)
        for cid, counts in enumerate([(3, 1), (1, 3), (2, 2)]):
            oracle.submit(ClassCountSubmission(client_id=cid, counts=counts))
        distances = oracle.compute_matrix()
        assert 2 in distances and 9 not in distances
        profiles = [profile(0, 3.0, 5), profile(9, 1.0, 5), profile(2, 2.0, 5)]
        with pytest.raises(ValueError, match=r"^client 9 missing from the similarity distances$"):
            build_schedule(profiles, distances, 1.0)

    def test_negative_factor_rejected(self):
        with pytest.raises(ValueError):
            build_schedule([profile(0, 3.0, 5)], uniform_matrix([0]), -0.1)


# --------------------------------------------------------------------------
# The cost-matrix schedule is bitwise equal to the pair-by-pair loop
# --------------------------------------------------------------------------

# Times from a small grid of dyadic values, so that many pairs cost exactly
# the same and the arms of the scan meet in plateaus.
batch_times = st.sampled_from([0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0])


@st.composite
def offload_pairs(draw):
    t_b = draw(batch_times)
    return (
        draw(batch_times),
        t_b,
        draw(st.sampled_from([t_b, t_b / 2, t_b / 4, t_b * 0.65])),
        draw(st.integers(1, 20)),
        draw(st.integers(1, 20)),
    )


@settings(max_examples=200, deadline=None)
@given(st.lists(offload_pairs(), min_size=1, max_size=12))
def test_offload_points_match_scalar_scan(pairs):
    columns = [np.asarray(c) for c in zip(*pairs)]
    completion, point = offload_points(*columns)
    for k, pair in enumerate(pairs):
        cost, d = find_offload_point(*pair)
        assert completion[k].tobytes() == np.float64(cost).tobytes()
        assert point[k] == d


def test_offload_points_plateau_and_single_batch():
    # d=1: max(5+1, 4) = 6, d=2: max(4+2, 2) = 6, d=3: max(3+3, 0) = 6: a
    # plateau to the end, which the scan walks through.
    assert find_offload_point(1.0, 2.0, 1.0, 6, 3) == (6.0, 3)
    # d=1: max(2+2, 5) = 5, d=2: max(1+4, 4) = 5, d=3: max(0+6, 3) = 6: flat,
    # then a rise, so the scan keeps d=2.
    assert find_offload_point(1.0, 1.0, 2.0, 3, 6) == (5.0, 2)
    completion, point = offload_points(
        [1.0, 1.0, 5.0], [2.0, 1.0, 2.0], [1.0, 2.0, 3.0], [6, 3, 1], [3, 6, 1]
    )
    assert completion.tolist() == [6.0, 5.0, 3.0]
    assert point.tolist() == [3, 2, 1]


def reference_schedule(profiles, similarity, factor):
    """The greedy pass as a loop over pairs, one `find_offload_point` each."""
    mean = mean_completion_time(profiles)
    sending, receiving = split_sending_receiving(profiles, mean)
    available = list(receiving)
    assignments = []
    for weak in sending:
        if not available:
            break
        if weak.remaining_updates < 1:
            continue
        best_cost = math.inf
        best_pick = None
        for strong in available:
            if strong.remaining_updates < 1:
                continue
            completion, point = find_offload_point(
                weak.timings.full_time,
                strong.timings.full_time,
                strong.timings.bf,
                weak.remaining_updates,
                strong.remaining_updates,
            )
            s = float(similarity.block([weak.client_id], [strong.client_id])[0, 0])
            cost = completion * (1.0 + math.log(s * factor + 1.0))
            if cost < best_cost or (
                cost == best_cost
                and best_pick is not None
                and strong.client_id < best_pick[0].client_id
            ):
                best_cost = cost
                best_pick = (strong, completion, point)
        if best_pick is None:
            continue
        strong, completion, point = best_pick
        assignments.append(
            OffloadAssignment(weak.client_id, strong.client_id, point, completion)
        )
        available.remove(strong)
    return assignments


@st.composite
def schedule_cases(draw):
    n = draw(st.integers(1, 24))
    ids = draw(st.permutations(range(n)))
    profiles = [
        profile(cid, draw(batch_times), draw(st.integers(0, 12))) for cid in ids
    ]
    # Few distinct distances, so that equal costs are common.
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = np.triu(rng.choice([0.0, 0.5, 2.0], size=(n, n)), 1)
    values += values.T
    matrix = DistanceTable(values=values, client_ids=tuple(range(n)))
    return profiles, matrix, draw(st.sampled_from([0.0, 1.0, 3.0]))


@settings(max_examples=200, deadline=None)
@given(schedule_cases())
def test_build_schedule_matches_pairwise_loop(case):
    profiles, matrix, factor = case
    got = build_schedule(profiles, matrix, factor).assignments
    want = reference_schedule(profiles, matrix, factor)
    assert got == tuple(want)
    for a, b in zip(got, want):
        assert type(a.offload_point) is int and type(a.estimated_completion) is float
        assert np.float64(a.estimated_completion).tobytes() == np.float64(b.estimated_completion).tobytes()


def test_build_schedule_matches_pairwise_loop_at_scale():
    rng = np.random.default_rng(5)
    for _ in range(5):
        profiles = random_profiles(rng, 100)
        matrix = random_matrix(rng, [p.client_id for p in profiles])
        got = build_schedule(profiles, matrix, 1.0).assignments
        assert len(got) > 20
        assert got == tuple(reference_schedule(profiles, matrix, 1.0))
