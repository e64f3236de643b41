"""Opt-1 (blocking), Opt-2 (recompute), solver agreement, end-to-end plans."""

import dataclasses
import itertools
import math
import random

import numpy as np
import pytest

from repro.core import (
    AcoConfig,
    BlockPolicy,
    PartitionProblem,
    admissible,
    apply_recompute,
    assign_policies,
    build_inputs,
    local_search,
    plan,
    segment_graph,
    solve_aco,
    solve_blocking,
    solve_dp,
    solve_ilp,
)
from repro.core.blocking import (
    BlockingInputs,
    coarsen_segments,
    fits_without_swapping,
    make_problem,
    pinned_bytes_per_block,
)
from repro.costs import profile_graph
from repro.models.registry import build
from repro.sim import simulate_plan

R, S, C = BlockPolicy.RESIDENT, BlockPolicy.SWAPPED, BlockPolicy.RECOMPUTED


def _toy_problem(costs, feas=None, max_span=8):
    """Pairwise problem over explicit cost table c[a][b][c]."""
    u = len(costs)

    def pair(a, b, c):
        return costs[b - 1] * 0.1 + abs((b - a) - (c - b)) * 0.01

    return PartitionProblem(
        num_segments=u,
        pair_cost=pair,
        block_feasible=feas or (lambda a, b: b - a <= 4),
        first_cost=lambda a, b: 0.0,
        max_span=max_span)


class TestSolvers:
    def test_dp_returns_valid_partition(self):
        prob = _toy_problem([1.0] * 10)
        bounds = solve_dp(prob)
        assert bounds[-1] == 10
        assert bounds == sorted(set(bounds))
        assert all(b - a <= 4 for a, b in zip([0] + bounds[:-1], bounds))

    def test_dp_and_ilp_agree(self):
        """The ILP is the DP's cross-check: same surrogate, same optimum."""
        import numpy as np
        rng = np.random.default_rng(3)
        costs = list(rng.random(9))
        prob = _toy_problem(costs)

        def total(bounds):
            t = 0.0
            prev = [0] + bounds[:-1]
            for i in range(1, len(bounds)):
                t += prob.pair_cost(prev[i - 1], prev[i], bounds[i])
            return t

        dp = solve_dp(prob)
        ilp = solve_ilp(prob)
        assert total(dp) == pytest.approx(total(ilp), abs=1e-9)

    def test_infeasible_problem_raises(self):
        prob = _toy_problem([1.0] * 10, feas=lambda a, b: False)
        with pytest.raises(ValueError):
            solve_dp(prob)

    def test_aco_never_worse_than_seed(self):
        prob = _toy_problem([1.0] * 10)
        seed = solve_dp(prob)

        def objective(bounds):
            prev = [0] + bounds[:-1]
            return sum(prob.pair_cost(prev[i - 1], prev[i], bounds[i])
                       for i in range(1, len(bounds))) + 0.001 * len(bounds)

        seed_val = objective(seed)
        best, val = solve_aco(prob, objective, seed_boundaries=seed,
                              config=AcoConfig(ants=6, iterations=6, seed=1))
        assert val <= seed_val + 1e-12

    def test_local_search_monotone(self):
        prob = _toy_problem([1.0] * 12)

        def objective(bounds):
            return abs(len(bounds) - 4) + sum(bounds) * 1e-6

        start = [3, 6, 9, 12]
        out, val = local_search([12], 12, objective, prob.block_feasible)
        assert val <= objective([12])


def _partition_value(prob, bounds):
    """Surrogate value of a boundary list, summed in the DP's order."""
    prev = [0] + list(bounds)
    total = prob.first_cost(0, bounds[0])
    for i in range(1, len(bounds)):
        total = total + prob.pair_cost(prev[i - 1], prev[i], bounds[i])
    return total


def _oracle(prob):
    """Brute force over every contiguous partition: the optimal value,
    or None when no partition is feasible."""
    u = prob.num_segments
    best = None
    for k in range(u):
        for inner in itertools.combinations(range(1, u), k):
            bounds = list(inner) + [u]
            blocks = list(zip([0] + bounds[:-1], bounds))
            if not all(e - s <= prob.max_span and prob.block_feasible(s, e)
                       for s, e in blocks):
                continue
            value = _partition_value(prob, bounds)
            if best is None or value < best:
                best = value
    return best


def _reachable_expandable(prob):
    """States (a, b), b < u, reachable from the first block: the states
    the DP must expand."""
    u = prob.num_segments
    frontier = [(0, c) for c in prob.spans(0) if prob.block_feasible(0, c)]
    seen = set(frontier)
    while frontier:
        a, b = frontier.pop()
        for c in prob.spans(b):
            if prob.block_feasible(b, c) and (b, c) not in seen:
                seen.add((b, c))
                frontier.append((b, c))
    return {(a, b) for a, b in seen if b < u}


def _tie_heavy_toy(rng):
    """Hook-less problem with costs on a coarse grid (many exact ties)."""
    u = rng.randint(1, 10)
    pair = {(a, b, c): rng.choice((0.0, 0.25, 0.5))
            for a in range(u) for b in range(a + 1, u)
            for c in range(b + 1, u + 1)}
    first = {c: rng.choice((0.0, 0.5)) for c in range(1, u + 1)}
    feasible = {(a, b): rng.random() < 0.8
                for a in range(u) for b in range(a + 1, u + 1)}
    return PartitionProblem(
        num_segments=u, pair_cost=lambda a, b, c: pair[(a, b, c)],
        block_feasible=lambda a, b: feasible[(a, b)],
        first_cost=lambda a, b: first[b], max_span=rng.randint(1, u))


def _tie_heavy_inputs(rng):
    """Segment inputs on a coarse grid, priced by ``make_problem`` (the
    batch-hook path)."""
    u = rng.randint(1, 10)
    return BlockingInputs(
        segments=[(i, i + 1) for i in range(u)],
        seg_fw=np.array([rng.choice((0.0, 0.5, 1.0)) for _ in range(u)]),
        seg_bw=np.array([rng.choice((0.0, 1.0, 2.0)) for _ in range(u)]),
        seg_stash=np.array([rng.randint(0, 3) for _ in range(u)],
                           dtype=np.int64),
        seg_weights=np.zeros(u, dtype=np.int64),
        ledger_capacity=rng.randint(2, 10),
        swap_throughput=rng.choice((1.0, 2.0)))


def _platform_inputs(platform, model, batch):
    device, _, transfer = platform
    graph = build(model)
    cost = profile_graph(graph, device, transfer, batch)
    return build_inputs(graph, cost, device.usable_memory)


#: ``solve_dp`` boundaries (default ``max_span``) of the cold-plan
#: benchmark mix's swapping problems, computed with the label-correcting
#: queue DP this sweep replaced; ``None`` = no feasible partition.
PINNED_DP_BOUNDARIES = {
    ("resnet200", 16): [1, 2, 4, 5, 8, 9, 12, 17, 28, 47, 84, 142],
    ("resnet200", 12): [1, 2, 4, 5, 9, 21, 39, 78, 142],
    ("resnet1001", 256): [1, 4, 9, 18, 34, 59, 99, 129, 160],
    ("resnet50", 640): [4, 5, 7, 10, 11, 15, 21, 42],
    ("vgg16", 128): [1, 2, 3, 4, 6, 9, 15, 42],
    ("wrn28_10", 1024): [4, 5, 6, 7, 10, 13, 27],
    ("unet", 24): None,
}


class TestSolveDp:
    """The block-start sweep: optimal, once per state, exact batch path."""

    @pytest.mark.parametrize("make", [_tie_heavy_toy,
                                      lambda rng: make_problem(
                                          _tie_heavy_inputs(rng),
                                          max_span=rng.randint(1, 10))],
                             ids=["scalar", "batch"])
    def test_matches_brute_force_oracle(self, make):
        rng = random.Random(2020)
        infeasible = 0
        for _ in range(300):
            prob = make(rng)
            expect = _oracle(prob)
            if expect is None:
                infeasible += 1
                with pytest.raises(ValueError):
                    solve_dp(prob)
                continue
            bounds = solve_dp(prob)
            assert bounds == sorted(set(bounds))
            assert bounds[-1] == prob.num_segments
            blocks = list(zip([0] + bounds[:-1], bounds))
            assert all(e - s <= prob.max_span and prob.block_feasible(s, e)
                       for s, e in blocks)
            assert _partition_value(prob, bounds) == expect
        assert 0 < infeasible < 300

    def test_each_reachable_state_expanded_once_scalar(self):
        rng = random.Random(11)
        for _ in range(100):
            prob = _tie_heavy_toy(rng)
            calls = []

            def pair(a, b, c, f=prob.pair_cost):
                calls.append((a, b, c))
                return f(a, b, c)

            stats = {}
            try:
                solve_dp(dataclasses.replace(prob, pair_cost=pair),
                         stats=stats)
            except ValueError:
                pass
            assert len(calls) == len(set(calls))
            reachable = _reachable_expandable(prob)
            # a state with no feasible successor prices nothing
            pricing = {(a, b) for a, b in reachable
                       if any(prob.block_feasible(b, c)
                              for c in prob.spans(b))}
            assert {(a, b) for a, b, _ in calls} == pricing
            assert stats["states_expanded"] == len(reachable)

    def test_each_reachable_state_expanded_once_batch(self):
        rng = random.Random(12)
        for _ in range(100):
            prob = make_problem(_tie_heavy_inputs(rng),
                                max_span=rng.randint(1, 10))
            calls = []

            def batch(starts, b, cs, f=prob.pair_cost_batch):
                calls.append((b, tuple(starts.tolist())))
                return f(starts, b, cs)

            stats = {}
            try:
                solve_dp(dataclasses.replace(prob, pair_cost_batch=batch),
                         stats=stats)
            except ValueError:
                pass
            ends = [b for b, _ in calls]
            assert ends == sorted(set(ends))      # one call per start b
            for _, starts in calls:
                assert list(starts) == sorted(set(starts))
            reachable = _reachable_expandable(prob)
            pricing = {(a, b) for a, b in reachable
                       if any(prob.block_feasible(b, c)
                              for c in prob.spans(b))}
            assert {(a, b) for b, starts in calls for a in starts} \
                == pricing
            assert stats["states_expanded"] == len(reachable)

    def test_batch_and_scalar_paths_agree(self):
        rng = random.Random(13)
        for _ in range(200):
            prob = make_problem(_tie_heavy_inputs(rng),
                                max_span=rng.randint(1, 10))
            scalar = dataclasses.replace(prob, pair_cost_batch=None,
                                         block_feasible_batch=None)
            try:
                expect = solve_dp(scalar)
            except ValueError:
                with pytest.raises(ValueError):
                    solve_dp(prob)
                continue
            assert solve_dp(prob) == expect

    def test_pair_cost_batch_equals_scalar_resnet1001(self, platform):
        inputs = _platform_inputs(platform, "resnet1001", 256)
        prob = make_problem(inputs)
        u = inputs.num_segments
        for b in range(1, u):
            starts = np.arange(max(0, b - prob.max_span), b, dtype=np.int64)
            cs = np.arange(b + 1, min(u, b + prob.max_span) + 1,
                           dtype=np.int64)
            got = prob.pair_cost_batch(starts, b, cs)
            want = np.array([[prob.pair_cost(a, b, c) for c in cs.tolist()]
                             for a in starts.tolist()])
            assert got.shape == (len(starts), len(cs))
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("config", sorted(PINNED_DP_BOUNDARIES),
                             ids=lambda c: f"{c[0]}@{c[1]}")
    def test_pinned_cold_plan_boundaries(self, platform, config):
        inputs = _platform_inputs(platform, *config)
        assert not fits_without_swapping(inputs)
        expect = PINNED_DP_BOUNDARIES[config]
        if expect is None:
            with pytest.raises(ValueError):
                solve_dp(make_problem(inputs))
        else:
            assert solve_dp(make_problem(inputs)) == expect


class TestBlocking:
    def test_segments_cover_graph(self, small_cnn):
        segs = segment_graph(small_cnn)
        assert segs[0][0] == 0 and segs[-1][1] == len(small_cnn)
        for (a, b), (c, d) in zip(segs, segs[1:]):
            assert b == c

    def test_coarsening_respects_limit(self, small_cnn, small_cnn_cost):
        segs = segment_graph(small_cnn)
        coarse = coarsen_segments(segs, small_cnn_cost, max_units=3)
        assert len(coarse) == 3
        assert coarse[0][0] == 0 and coarse[-1][1] == len(small_cnn)

    def test_assign_policies_suffix_resident(self, small_cnn, platform):
        device, _, transfer = platform
        cost = profile_graph(small_cnn, device, transfer, 2048)
        inputs = build_inputs(small_cnn, cost, device.usable_memory)
        u = inputs.num_segments
        pols = assign_policies(inputs, list(range(1, u + 1)))
        # resident blocks form a suffix
        states = [p is BlockPolicy.RESIDENT for p in pols]
        if any(states):
            first_resident = states.index(True)
            assert all(states[first_resident:])

    def test_pinned_bytes_unet(self, small_unet, platform):
        device, _, transfer = platform
        cost = profile_graph(small_unet, device, transfer, 4)
        n = len(small_unet)
        blocks = [(0, n // 3), (n // 3, 2 * n // 3), (2 * n // 3, n)]
        pinned = pinned_bytes_per_block(small_unet, blocks, cost)
        assert sum(pinned) > 0, "U-Net long skips must pin bytes"

    def test_incore_regime_single_block(self, small_cnn, platform):
        device, _, transfer = platform
        cost = profile_graph(small_cnn, device, transfer, 2)
        res = solve_blocking(small_cnn, cost, device.usable_memory,
                             small_cnn.name, 2)
        assert res.method == "in-core"
        assert res.policies == [BlockPolicy.RESIDENT]

    def test_out_of_core_blocking_feasible(self, small_cnn, platform):
        device, _, transfer = platform
        cost = profile_graph(small_cnn, device, transfer, 8)
        cap = cost.persistent_bytes() + int(0.9 * cost.total_activation_bytes)
        res = solve_blocking(small_cnn, cost, cap, small_cnn.name, 8)
        assert any(p is not BlockPolicy.RESIDENT for p in res.policies)
        assert math.isfinite(res.objective)

    def test_uniform_method_ablation(self, small_cnn, platform):
        device, _, transfer = platform
        cost = profile_graph(small_cnn, device, transfer, 8)
        cap = cost.persistent_bytes() + int(0.9 * cost.total_activation_bytes)
        uni = solve_blocking(small_cnn, cost, cap, small_cnn.name, 8,
                             method="uniform")
        auto = solve_blocking(small_cnn, cost, cap, small_cnn.name, 8,
                              method="auto")
        assert auto.objective <= uni.objective + 1e-12


class TestRecompute:
    def test_admissibility_constraint_10_1(self, small_cnn, platform):
        device, _, transfer = platform
        cost = profile_graph(small_cnn, device, transfer, 8)
        n = len(small_cnn)
        blocks = [(0, n // 2), (n // 2, n)]
        pols = [S, R]
        # compute of the block must undercut its swap time for admission
        is_adm = admissible(cost, blocks, pols, 0)
        fw = cost.block_fw_time(0, n // 2)
        swap = cost.transfer.swap_time(
            cost.block_activation_bytes(0, n // 2))
        assert is_adm == (fw < swap)

    def test_opt2_never_worse(self, small_cnn, platform):
        device, _, transfer = platform
        cost = profile_graph(small_cnn, device, transfer, 8)
        cap = cost.persistent_bytes() + int(0.9 * cost.total_activation_bytes)
        res = solve_blocking(small_cnn, cost, cap, small_cnn.name, 8)
        out = apply_recompute(small_cnn, cost, cap, small_cnn.name, 8,
                              res.blocks, res.policies)
        assert out.makespan_after <= out.makespan_before + 1e-12
        assert out.improvement >= -1e-12


class TestPlannerEndToEnd:
    def test_incore_plan(self, small_cnn):
        kp = plan(small_cnn, batch_size=2)
        assert not kp.is_out_of_core
        assert kp.plan.plan_string() == "F1 -> B1"

    def test_ooc_plan_valid_and_feasible(self, small_cnn, platform):
        device, _, transfer = platform
        cost = profile_graph(small_cnn, device, transfer, 8)
        cap = cost.persistent_bytes() + int(0.9 * cost.total_activation_bytes)
        kp = plan(small_cnn, batch_size=8, capacity=cap)
        assert kp.is_out_of_core
        kp.plan.validate(small_cnn)
        res = simulate_plan(kp.plan, kp.cost, kp.capacity)
        assert math.isfinite(res.makespan)

    def test_recompute_flag_controls_opt2(self, small_cnn, platform):
        device, _, transfer = platform
        cost = profile_graph(small_cnn, device, transfer, 8)
        cap = cost.persistent_bytes() + int(0.9 * cost.total_activation_bytes)
        with_r = plan(small_cnn, batch_size=8, capacity=cap, recompute=True)
        without = plan(small_cnn, batch_size=8, capacity=cap,
                       recompute=False)
        assert without.recompute is None
        assert not without.plan.recomputed
        r1 = simulate_plan(with_r.plan, with_r.cost, cap).makespan
        r0 = simulate_plan(without.plan, without.cost, cap).makespan
        assert r1 <= r0 + 1e-12

    def test_describe_mentions_plan_string(self, small_cnn):
        kp = plan(small_cnn, batch_size=2)
        assert "plan string" in kp.describe()

    def test_unet_plan_handles_long_skips(self, small_unet):
        kp = plan(small_unet, batch_size=4)
        kp.plan.validate(small_unet)
