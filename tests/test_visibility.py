"""Masking and subgraph-sampling plans and their tensor application."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import foldcast.tensor as T
from foldcast.tensor import Tensor
from foldcast.train import attention_pair_count
from foldcast.visibility import (
    PAD,
    apply_visibility,
    apply_visibility_batch,
    gather_targets,
    geometry,
    perturb_masked_batch,
    plan_visibility,
)


def check_plan_arithmetic(plan, n, r, s):
    m = int(np.floor(r * n))
    n_rem = n - m
    p = (s - (n_rem % s)) % s
    assert len(plan.masked) == m
    assert len(plan.kept) == n_rem
    assert plan.pad_count == p
    assert (n_rem + p) % s == 0
    assert plan.subgraph_count == (n_rem + p) // s
    assert plan.slots.shape == (plan.subgraph_count, s)
    # masked and kept partition the node set; slots hold kept once each
    assert sorted(np.concatenate([plan.masked, plan.kept]).tolist()) == list(range(n))
    real = plan.slots[plan.slots != PAD]
    assert sorted(real.tolist()) == sorted(plan.kept.tolist())


class TestPlan:
    def test_large_network_profile_arithmetic(self):
        plan = plan_visibility(307, 0.2, 50, np.random.default_rng(0))
        assert len(plan.masked) == 61
        assert len(plan.kept) == 246
        assert plan.pad_count == 4
        assert plan.subgraph_count == 5

    def test_medium_network_profile_arithmetic(self):
        plan = plan_visibility(170, 0.2, 30, np.random.default_rng(0))
        assert len(plan.masked) == 34
        assert len(plan.kept) == 136
        assert plan.pad_count == 14
        assert plan.subgraph_count == 5

    def test_pass_through_partition(self):
        plan = plan_visibility(8, 0.0, 8, np.random.default_rng(0))
        assert len(plan.masked) == 0
        assert plan.pad_count == 0
        assert plan.subgraph_count == 1
        assert np.array_equal(plan.slots[0], np.arange(8))

    def test_invalid_parameters(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            plan_visibility(10, 1.0, 2, rng)
        with pytest.raises(ValueError):
            plan_visibility(10, 0.2, 0, rng)
        with pytest.raises(ValueError):
            plan_visibility(10, 0.2, 11, rng)

    def test_same_seed_same_plan(self):
        a = plan_visibility(50, 0.3, 7, np.random.default_rng(123))
        b = plan_visibility(50, 0.3, 7, np.random.default_rng(123))
        assert np.array_equal(a.slots, b.slots)
        assert np.array_equal(a.masked, b.masked)

    @given(
        n=st.integers(1, 400),
        r=st.floats(0.0, 0.99),
        s_raw=st.integers(1, 400),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_partition_property(self, n, r, s_raw, seed):
        s = min(s_raw, n)
        plan = plan_visibility(n, r, s, np.random.default_rng(seed))
        check_plan_arithmetic(plan, n, r, s)

    def test_token_count_monotone_in_ratio(self):
        for n, s in ((307, 50), (170, 30), (20, 4)):
            counts = []
            for r in np.linspace(0.0, 0.9, 10):
                plan = plan_visibility(n, r, s, np.random.default_rng(0))
                counts.append(plan.visible_count)
            assert all(b <= a for a, b in zip(counts, counts[1:]))


class TestApply:
    def test_pass_through_recovers_input(self):
        rng = np.random.default_rng(1)
        fused = Tensor(rng.standard_normal((6, 8)))
        plan = plan_visibility(6, 0.0, 6, rng)
        out = apply_visibility(fused, plan)
        assert out.shape == (1, 6, 8)
        order = np.argsort(plan.slots[0])
        assert np.array_equal(out.data[0][order], fused.data)

    def test_half_masked_keeps_half(self):
        rng = np.random.default_rng(2)
        fused = Tensor(rng.standard_normal((4, 6)))
        plan = plan_visibility(4, 0.5, 2, rng)
        out = apply_visibility(fused, plan)
        rows = out.data.reshape(-1, 6)
        matches = sum(
            any(np.array_equal(row, src) for src in fused.data) for row in rows
        )
        assert matches == 2

    def test_pad_rows_are_zero(self):
        rng = np.random.default_rng(3)
        fused = Tensor(rng.standard_normal((7, 5)))
        plan = plan_visibility(7, 0.0, 3, rng)  # p = 2
        out = apply_visibility(fused, plan)
        pads = plan.slots == PAD
        assert plan.pad_count == 2
        assert np.all(np.linalg.norm(out.data[pads], axis=-1) == 0)

    def test_plan_size_mismatch(self):
        rng = np.random.default_rng(4)
        plan = plan_visibility(5, 0.0, 5, rng)
        with pytest.raises(T.ShapeError):
            apply_visibility(Tensor(np.zeros((6, 4))), plan)

    def test_batched_plan_size_mismatch(self):
        rng = np.random.default_rng(4)
        plans = [plan_visibility(8, 0.2, 3, rng) for _ in range(2)]
        with pytest.raises(T.ShapeError):
            apply_visibility_batch(Tensor(np.zeros((2, 10, 4))), plans)
        with pytest.raises(T.ShapeError):  # one plan for a batch of two
            apply_visibility_batch(Tensor(np.zeros((2, 8, 4))), plans[:1])

    def test_gradient_skips_masked_nodes(self):
        rng = np.random.default_rng(5)
        fused = Tensor(rng.standard_normal((6, 4)), requires_grad=True)
        plan = plan_visibility(6, 0.5, 3, rng)
        T.tsum(apply_visibility(fused, plan)).backward()
        assert np.all(fused.grad[plan.masked] == 0)
        assert np.all(fused.grad[plan.kept] == 1)

    def test_batched_matches_per_element(self):
        rng = np.random.default_rng(6)
        fused_np = rng.standard_normal((3, 7, 4))
        plans = [plan_visibility(7, 0.2, 3, rng) for _ in range(3)]
        batched = apply_visibility_batch(Tensor(fused_np), plans)
        k, s = plans[0].slots.shape
        for i, plan in enumerate(plans):
            single = apply_visibility(Tensor(fused_np[i]), plan)
            assert np.array_equal(batched.data[i * k : (i + 1) * k], single.data)


class TestMaskingVariants:
    def test_all_zero_blanks_attribute_slice(self):
        rng = np.random.default_rng(7)
        d = 3
        fused = Tensor(rng.standard_normal((2, 6, 4 * d)) + 10.0)
        plans = [plan_visibility(6, 0.5, 6, rng) for _ in range(2)]
        out = perturb_masked_batch(fused, plans, "all_zero", d, rng)
        assert out.shape == (2, 6, 4 * d)
        for i, plan in enumerate(plans):
            assert np.all(out.data[i, plan.masked, :d] == 0)
            assert np.array_equal(out.data[i, plan.kept], fused.data[i, plan.kept])
            assert np.array_equal(out.data[i, plan.masked, d:], fused.data[i, plan.masked, d:])

    def test_partial_zero_blanks_subset(self):
        rng = np.random.default_rng(8)
        d = 16
        fused = Tensor(np.ones((1, 8, 4 * d)))
        plan = plan_visibility(8, 0.5, 8, rng)
        out = perturb_masked_batch(fused, [plan], "partial_zero", d, rng)
        block = out.data[0, plan.masked, :d]
        assert 0 < (block == 0).sum() < block.size

    def test_random_value_replaces_attributes(self):
        rng = np.random.default_rng(9)
        d = 4
        fused = Tensor(np.full((2, 6, 4 * d), 5.0))
        plans = [plan_visibility(6, 0.5, 6, rng) for _ in range(2)]
        out = perturb_masked_batch(fused, plans, "random_value", d, rng)
        for i, plan in enumerate(plans):
            assert np.all(out.data[i, plan.masked, :d] != 5.0)
            assert np.array_equal(out.data[i, plan.kept], fused.data[i, plan.kept])

    def test_node_level_row_count(self):
        rng = np.random.default_rng(10)
        fused = Tensor(rng.standard_normal((2, 10, 8)))
        plans = [plan_visibility(10, 0.3, 4, rng) for _ in range(2)]
        out = apply_visibility_batch(fused, plans)
        assert out.shape[0] * out.shape[1] == 2 * plans[0].visible_count
        assert plans[0].visible_count < 10

    def test_plan_count_mismatch(self):
        rng = np.random.default_rng(12)
        plans = [plan_visibility(6, 0.5, 6, rng) for _ in range(2)]
        with pytest.raises(T.ShapeError):  # two plans for three samples
            perturb_masked_batch(Tensor(np.zeros((3, 6, 8))), plans, "all_zero", 2, rng)

    def test_plan_size_mismatch(self):
        rng = np.random.default_rng(13)
        plans = [plan_visibility(20, 0.5, 20, rng) for _ in range(2)]
        with pytest.raises(T.ShapeError):  # plans drawn for 20 nodes, batch of 10
            perturb_masked_batch(Tensor(np.zeros((2, 10, 8))), plans, "random_value", 2, rng)

    def test_unknown_strategy(self):
        rng = np.random.default_rng(11)
        plan = plan_visibility(4, 0.0, 4, rng)
        with pytest.raises(ValueError):
            perturb_masked_batch(Tensor(np.zeros((1, 4, 8))), [plan], "typo", 2, rng)


def scatter(slot_values, plans, n):
    """Test oracle: route (B*K, s, F) slot values back to (B, N, F) node
    rows by the plans' slot ids; also returns which nodes received one."""
    b = len(plans)
    slot_values = np.asarray(slot_values).reshape(b, -1, slot_values.shape[-1])
    out = np.zeros((b, n, slot_values.shape[-1]))
    include = np.zeros((b, n), dtype=bool)
    for i, plan in enumerate(plans):
        flat = plan.slots.reshape(-1)
        real = flat != PAD
        out[i, flat[real]] = slot_values[i, real]
        include[i, flat[real]] = True
    return out, include


class TestScatterBack:
    """The batched gather is invertible: scattering its slots back by the
    plans' slot ids recovers every kept node's row bit for bit."""

    def test_full_visibility_round_trip_bitwise(self):
        rng = np.random.default_rng(12)
        fused = rng.standard_normal((2, 6, 4))
        plans = [plan_visibility(6, 0.0, 6, rng) for _ in range(2)]
        gathered = apply_visibility_batch(Tensor(fused), plans)
        back, include = scatter(gathered.data, plans, 6)
        assert np.array_equal(back, fused)
        assert include.all()
        targets, target_include = gather_targets(fused, plans)
        assert np.array_equal(targets, gathered.data) and target_include.all()

    def test_masked_rows_excluded(self):
        rng = np.random.default_rng(13)
        plans = [plan_visibility(9, 0.4, 2, rng) for _ in range(2)]
        targets, include = gather_targets(rng.standard_normal((2, 9, 5)), plans)
        back, reached = scatter(targets, plans, 9)
        for i, plan in enumerate(plans):
            assert (~reached[i]).sum() == len(plan.masked)
            assert np.all(back[i, plan.masked] == 0)
        assert include.sum() == 2 * (9 - len(plans[0].masked))

    def test_kept_values_preserved_bitwise(self):
        rng = np.random.default_rng(14)
        fused = rng.standard_normal((2, 8, 3))
        plans = [plan_visibility(8, 0.25, 3, rng) for _ in range(2)]
        gathered = apply_visibility_batch(Tensor(fused), plans)
        back, include = scatter(gathered.data, plans, 8)
        for i, plan in enumerate(plans):
            assert np.array_equal(back[i, plan.kept], fused[i, plan.kept])
            assert np.array_equal(include[i], np.isin(np.arange(8), plan.kept))


class TestGatherTargets:
    def test_alignment_with_apply(self):
        rng = np.random.default_rng(15)
        targets = rng.standard_normal((2, 7, 3))
        plans = [plan_visibility(7, 0.2, 3, rng) for _ in range(2)]
        out, include = gather_targets(targets, plans)
        k, s = plans[0].slots.shape
        assert out.shape == (2 * k, s, 3)
        for b in range(2):
            for g in range(k):
                for slot in range(s):
                    node = plans[b].slots[g, slot]
                    row = out[b * k + g, slot]
                    if node == PAD:
                        assert not include[b * k + g, slot]
                        assert np.all(row == 0)
                    else:
                        assert include[b * k + g, slot]
                        assert np.array_equal(row, targets[b, node])

    def test_plan_size_mismatch(self):
        rng = np.random.default_rng(16)
        plans = [plan_visibility(8, 0.2, 3, rng) for _ in range(2)]
        with pytest.raises(T.ShapeError):
            gather_targets(np.zeros((2, 10, 4)), plans)
        with pytest.raises(T.ShapeError):
            gather_targets(np.zeros((2, 8, 4)), plans[:1])


class TestGeometry:
    # (N, r, s): uneven pads, s in (N - m, N] as the perturbation strategies
    # draw it, the r=0 s=N pass-through, s=1, and the PEMS04 profile
    GRID = [
        (7, 0.0, 3), (10, 0.3, 4), (20, 0.2, 16), (20, 0.2, 18), (20, 0.2, 20),
        (9, 0.5, 9), (8, 0.0, 8), (5, 0.0, 1), (5, 0.6, 1), (307, 0.2, 50),
        (170, 0.2, 30), (1, 0.0, 1),
    ]

    @pytest.mark.parametrize("n,r,s", GRID)
    def test_drawn_plan_matches_geometry(self, n, r, s):
        m, p, k = geometry(n, r, s)
        plan = plan_visibility(n, r, s, np.random.default_rng(n))
        assert plan.slots.shape == (k, s)
        assert (len(plan.masked), plan.pad_count) == (m, p)
        assert attention_pair_count(n, r, s) == k * s * s
