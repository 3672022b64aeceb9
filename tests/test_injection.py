import random
from itertools import combinations, product

import pytest

from schurquot.injection import (
    InjectivityReport,
    OneBoxSetting,
    SwapRegion,
    enumerate_pairs,
    greedy_phi,
    greedy_region,
    one_box_instances,
    phi,
    psi,
    psi_inverse,
    spanning_tree_region,
    swap_pair,
    verify_injectivity,
)
from schurquot.partitions import Partition, SkewShape, one_box_pairs
from schurquot.tableaux import SkewTableau, count_ssyt, enumerate_ssyt, monomial, validate


def make(shape_outer, strip, rows, nlabels):
    shape = SkewShape.row_strip(Partition(shape_outer), strip)
    return SkewTableau.from_rows(shape, rows, nlabels)


# The worked formation example: rho=(5,3,1), lambda=(4,3,1), d=2, e=3.
FORMATION_S = make((5, 3, 1), 2, [[1, 1, 2], [1, 1, 2], [3]], 4)
FORMATION_T = make((4, 3, 1), 3, [[3], [2, 3, 4], [4]], 4)
FORMATION_U = SwapRegion(frozenset({(1, 4), (1, 5), (2, 2), (2, 3)}), (1, 5))

# The greedy-collision counterexample: rho=(5,4), lambda=(4,4), d=1, e=2.
CE_S1 = make((5, 4), 1, [[2, 2, 3, 3], [2, 3, 4, 5]], 5)
CE_T1 = make((4, 4), 2, [[3, 4], [2, 3, 4, 5]], 5)
CE_S2 = make((5, 4), 1, [[2, 3, 3, 3], [2, 3, 4, 5]], 5)
CE_T2 = make((4, 4), 2, [[2, 4], [2, 3, 4, 5]], 5)


def test_pair_monomial_sums_labels():
    pair_mono = tuple(
        a + b for a, b in zip(monomial(FORMATION_S), monomial(FORMATION_T))
    )
    assert pair_mono == (4, 3, 3, 2)


def test_swap_pair_formation_example():
    sprime, tprime = swap_pair(FORMATION_S, FORMATION_T, FORMATION_U)
    # S' results from T plus the root box, with U replaced by S's entries.
    assert sprime == {
        (1, 3): 0,  # virtual zero stays outside U
        (1, 4): 1,
        (1, 5): 2,
        (2, 1): 2,
        (2, 2): 1,
        (2, 3): 2,
        (3, 1): 4,
    }
    # T' results from S minus the root box, with U replaced by T's entries.
    assert tprime == {
        (1, 3): 1,
        (1, 4): 3,
        (2, 1): 1,
        (2, 2): 3,
        (2, 3): 4,
        (3, 1): 3,
    }


def test_swap_pair_rejects_wrong_root():
    bad = SwapRegion(frozenset({(1, 4)}), (1, 4))
    with pytest.raises(ValueError):
        swap_pair(FORMATION_S, FORMATION_T, bad)


def test_greedy_regions_on_counterexample():
    assert greedy_region(CE_S1, CE_T1).cells == frozenset({(1, 3), (1, 4), (1, 5)})
    assert greedy_region(CE_S2, CE_T2).cells == frozenset({(1, 4), (1, 5)})


def test_spanning_tree_regions_on_counterexample():
    u1 = spanning_tree_region(CE_S1, CE_T1).final_region
    u2 = spanning_tree_region(CE_S2, CE_T2).final_region
    assert u1.cells == frozenset({(1, 4), (1, 5)})
    assert u2.cells == frozenset({(1, 4), (1, 5)})
    assert u1.root == (1, 5)


def test_greedy_map_collides_and_phi_separates():
    g1 = greedy_phi(CE_S1, CE_T1)
    g2 = greedy_phi(CE_S2, CE_T2)
    assert g1.s.rows() == g2.s.rows() == [[2, 3, 3], [2, 3, 4, 5]]
    assert g1.t.rows() == g2.t.rows() == [[2, 3, 4], [2, 3, 4, 5]]
    p1 = phi(CE_S1, CE_T1)
    p2 = phi(CE_S2, CE_T2)
    assert (p1.s.rows(), p1.t.rows()) != (p2.s.rows(), p2.t.rows())
    assert p1.s.rows() == [[3, 3, 3], [2, 3, 4, 5]]
    assert p1.t.rows() == [[2, 2, 4], [2, 3, 4, 5]]
    assert (p2.s.rows(), p2.t.rows()) == (g2.s.rows(), g2.t.rows())


def test_phi_outputs_are_valid_and_monomial_preserving():
    for s, t in [(CE_S1, CE_T1), (CE_S2, CE_T2), (FORMATION_S, FORMATION_T)]:
        out = phi(s, t)
        assert validate(out.s) and validate(out.t)
        assert out.monomial() == tuple(
            a + b for a, b in zip(monomial(s), monomial(t))
        )
        # output shapes are rho/e and lambda/d
        assert out.s.shape == SkewShape.row_strip(s.shape.outer, t.shape.inner.part(1))
        assert out.t.shape == SkewShape.row_strip(t.shape.outer, s.shape.inner.part(1))


def test_spanning_tree_region_seed_independent():
    rng_seeds = (0, 1, 2, 17, 123)
    for s, t in [(CE_S1, CE_T1), (FORMATION_S, FORMATION_T)]:
        base = spanning_tree_region(s, t).final_region
        for seed in rng_seeds:
            assert spanning_tree_region(s, t, choice_seed=seed).final_region == base


def test_region_inside_target_shape():
    # U(S,T) ⊆ U*(S,T) ⊆ rho/e (the acceptance suite covers larger sizes)
    for rho, lam, nlabels, d, e in one_box_instances(4, 3):
        out_shape = SkewShape.row_strip(rho, e)
        for pair in enumerate_pairs(rho, lam, nlabels, d, e):
            u = spanning_tree_region(pair.s, pair.t).final_region
            ustar = greedy_region(pair.s, pair.t)
            assert u.cells <= ustar.cells
            assert all(c in out_shape for c in ustar.cells)


def test_verify_injectivity_small_family():
    for rho, lam, nlabels, d, e in one_box_instances(4, 3):
        report = verify_injectivity(rho, lam, nlabels, d, e, seeds=(0, 1))
        assert report.ok, (rho, lam, nlabels, d, e)
        assert report.domain_size == count_ssyt(
            SkewShape.row_strip(rho, d), nlabels
        ) * count_ssyt(SkewShape.row_strip(lam, e), nlabels)


def test_verify_injectivity_flags_greedy_collision():
    report = verify_injectivity(
        Partition((5, 4)), Partition((4, 4)), 5, 1, 2, compare_greedy=True
    )
    assert report.ok
    assert not report.greedy_injective
    assert report.collision is None
    (s1, t1), (s2, t2) = report.greedy_collision
    assert (s1.entries, t1.entries) == ((1, 1, 1, 1, 1, 2, 2, 3), (1, 2, 1, 1, 2, 4))
    assert (s2.entries, t2.entries) == ((1, 1, 1, 1, 1, 2, 2, 4), (1, 2, 1, 1, 2, 3))


def oracle_report(rho, lam, nlabels, d, e, seeds=()):
    """`verify_injectivity` through tableau objects: phi, validate, monomial.

    Returns the report and the image set {(S' entries, T' entries)}.
    """
    report = InjectivityReport()
    out_shape = SkewShape.row_strip(rho, e)
    images = {}
    for pair in enumerate_pairs(rho, lam, nlabels, d, e):
        report.domain_size += 1
        trace = spanning_tree_region(pair.s, pair.t)
        u = trace.final_region.cells
        if not (u <= greedy_region(pair.s, pair.t).cells and all(c in out_shape for c in u)):
            report.region_contained = False
        if trace.branched:
            report.branched += 1
            if any(
                spanning_tree_region(pair.s, pair.t, seed).final_region.cells != u
                for seed in seeds
            ):
                report.seed_stable = False
        out = phi(pair.s, pair.t)
        if not (validate(out.s) and validate(out.t)):
            report.injective = False
        if out.monomial() != pair.monomial():
            report.monomials_preserved = False
        key = (out.s.entries, out.t.entries)
        if key in images:
            report.injective = False
            if report.collision is None:
                report.collision = (images[key], (pair.s, pair.t))
        else:
            images[key] = (pair.s, pair.t)
    return report, set(images)


def test_raw_verifier_matches_object_oracle(monkeypatch):
    # The verifier's image keys are the swap_values outputs of phi's regions.
    keys = []
    swap_values = OneBoxSetting.swap_values

    def recording(self, s_vals, t_vals, region):
        sp, tp = swap_values(self, s_vals, t_vals, region)
        keys.append((self.out_s_entries(sp), self.out_t_entries(tp)))
        return sp, tp

    monkeypatch.setattr(OneBoxSetting, "swap_values", recording)
    branched = 0
    for rho, lam, nlabels, d, e in one_box_instances(5, 3):
        keys.clear()
        report = verify_injectivity(rho, lam, nlabels, d, e, seeds=(0, 1, 2))
        raw_images, calls = set(keys), len(keys)
        expected, images = oracle_report(rho, lam, nlabels, d, e, seeds=(0, 1, 2))
        assert report == expected, (rho, lam, nlabels, d, e)
        assert raw_images == images and calls == report.domain_size
        branched += report.branched
    assert branched > 0  # the seed-stability check did run


def test_image_valid_matches_tableau_checks():
    # Every region inside rho/e that holds the root, so invalid images too.
    invalid = 0
    for rho, lam, nlabels, d, e in one_box_instances(4, 3):
        setting = OneBoxSetting(rho, lam, d, e)
        others = [k for k in setting.out_s_idx if k != setting.root_idx]
        regions = [
            frozenset({setting.root_idx, *chosen})
            for size in range(len(others) + 1)
            for chosen in combinations(others, size)
        ]
        for pair in enumerate_pairs(rho, lam, nlabels, d, e):
            s_vals, t_vals = pair.s.entries, setting.t_values(pair.t.entries)
            for region in regions:
                out = setting.output_pair(s_vals, t_vals, region, nlabels)
                expected = validate(out.s) and validate(out.t)
                sp, tp = setting.swap_values(s_vals, t_vals, region)
                assert setting.image_valid(sp, tp, nlabels) == expected
                invalid += not expected
    assert invalid > 0


def test_spanning_tree_steps_follow_cell_order():
    # One pair whose growth has a choice: (B, C) pairs go in row-major
    # order, and a seeded growth may take them in another order.
    s = make((2, 2), 0, [[1, 1], [2, 2]], 3)
    t = make((2, 1), 1, [[2], [3]], 3)
    trace = spanning_tree_region(s, t)
    assert trace.branched
    assert trace.steps == (((1, 2), (2, 2)), ((2, 1), (2, 2)))
    seeded = spanning_tree_region(s, t, choice_seed=0)
    assert seeded.steps == (((2, 1), (2, 2)), ((1, 2), (2, 2)))
    assert seeded.final_region == trace.final_region


def root_only(self, s_vals, t_vals, rng=None):
    return frozenset({self.root_idx}), [], False


def greedy_grown(self, s_vals, t_vals, rng=None):
    return self.greedy_indices(s_vals, t_vals), [], False


def test_verifier_flags_invalid_images(monkeypatch):
    rho, lam = Partition((3,)), Partition((2,))
    assert verify_injectivity(rho, lam, 2, 0, 1).ok
    monkeypatch.setattr(OneBoxSetting, "grow_region", root_only)
    report = verify_injectivity(rho, lam, 2, 0, 1)
    assert not report.injective and report.collision is None
    assert report.monomials_preserved and report.region_contained


def test_verifier_reports_first_collision(monkeypatch):
    # The greedy map has five collisions on this instance.
    rho, lam, nlabels, d, e = Partition((3,)), Partition((2,)), 3, 0, 1
    first = None
    seen = {}
    for pair in enumerate_pairs(rho, lam, nlabels, d, e):
        out = greedy_phi(pair.s, pair.t)
        key = (out.s.entries, out.t.entries)
        if key in seen and first is None:
            first = (seen[key], (pair.s, pair.t))
        seen.setdefault(key, (pair.s, pair.t))
    monkeypatch.setattr(OneBoxSetting, "grow_region", greedy_grown)
    report = verify_injectivity(rho, lam, nlabels, d, e, compare_greedy=True)
    assert not report.injective and not report.greedy_injective
    assert report.collision == report.greedy_collision == first


def test_verifier_flags_escaped_region(monkeypatch):
    grow_region = OneBoxSetting.grow_region

    def escaping(self, s_vals, t_vals, rng=None):
        region, steps, branched = grow_region(self, s_vals, t_vals, rng)
        return region | self.virtual_idx, steps, branched

    monkeypatch.setattr(OneBoxSetting, "grow_region", escaping)
    report = verify_injectivity(Partition((3, 1)), Partition((2, 1)), 3, 0, 2)
    assert not report.region_contained
    assert not report.injective  # T' shows a virtual 0: not a tableau


def test_verifier_flags_seed_dependence(monkeypatch):
    grow_region = OneBoxSetting.grow_region

    def seed_dependent(self, s_vals, t_vals, rng=None):
        region, steps, _ = grow_region(self, s_vals, t_vals, rng)
        return (region if rng is None else frozenset({self.root_idx})), steps, True

    monkeypatch.setattr(OneBoxSetting, "grow_region", seed_dependent)
    rho, lam, nlabels, d, e = CE_S1.shape.outer, CE_T1.shape.outer, 3, 1, 2
    report = verify_injectivity(rho, lam, nlabels, d, e, seeds=(0,))
    assert report.branched == report.domain_size
    assert not report.seed_stable
    assert verify_injectivity(rho, lam, nlabels, d, e).seed_stable  # no seeds, no rerun


def test_verifier_flags_lost_labels(monkeypatch):
    swap_values = OneBoxSetting.swap_values

    def ignore_region_on_t(self, s_vals, t_vals, region):
        sp, _ = swap_values(self, s_vals, t_vals, region)
        return sp, swap_values(self, s_vals, t_vals, frozenset({self.root_idx}))[1]

    monkeypatch.setattr(OneBoxSetting, "swap_values", ignore_region_on_t)
    report = verify_injectivity(FORMATION_S.shape.outer, FORMATION_T.shape.outer, 3, 2, 3)
    assert not report.monomials_preserved


def test_phi_requires_d_less_than_e():
    s = make((2, 1), 1, [[1], [1]], 2)
    t = make((1, 1), 1, [[1]], 2)  # e = 1 = d
    with pytest.raises(ValueError):
        phi(s, t)


def psi_family(max_boxes, max_rows):
    """(rho, lam, n) with lam ⊊ rho, both with the same all-positive rows."""
    from schurquot.partitions import partitions_of, partition_contains

    for total in range(1, max_boxes + 1):
        for rp in partitions_of(total):
            rho = Partition(rp)
            n = rho.nrows
            if n > max_rows:
                continue
            for m in range(1, total):
                for lp in partitions_of(m):
                    lam = Partition(lp)
                    if lam.nrows != n or not partition_contains(lam, rho):
                        continue
                    yield rho, lam, n


def test_psi_is_a_bijection_on_simple_family():
    for rho, lam, n in psi_family(6, 3):
        domain = list(enumerate_pairs(rho, lam, n, 0, 1))
        codomain = list(enumerate_pairs(rho, lam, n, 1, 0))
        images = set()
        for pair in domain:
            out = psi(pair.s, pair.t)
            assert validate(out.s) and validate(out.t)
            assert out.monomial() == pair.monomial()
            back = psi_inverse(out.s, out.t)
            assert back.s.entries == pair.s.entries
            assert back.t.entries == pair.t.entries
            images.add((out.s.entries, out.t.entries))
        assert len(images) == len(domain) == len(codomain)


def test_psi_validation():
    s = make((2, 1), 0, [[1, 1], [2]], 2)
    t = make((1, 1), 1, [[2]], 2)
    out = psi(s, t)
    assert validate(out.s) and validate(out.t)
    with pytest.raises(ValueError):
        psi(make((2, 1), 0, [[1, 1], [2]], 3), make((1, 1), 1, [[2]], 3))  # wrong N
    with pytest.raises(ValueError):
        # lambda has fewer nonzero rows than rho
        psi(make((2, 1), 0, [[1, 1], [2]], 2), make((2,), 1, [[1]], 2))


def test_simple_case_cardinalities_differ_with_extra_label():
    rho, lam = Partition((2, 1)), Partition((1, 1))
    count_01 = lambda nl: count_ssyt(SkewShape.row_strip(rho, 0), nl) * count_ssyt(
        SkewShape.row_strip(lam, 1), nl
    )
    count_10 = lambda nl: count_ssyt(SkewShape.row_strip(rho, 1), nl) * count_ssyt(
        SkewShape.row_strip(lam, 0), nl
    )
    # with labels <= 2 (the simple case N = n+1) the two sides agree
    assert count_01(2) == count_10(2) == 4
    # one extra label breaks the identity
    assert count_01(3) == 24
    assert count_10(3) == 27
