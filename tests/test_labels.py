import itertools

import numpy as np
import pytest

from crownfit.errors import MeshFormatError
from crownfit.labels import (FaceLabelProbabilities, GraphCutParams, _cut_pattern,
                             _min_cut_assignment, corrupt_labels, graphcut_refine,
                             labeling_energy, load_probabilities, pairwise_weights,
                             reassign_small_components, save_probabilities,
                             tune_smoothness)
from crownfit.mesh import GINGIVA, LabeledMesh


def strip_mesh(n_faces, seed=0, flat=False):
    rng = np.random.default_rng(seed)
    verts = []
    for i in range(n_faces + 2):
        z = 0.0 if flat else rng.uniform(-0.3, 0.3)
        verts.append([i * 1.0, i % 2, z])
    faces = [[i, i + 1, i + 2] if i % 2 == 0 else [i, i + 2, i + 1]
             for i in range(n_faces)]
    return LabeledMesh(np.array(verts), np.array(faces))


def brute_force_optimum(unary, pairs, weights, n_classes):
    best = np.inf
    n = len(unary)
    for combo in itertools.product(range(n_classes), repeat=n):
        labels = np.asarray(combo)
        e = labeling_energy(unary, pairs, weights, labels)
        best = min(best, e)
    return best


class TestProbabilities:
    def test_rows_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            FaceLabelProbabilities([[0.5, 0.4]])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            FaceLabelProbabilities([[np.nan, 1.0]])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            FaceLabelProbabilities([[-0.1, 1.1]])

    def test_binary_round_trip(self, tmp_path, rng):
        m = rng.dirichlet(np.ones(5), size=20)
        probs = FaceLabelProbabilities(m)
        path = tmp_path / "probs.bin"
        save_probabilities(probs, path)
        back = load_probabilities(path)
        assert back.matrix.shape == (20, 5)
        assert np.abs(back.matrix - m).max() < 1e-6  # float32 storage

    def test_json_round_trip(self, tmp_path, rng):
        m = rng.dirichlet(np.ones(3), size=7)
        path = tmp_path / "probs.json"
        save_probabilities(FaceLabelProbabilities(m), path)
        back = load_probabilities(path)
        assert np.abs(back.matrix - m).max() < 1e-12

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"XXXX" + b"\0" * 16)
        with pytest.raises(MeshFormatError):
            load_probabilities(path)


class TestGraphCut:
    def test_zero_smoothness_is_argmax_identity(self, rng):
        mesh = strip_mesh(12, seed=1)
        m = rng.dirichlet(np.ones(4), size=12)
        probs = FaceLabelProbabilities(m)
        out = graphcut_refine(mesh, probs, GraphCutParams(smoothness=0.0))
        assert np.array_equal(out, m.argmax(axis=1))

    def test_flipped_face_corrected_with_strong_smoothness(self):
        """Exhaustive 2^10 oracle: one flipped face in a 2-class strip."""
        mesh = strip_mesh(10, flat=True)
        m = np.full((10, 2), 0.2)
        m[:, 0] = 0.8
        m[4] = [0.2, 0.8]  # the flipped face
        probs = FaceLabelProbabilities(m)
        params = GraphCutParams(smoothness=10.0)
        out = graphcut_refine(mesh, probs, params)
        assert np.all(out == 0)
        unary = -np.log(np.clip(m, 1e-12, 1.0))
        pairs, w = pairwise_weights(mesh, params)
        best = brute_force_optimum(unary, pairs, w, 2)
        assert labeling_energy(unary, pairs, w, out) <= best + 1e-9

    def test_three_class_toy_attains_brute_force_optimum(self, rng):
        hits = 0
        for trial in range(10):
            n = int(rng.integers(8, 13))
            mesh = strip_mesh(n, seed=trial)
            m = rng.dirichlet(np.ones(3), size=n)
            probs = FaceLabelProbabilities(m)
            params = GraphCutParams(smoothness=float(rng.uniform(0.1, 2.0)))
            out = graphcut_refine(mesh, probs, params)
            unary = -np.log(np.clip(m, 1e-12, 1.0))
            pairs, w = pairwise_weights(mesh, params)
            e = labeling_energy(unary, pairs, w, out)
            e_argmax = labeling_energy(unary, pairs, w, m.argmax(axis=1))
            assert e <= e_argmax + 1e-12
            hits += e <= brute_force_optimum(unary, pairs, w, 3) + 1e-9
        assert hits >= 9

    def test_energy_never_above_argmax_on_arch(self, lower_arch, rng):
        mesh, gt = lower_arch
        probs = corrupt_labels(gt.labels, 18, flip_fraction=0.08, softness=0.35, seed=5)
        params = GraphCutParams(smoothness=30.0)
        out = graphcut_refine(mesh, probs, params)
        unary = -np.log(np.clip(probs.matrix, 1e-12, 1.0))
        pairs, w = pairwise_weights(mesh, params)
        assert labeling_energy(unary, pairs, w, out) <= \
            labeling_energy(unary, pairs, w, probs.argmax_labels()) + 1e-9

    def test_refinement_improves_corrupted_accuracy(self, lower_arch):
        mesh, gt = lower_arch
        probs = corrupt_labels(gt.labels, 18, flip_fraction=0.05, softness=0.3, seed=3)
        lam = tune_smoothness([(mesh, probs, gt.labels)], candidates=(2.0, 5.0, 10.0))
        out = graphcut_refine(mesh, probs, GraphCutParams(smoothness=lam))
        assert (out == gt.labels).mean() > (probs.argmax_labels() == gt.labels).mean()

    def test_tune_smoothness_prefers_accurate_candidate(self, lower_arch):
        mesh, gt = lower_arch
        probs = corrupt_labels(gt.labels, 18, flip_fraction=0.05, softness=0.3, seed=3)
        lam = tune_smoothness([(mesh, probs, gt.labels)], candidates=(5.0, 60.0))
        assert lam == 5.0
        with pytest.raises(ValueError):
            tune_smoothness([])

    def test_row_count_mismatch_rejected(self, rng):
        mesh = strip_mesh(5)
        probs = FaceLabelProbabilities(rng.dirichlet(np.ones(3), size=4))
        with pytest.raises(ValueError, match="face count"):
            graphcut_refine(mesh, probs, GraphCutParams())

    def test_negative_smoothness_rejected(self):
        with pytest.raises(ValueError):
            GraphCutParams(smoothness=-1.0)


def cut_energy(x, cost0, cost1, pairs, caps):
    e = cost0[x == 0].sum() + cost1[x == 1].sum()
    return e + caps[(x[pairs[:, 0]] == 0) & (x[pairs[:, 1]] == 1)].sum()


class TestMinCut:
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_exhaustive_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 13))
        pairs = rng.integers(0, n, size=(int(rng.integers(0, 3 * n)), 2))
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]  # repeats and reverse arcs stay
        # small integer costs stay exact under the integer capacity scale
        cost0 = rng.integers(0, 10, n).astype(float)
        cost1 = rng.integers(0, 10, n).astype(float)
        caps = rng.integers(0, 10, len(pairs)).astype(float)
        x = _min_cut_assignment(cost0, cost1, caps, _cut_pattern(n, pairs))
        states = np.array(list(itertools.product((0, 1), repeat=n)))
        energies = np.array([cut_energy(s, cost0, cost1, pairs, caps) for s in states])
        assert cut_energy(x, cost0, cost1, pairs, caps) == energies.min()
        # the source side is the minimal one: x=1 wherever any optimum has it
        assert np.array_equal(x, states[energies == energies.min()].max(axis=0))


class TestSmallComponents:
    def test_nine_face_component_reassigned(self):
        mesh = strip_mesh(20, flat=True)
        labels = np.zeros(20, dtype=int)
        labels[:9] = 3
        out = reassign_small_components(labels, mesh, 10)
        assert np.all(out[:9] == GINGIVA)

    def test_ten_face_component_kept(self):
        mesh = strip_mesh(20, flat=True)
        labels = np.zeros(20, dtype=int)
        labels[:10] = 3
        out = reassign_small_components(labels, mesh, 10)
        assert np.all(out[:10] == 3)

    def test_two_islands_of_same_class_both_reassigned(self):
        mesh = strip_mesh(20, flat=True)
        labels = np.zeros(20, dtype=int)
        labels[0:5] = 7
        labels[10:15] = 7
        out = reassign_small_components(labels, mesh, 10)
        assert np.all(out == GINGIVA)
        # union-find oracle: component sizes by adjacency
        assert not np.any(out == 7)

    def test_idempotent(self, lower_arch, rng):
        mesh, gt = lower_arch
        noisy = gt.labels.copy()
        pick = rng.choice(len(noisy), size=60, replace=False)
        noisy[pick] = rng.integers(0, 18, size=60)
        once = reassign_small_components(noisy, mesh, 10)
        twice = reassign_small_components(once, mesh, 10)
        assert np.array_equal(once, twice)


class TestCorruptor:
    def test_flip_fraction_zero_keeps_argmax(self, lower_arch):
        _, gt = lower_arch
        probs = corrupt_labels(gt.labels, 18, flip_fraction=0.0, softness=0.3, seed=0)
        assert np.array_equal(probs.argmax_labels(), gt.labels)

    def test_deterministic(self, lower_arch):
        _, gt = lower_arch
        a = corrupt_labels(gt.labels, 18, 0.1, 0.3, seed=9).matrix
        b = corrupt_labels(gt.labels, 18, 0.1, 0.3, seed=9).matrix
        assert np.array_equal(a, b)

    def test_flip_count(self, lower_arch):
        _, gt = lower_arch
        probs = corrupt_labels(gt.labels, 18, 0.1, 0.3, seed=2)
        flips = (probs.argmax_labels() != gt.labels).sum()
        assert flips == int(round(0.1 * len(gt.labels)))
