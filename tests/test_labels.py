import itertools
import json

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order, maximum_flow

from crownfit import labels as labels_module
from crownfit.errors import MeshFormatError
from crownfit.labels import (PROB_CLAMP, RefineParams, _band_move,
                             _expansion_band, _min_cut_assignment,
                             _neighbour_table, corrupt_labels, graphcut_refine,
                             load_probabilities, pairwise_weights,
                             reassign_small_components, tune_smoothness)
from crownfit.mesh import GINGIVA, LabeledMesh, face_adjacency
from crownfit.synth import ArchSpec, generate_arch
from helpers import at_resolution, labeling_energy, save_probabilities


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
    """Minimum energy over all n_classes ** n labelings, scored 2 ** 16 at a
    time: labeling ``code`` gives face f the base-n_classes digit f of code."""
    n = len(unary)
    total, block = n_classes ** n, 1 << 16
    powers = n_classes ** np.arange(n)
    best = np.inf
    for start in range(0, total, block):
        codes = np.arange(start, min(start + block, total))
        labels = codes[:, None] // powers % n_classes
        e = unary[np.arange(n), labels].sum(axis=1)
        if len(pairs):
            e += (labels[:, pairs[:, 0]] != labels[:, pairs[:, 1]]) @ weights
        best = min(best, float(e.min()))
    return best


def full_graph_move(unary, pairs, weights, labels, alpha, keep):
    """The expansion move for ``alpha`` solved as one min cut over every
    face; faces in the mask ``keep`` are held at their label by a t-link far
    above any other cost."""
    n = len(labels)
    pinned = labels == alpha  # both states are alpha
    cost0 = np.where(pinned, unary[:, alpha], unary[np.arange(n), labels])
    cost1 = np.where(keep & ~pinned, 1e3, unary[:, alpha])
    la, lb = labels[pairs[:, 0]], labels[pairs[:, 1]]
    # Potts expansion: A=w[la!=lb], B=w[la!=alpha], C=w[alpha!=lb], D=0
    a_cost = weights * (la != lb)
    b_cost = weights * (la != alpha)
    c_cost = weights * (lb != alpha)
    lin = np.concatenate([c_cost - a_cost, -c_cost])
    ends = np.concatenate([pairs[:, 0], pairs[:, 1]])
    x = _min_cut_assignment(cost0 + np.bincount(ends, np.maximum(-lin, 0.0), n),
                            cost1 + np.bincount(ends, np.maximum(lin, 0.0), n),
                            b_cost + c_cost - a_cost, pairs)
    return np.where(x == 1, alpha, labels)


def banded_move(unary, pairs, weights, labels, alpha):
    """The labels after the banded move for ``alpha``: its switch applied
    to a copy."""
    nbr, wtab = _neighbour_table(len(labels), pairs, weights)
    band = _expansion_band(unary, nbr, labels, alpha)
    moved = labels.copy()
    if band.any():
        switch, _ = _band_move(unary, nbr, wtab, labels, alpha, band)
        moved[switch] = alpha
    return moved


def whole_energy_refine(mesh, probs, params, move):
    """Alpha-expansion that accepts a move on the energy of the whole
    labeling, summed afresh after every move. ``move(unary, pairs, weights,
    labels, alpha)`` returns the labels after the move for alpha. Same
    sweeps and the same accept-only-if-lower threshold as
    ``graphcut_refine``: with ``banded_move`` it is the reference for the
    energy change each move reports; with ``full_graph_move`` over no kept
    faces, the reference the banded moves are checked against."""
    pairs = face_adjacency(mesh)
    unary = -np.log(np.clip(probs, PROB_CLAMP, 1.0))
    weights = pairwise_weights(mesh, pairs, params)
    labels = probs.argmax(axis=1)
    energy = labeling_energy(unary, pairs, weights, labels)
    for _ in range(labels_module._MAX_SWEEPS):
        improved = False
        for alpha in range(probs.shape[1]):
            new_labels = move(unary, pairs, weights, labels, alpha)
            new_energy = labeling_energy(unary, pairs, weights, new_labels)
            if new_energy < energy - 1e-12:
                labels, energy, improved = new_labels, new_energy, True
        if not improved:
            break
    return labels


def full_move(unary, pairs, weights, labels, alpha):
    return full_graph_move(unary, pairs, weights, labels, alpha,
                           np.zeros(len(labels), dtype=bool))


class TestProbabilities:
    def test_rows_must_sum_to_one(self, tmp_path):
        # loaded rows are divided by their sums; a zero row has none
        path = tmp_path / "probs.json"
        save_probabilities(np.array([[0.5, 0.25], [0.0, 2.0]]), path)
        assert load_probabilities(path).tolist() == [[2 / 3, 1 / 3], [0.0, 1.0]]
        save_probabilities(np.array([[0.5, 0.5], [0.0, 0.0]]), path)
        with pytest.raises(ValueError, match="positive sum"):
            load_probabilities(path)

    def test_non_finite_rejected(self, tmp_path):
        for name in ("probs.json", "probs.bin"):
            save_probabilities(np.array([[np.nan, 1.0]]), tmp_path / name)
            with pytest.raises(ValueError, match="finite"):
                load_probabilities(tmp_path / name)

    def test_negative_rejected(self, tmp_path):
        path = tmp_path / "probs.json"
        save_probabilities(np.array([[-0.1, 1.1]]), path)
        with pytest.raises(ValueError, match="non-negative"):
            load_probabilities(path)

    @pytest.mark.parametrize("suffix", [".json", ".bin"])
    def test_negative_row_rejected_before_renormalizing(self, tmp_path, suffix):
        # divided by their sums, these rows would load as [0.5, 0.5] and
        # [0.25, 0.75]
        path = tmp_path / f"probs{suffix}"
        for row in ([-1.0, -1.0], [-0.2, -0.6]):
            save_probabilities(np.array([[0.3, 0.7], row]), path)
            with pytest.raises(ValueError, match="non-negative"):
                load_probabilities(path)

    def test_binary_round_trip(self, tmp_path, rng):
        m = rng.dirichlet(np.ones(5), size=20)
        path = tmp_path / "probs.bin"
        save_probabilities(m, path)
        back = load_probabilities(path)
        assert back.shape == (20, 5)
        assert back.dtype == np.float64
        assert np.abs(back - m).max() < 1e-6  # float32 storage

    def test_json_round_trip(self, tmp_path, rng):
        m = rng.dirichlet(np.ones(3), size=7)
        path = tmp_path / "probs.json"
        save_probabilities(m, path)
        back = load_probabilities(path)
        assert np.abs(back - m).max() < 1e-12

    @pytest.mark.parametrize("payload, reason", [
        ([[0.5, 0.5]], "expected a JSON object, got list"),
        ({"rows": [[0.5, 0.5]]}, "KeyError: 'faces'"),
        ({"faces": 2, "classes": 2, "rows": [[0.5, 0.5]]}, r"shape \(1, 2\), expected \(2, 2\)"),
    ])
    def test_malformed_json_names_the_file(self, tmp_path, payload, reason):
        path = tmp_path / "probs.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(MeshFormatError, match=f"bad probability JSON .*probs.json: .*{reason}"):
            load_probabilities(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"XXXX" + b"\0" * 16)
        with pytest.raises(MeshFormatError):
            load_probabilities(path)

    def test_short_header_reports_offset(self, tmp_path):
        path = tmp_path / "short.bin"
        path.write_bytes(b"FPRB\x02\x00")
        with pytest.raises(MeshFormatError, match="header") as err:
            load_probabilities(path)
        assert err.value.byte_offset == 6


class TestGraphCut:
    def test_zero_smoothness_is_argmax_identity(self, rng):
        mesh = strip_mesh(12, seed=1)
        m = rng.dirichlet(np.ones(4), size=12)
        out = graphcut_refine(mesh, m, RefineParams(smoothness=0.0), face_adjacency(mesh))
        assert np.array_equal(out, m.argmax(axis=1))

    def test_flipped_face_corrected_with_strong_smoothness(self):
        """Exhaustive 2^10 oracle: one flipped face in a 2-class strip."""
        mesh = strip_mesh(10, flat=True)
        pairs = face_adjacency(mesh)
        m = np.full((10, 2), 0.2)
        m[:, 0] = 0.8
        m[4] = [0.2, 0.8]  # the flipped face
        params = RefineParams(smoothness=10.0)
        out = graphcut_refine(mesh, m, params, pairs)
        assert np.all(out == 0)
        unary = -np.log(np.clip(m, 1e-12, 1.0))
        w = pairwise_weights(mesh, pairs, params)
        best = brute_force_optimum(unary, pairs, w, 2)
        assert labeling_energy(unary, pairs, w, out) <= best + 1e-9

    def test_three_class_toy_attains_brute_force_optimum(self, rng):
        hits = 0
        for trial in range(10):
            n = int(rng.integers(8, 13))
            mesh = strip_mesh(n, seed=trial)
            pairs = face_adjacency(mesh)
            m = rng.dirichlet(np.ones(3), size=n)
            params = RefineParams(smoothness=float(rng.uniform(0.1, 2.0)))
            out = graphcut_refine(mesh, m, params, pairs)
            unary = -np.log(np.clip(m, 1e-12, 1.0))
            w = pairwise_weights(mesh, pairs, params)
            e = labeling_energy(unary, pairs, w, out)
            e_argmax = labeling_energy(unary, pairs, w, m.argmax(axis=1))
            assert e <= e_argmax + 1e-12
            hits += e <= brute_force_optimum(unary, pairs, w, 3) + 1e-9
        assert hits >= 9

    def test_energy_never_above_argmax_on_arch(self, lower_arch, rng):
        mesh, gt = lower_arch
        pairs = face_adjacency(mesh)
        probs = corrupt_labels(gt.labels, 18, flip_fraction=0.08, softness=0.35, seed=5)
        params = RefineParams(smoothness=30.0)
        out = graphcut_refine(mesh, probs, params, pairs)
        unary = -np.log(np.clip(probs, 1e-12, 1.0))
        w = pairwise_weights(mesh, pairs, params)
        assert labeling_energy(unary, pairs, w, out) <= \
            labeling_energy(unary, pairs, w, probs.argmax(axis=1)) + 1e-9

    def test_refinement_improves_corrupted_accuracy(self, lower_arch):
        mesh, gt = lower_arch
        probs = corrupt_labels(gt.labels, 18, flip_fraction=0.05, softness=0.3, seed=3)
        lam = tune_smoothness([(mesh, probs, gt.labels)], RefineParams(),
                              candidates=(2.0, 5.0, 10.0))
        out = graphcut_refine(mesh, probs, RefineParams(smoothness=lam), face_adjacency(mesh))
        assert (out == gt.labels).mean() > (probs.argmax(axis=1) == gt.labels).mean()

    def test_tune_smoothness_prefers_accurate_candidate(self, lower_arch):
        mesh, gt = lower_arch
        probs = corrupt_labels(gt.labels, 18, flip_fraction=0.05, softness=0.3, seed=3)
        lam = tune_smoothness([(mesh, probs, gt.labels)], RefineParams(), candidates=(5.0, 60.0))
        assert lam == 5.0
        with pytest.raises(ValueError):
            tune_smoothness([], RefineParams())

    def test_row_count_mismatch_rejected(self, rng):
        mesh = strip_mesh(5)
        probs = rng.dirichlet(np.ones(3), size=4)
        with pytest.raises(ValueError, match="face count"):
            graphcut_refine(mesh, probs, RefineParams(), face_adjacency(mesh))

    def test_negative_smoothness_rejected(self):
        with pytest.raises(ValueError):
            RefineParams(smoothness=-1.0)


class TestBandedExpansion:
    @pytest.mark.parametrize("flip, softness", [(0.05, 0.3), (0.08, 0.35)])
    def test_energy_matches_full_expansion_on_arch(self, lower_arch, flip, softness):
        mesh, gt = lower_arch
        pairs = face_adjacency(mesh)
        probs = corrupt_labels(gt.labels, 18, flip_fraction=flip, softness=softness, seed=3)
        params = RefineParams(smoothness=5.0)
        unary = -np.log(np.clip(probs, PROB_CLAMP, 1.0))
        w = pairwise_weights(mesh, pairs, params)
        banded = graphcut_refine(mesh, probs, params, pairs)
        full = whole_energy_refine(mesh, probs, params, full_move)
        assert abs(labeling_energy(unary, pairs, w, banded)
                   - labeling_energy(unary, pairs, w, full)) <= 1e-9

    @pytest.mark.parametrize("seed", range(8))
    def test_band_move_is_full_move_with_outside_kept(self, seed):
        """Every move on small strips: the folded band cut equals the full
        graph's with the faces outside the band held at their label, and
        attains the minimum over all 2 ** |band| switch sets."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(6, 13))
        pairs = face_adjacency(strip_mesh(n, seed=seed))
        # small integer costs keep the cut exact and make ties common
        unary = rng.integers(0, 6, size=(n, 4)).astype(float)
        weights = rng.integers(0, 4, len(pairs)).astype(float)
        labels = rng.integers(0, 4, n)
        nbr, wtab = _neighbour_table(n, pairs, weights)
        for alpha in range(4):
            band = _expansion_band(unary, nbr, labels, alpha)
            if not band.any():
                continue
            switch, change = _band_move(unary, nbr, wtab, labels, alpha, band)
            moved = labels.copy()
            moved[switch] = alpha
            assert np.array_equal(
                moved, full_graph_move(unary, pairs, weights, labels, alpha, ~band))
            nodes = np.flatnonzero(band)
            best = np.inf
            for switch in itertools.product((False, True), repeat=len(nodes)):
                trial = labels.copy()
                trial[nodes[np.array(switch)]] = alpha
                best = min(best, labeling_energy(unary, pairs, weights, trial))
            assert labeling_energy(unary, pairs, weights, moved) == best
            assert change == (labeling_energy(unary, pairs, weights, moved)
                              - labeling_energy(unary, pairs, weights, labels))

    def test_accepted_moves_change_only_their_band(self, lower_arch, monkeypatch):
        mesh, gt = lower_arch
        pairs = face_adjacency(mesh)
        probs = corrupt_labels(gt.labels, 18, flip_fraction=0.08, softness=0.35, seed=5)
        moves = []

        def recorded(unary, nbr, wtab, labels, alpha, band):
            switch, change = _band_move(unary, nbr, wtab, labels, alpha, band)
            after = labels.copy()
            after[switch] = alpha
            # the labels change in place once a move is accepted: keep copies
            moves.append((labels.copy(), after, band))
            return switch, change

        monkeypatch.setattr(labels_module, "_band_move", recorded)
        refined = graphcut_refine(mesh, probs, RefineParams(smoothness=5.0), pairs)
        # a move is accepted when the next move starts from its labels and
        # they differ from its own start (a move that switches nothing
        # changes no energy, so it is never accepted)
        starts = [before for before, _, _ in moves[1:]] + [refined]
        accepted = [(before, after, band) for (before, after, band), nxt in zip(moves, starts)
                    if np.array_equal(after, nxt) and not np.array_equal(after, before)]
        assert accepted
        for before, after, band in accepted:
            assert not np.any(before[~band] != after[~band])
            assert np.any(before[band] != after[band])
        assert not np.array_equal(refined, probs.argmax(axis=1))

    @pytest.mark.parametrize("seed, factor", [
        (0, 1), (1, 1), (0, 2), (1, 2),
        pytest.param(11, 4, marks=pytest.mark.slow),   # 115k faces, a scanner mesh's size
    ])
    def test_same_labels_as_whole_energy_reference(self, seed, factor):
        """Accepting a move on its reported energy change accepts the same
        moves as summing the whole labeling's energy after each one."""
        mesh, gt = generate_arch(at_resolution(ArchSpec.standard("Lower", "full", seed=seed),
                                               factor))
        probs = corrupt_labels(gt.labels, 18, flip_fraction=0.08, softness=0.35, seed=seed)
        pairs = face_adjacency(mesh)
        for lam in (5.0, 30.0):
            params = RefineParams(smoothness=lam)
            assert np.array_equal(graphcut_refine(mesh, probs, params, pairs),
                                  whole_energy_refine(mesh, probs, params, banded_move))


def cut_energy(x, cost0, cost1, pairs, caps):
    e = cost0[x == 0].sum() + cost1[x == 1].sum()
    return e + caps[(x[pairs[:, 0]] == 0) & (x[pairs[:, 1]] == 1)].sum()


def uncancelled_min_cut(cost0, cost1, pair_caps, pairs):
    """``_min_cut_assignment`` with both full t-links of every node kept;
    integer costs up to 18 keep the 1e8 capacity scale exact."""
    n = len(cost0)
    rows = np.concatenate([np.full(n, n), np.arange(n), pairs[:, 0]])
    cols = np.concatenate([np.arange(n), np.full(n, n + 1), pairs[:, 1]])
    caps = (np.concatenate([cost1, cost0, pair_caps]) * 1e8).astype(np.int64)
    graph = csr_matrix((caps, (rows, cols)), shape=(n + 2, n + 2))
    residual = graph - maximum_flow(graph, n, n + 1).flow
    residual.data[residual.data < 0] = 0
    residual.eliminate_zeros()
    reachable = np.zeros(n + 2, dtype=bool)
    reachable[breadth_first_order(residual, n, return_predecessors=False)] = True
    return (~reachable[:n]).astype(np.int64)


class TestMinCut:
    @pytest.mark.parametrize("seed", range(6))
    def test_tlink_cancellation_keeps_labels_on_strips(self, seed):
        rng = np.random.default_rng(seed)
        n = 400
        pairs = face_adjacency(strip_mesh(n, seed=seed))
        # large shared t-link parts and many exact ties between the states
        cost0 = rng.integers(0, 9, n).astype(float)
        cost1 = rng.integers(0, 9, n).astype(float)
        caps = rng.integers(0, 4, len(pairs)).astype(float)
        x = _min_cut_assignment(cost0, cost1, caps, pairs)
        assert np.array_equal(x, uncancelled_min_cut(cost0, cost1, caps, pairs))
        assert 0 < x.sum() < n

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
        x = _min_cut_assignment(cost0, cost1, caps, pairs)
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
        out = reassign_small_components(labels, face_adjacency(mesh), 10)
        assert np.all(out[:9] == GINGIVA)

    def test_ten_face_component_kept(self):
        mesh = strip_mesh(20, flat=True)
        labels = np.zeros(20, dtype=int)
        labels[:10] = 3
        out = reassign_small_components(labels, face_adjacency(mesh), 10)
        assert np.all(out[:10] == 3)

    def test_two_islands_of_same_class_both_reassigned(self):
        mesh = strip_mesh(20, flat=True)
        labels = np.zeros(20, dtype=int)
        labels[0:5] = 7
        labels[10:15] = 7
        out = reassign_small_components(labels, face_adjacency(mesh), 10)
        assert np.all(out == GINGIVA)
        # union-find oracle: component sizes by adjacency
        assert not np.any(out == 7)

    def test_idempotent(self, lower_arch, rng):
        mesh, gt = lower_arch
        noisy = gt.labels.copy()
        pick = rng.choice(len(noisy), size=60, replace=False)
        noisy[pick] = rng.integers(0, 18, size=60)
        once = reassign_small_components(noisy, face_adjacency(mesh), 10)
        twice = reassign_small_components(once, face_adjacency(mesh), 10)
        assert np.array_equal(once, twice)


class TestCorruptor:
    def test_flip_fraction_zero_keeps_argmax(self, lower_arch):
        _, gt = lower_arch
        probs = corrupt_labels(gt.labels, 18, flip_fraction=0.0, softness=0.3, seed=0)
        assert np.array_equal(probs.argmax(axis=1), gt.labels)

    def test_deterministic(self, lower_arch):
        _, gt = lower_arch
        a = corrupt_labels(gt.labels, 18, 0.1, 0.3, seed=9)
        b = corrupt_labels(gt.labels, 18, 0.1, 0.3, seed=9)
        assert np.array_equal(a, b)

    def test_flip_count(self, lower_arch):
        _, gt = lower_arch
        probs = corrupt_labels(gt.labels, 18, 0.1, 0.3, seed=2)
        flips = (probs.argmax(axis=1) != gt.labels).sum()
        assert flips == int(round(0.1 * len(gt.labels)))
