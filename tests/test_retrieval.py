import numpy as np
import pytest

from crownfit.errors import MeshFormatError, NoMatchError
from crownfit.retrieval import (EMBEDDING_DIM, ContextQuery, Embedding, EmbeddingIndex,
                                cosine, geometric_embedding, load_embedding_index,
                                load_embedding_store, match_context, retrieve_crown,
                                save_embedding_store)


def vec(values):
    v = np.zeros(EMBEDDING_DIM)
    v[: len(values)] = values
    return Embedding(v)


def unit(seed):
    v = np.random.default_rng(seed).normal(size=EMBEDDING_DIM)
    return Embedding(v / np.linalg.norm(v))


class TestCosine:
    def test_identical_is_one(self):
        a = unit(1)
        assert np.isclose(cosine(a, a), 1.0)

    def test_orthogonal_is_zero(self):
        a = vec([1.0])
        b = vec([0.0, 1.0])
        assert cosine(a, b) == 0.0

    def test_hand_arithmetic(self):
        a = vec([1.0, 2.0, 2.0])
        b = vec([2.0, 1.0, 2.0])
        assert np.isclose(cosine(a, b), 8.0 / 9.0)

    def test_wrong_dimension_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            Embedding(np.ones(100))

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            Embedding(np.zeros(EMBEDDING_DIM))


class TestMatchContext:
    def make_index(self, jaws):
        return EmbeddingIndex(jaws, {"t0": unit(99)})

    def test_identical_slots_score_one(self):
        slots = {35: unit(1), 37: unit(2)}
        index = self.make_index({"jawA": {35: unit(1), 37: unit(2), 36: unit(3)},
                                 "jawB": {35: unit(4), 37: unit(5), 36: unit(6)}})
        query = ContextQuery(36, slots)
        jaw, score = match_context(query, index)
        assert jaw == "jawA"
        assert np.isclose(score, 1.0)

    def test_least_perturbed_jaw_wins_vs_brute_force(self, rng):
        base = {p: unit(p) for p in (34, 35, 37, 38)}
        jaws = {}
        levels = {}
        for j in range(10):
            eps = 0.05 * (j + 1)
            levels[f"jaw{j:02d}"] = eps
            slots = {}
            for p, e in base.items():
                noise = rng.normal(size=EMBEDDING_DIM) * eps
                slots[p] = Embedding(e.vector + noise)
            slots[36] = unit(200 + j)
            jaws[f"jaw{j:02d}"] = slots
        index = self.make_index(jaws)
        query = ContextQuery(36, base)
        jaw, score = match_context(query, index)
        # brute-force oracle over all candidate jaws
        def jaw_score(slots):
            shared = [p for p in base if p in slots]
            return np.mean([cosine(base[p], slots[p]) for p in shared])
        want = max(sorted(jaws), key=lambda k: jaw_score(jaws[k]))
        assert jaw == want == "jaw00"
        assert np.isclose(score, jaw_score(jaws[jaw]))

    def test_tie_breaks_lexicographically(self):
        shared = unit(3)
        jaws = {"b": {35: shared, 36: unit(7)}, "a": {35: shared, 36: unit(8)}}
        index = self.make_index(jaws)
        jaw, _ = match_context(ContextQuery(36, {35: shared}), index)
        assert jaw == "a"

    def test_half_slot_gate_skips_sparse_jaws(self):
        query = ContextQuery(36, {33: unit(1), 34: unit(2), 35: unit(3), 37: unit(4)})
        sparse = {"only_one": {33: unit(1), 36: unit(9)}}
        with pytest.raises(NoMatchError):
            match_context(query, self.make_index(sparse))
        # two of four shared slots passes the gate
        ok = {"half": {33: unit(1), 34: unit(2), 36: unit(9)}}
        jaw, _ = match_context(ContextQuery(36, query.slots), self.make_index(ok))
        assert jaw == "half"

    def test_jaws_without_target_position_skipped(self):
        slots = {35: unit(1)}
        jaws = {"no_target": {35: unit(1)}, "with_target": {35: unit(1), 36: unit(2)}}
        jaw, _ = match_context(ContextQuery(36, slots), self.make_index(jaws))
        assert jaw == "with_target"

    def test_empty_index_rejected(self):
        with pytest.raises(NoMatchError):
            match_context(ContextQuery(36, {35: unit(0)}), EmbeddingIndex({}, {"t": unit(1)}))

    def test_query_validation(self):
        with pytest.raises(ValueError):
            ContextQuery(36, {})
        with pytest.raises(ValueError):
            ContextQuery(36, {36: unit(1)})


class TestRetrieveCrown:
    def test_library_containing_donor_wins(self):
        donor = unit(5)
        index = EmbeddingIndex({}, {"a": unit(1), "self": donor, "b": unit(2)})
        template, score = retrieve_crown(donor, index)
        assert template == "self"
        assert np.isclose(score, 1.0)

    def test_matches_linear_scan_argmax(self, rng):
        donor = unit(0)
        library = {f"t{i:03d}": unit(i + 1) for i in range(100)}
        index = EmbeddingIndex({}, library)
        template, score = retrieve_crown(donor, index)
        want = max(sorted(library), key=lambda k: cosine(donor, library[k]))
        assert template == want
        assert np.isclose(score, cosine(donor, library[want]))

    def test_orthogonal_to_all_but_one(self):
        donor = vec([1.0])
        library = {"hit": vec([2.0]), "m1": vec([0, 1.0]), "m2": vec([0, 0, 1.0])}
        template, _ = retrieve_crown(donor, index=EmbeddingIndex({}, library))
        assert template == "hit"

    def test_empty_library_rejected(self):
        with pytest.raises(ValueError):
            retrieve_crown(unit(0), EmbeddingIndex({}, {}))

    def test_argmax_invariant_under_positive_scaling(self, rng):
        donor = unit(0)
        library = {f"t{i}": unit(i + 50) for i in range(20)}
        base, _ = retrieve_crown(donor, EmbeddingIndex({}, library))
        for seed in range(3):
            r = np.random.default_rng(seed)
            scaled = {k: Embedding(e.vector * r.uniform(0.1, 10.0))
                      for k, e in library.items()}
            got, _ = retrieve_crown(Embedding(donor.vector * r.uniform(0.1, 10.0)),
                                    EmbeddingIndex({}, scaled))
            assert got == base


class TestStore:
    def test_round_trip(self, tmp_path):
        embeddings = [unit(i) for i in range(5)]
        keys = [{"jaw": "j0", "fdi": 31 + i} for i in range(5)]
        path = tmp_path / "store.bin"
        save_embedding_store(embeddings, keys, path)
        back, back_keys = load_embedding_store(path)
        assert back_keys == keys
        for a, b in zip(embeddings, back):
            assert np.abs(a.vector - b.vector).max() < 1e-6  # float32 storage

    def test_index_loading(self, tmp_path):
        jaw_embeddings = [unit(1), unit(2)]
        jaw_keys = [{"jaw": "j0", "fdi": 35}, {"jaw": "j0", "fdi": 37}]
        save_embedding_store(jaw_embeddings, jaw_keys, tmp_path / "jaws.bin")
        save_embedding_store([unit(3)], [{"template": "c0"}], tmp_path / "crowns.bin")
        index = load_embedding_index(tmp_path / "jaws.bin", tmp_path / "crowns.bin")
        assert set(index.jaws["j0"]) == {35, 37}
        assert set(index.crown_library) == {"c0"}

    @pytest.mark.parametrize("jaw_keys, crown_keys", [
        ([{"jaw": "j0", "fdi": 35}, {"jaw": "j0", "fdi": 35}],
         [{"template": "c0"}, {"template": "c1"}]),
        ([{"jaw": "j0", "fdi": 35}, {"jaw": "j1", "fdi": 35}],
         [{"template": "c0"}, {"template": "c0"}]),
    ], ids=["jaw", "template"])
    def test_repeated_key_rejected(self, tmp_path, jaw_keys, crown_keys):
        save_embedding_store([unit(1), unit(2)], jaw_keys, tmp_path / "jaws.bin")
        save_embedding_store([unit(3), unit(4)], crown_keys, tmp_path / "crowns.bin")
        with pytest.raises(MeshFormatError, match="duplicate"):
            load_embedding_index(tmp_path / "jaws.bin", tmp_path / "crowns.bin")

    def test_short_header_reports_offset(self, tmp_path):
        path = tmp_path / "short.bin"
        path.write_bytes(b"EMBD\x01")
        with pytest.raises(MeshFormatError, match="header") as err:
            load_embedding_store(path)
        assert err.value.byte_offset == 5


class TestGeometricEmbedding:
    def test_deterministic(self, lower_arch):
        mesh, gt = lower_arch
        faces = np.nonzero(gt.labels == 5)[0]
        a = geometric_embedding(mesh, faces)
        b = geometric_embedding(mesh, faces)
        assert np.array_equal(a.vector, b.vector)

    def test_similar_teeth_score_higher_than_dissimilar(self, lower_arch):
        mesh, gt = lower_arch
        molar = np.nonzero(gt.labels == 6)[0]        # right first molar
        other_molar = np.nonzero(gt.labels == 14)[0]  # left first molar
        incisor = np.nonzero(gt.labels == 1)[0]
        e_molar = geometric_embedding(mesh, molar)
        assert cosine(e_molar, geometric_embedding(mesh, other_molar)) > \
            cosine(e_molar, geometric_embedding(mesh, incisor))

    def test_empty_region_rejected(self, lower_arch):
        mesh, _ = lower_arch
        with pytest.raises(ValueError):
            geometric_embedding(mesh, np.zeros(0, dtype=int))
