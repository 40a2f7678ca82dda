import struct

import numpy as np
import pytest

from crownfit.errors import MeshFormatError, NoMatchError
from crownfit.retrieval import (EMBEDDING_DIM, cosine, geometric_embedding,
                                load_embedding_index, load_embedding_store, match_context,
                                retrieve_crown, save_embedding_store)


def vec(values):
    v = np.zeros(EMBEDDING_DIM)
    v[: len(values)] = values
    return v


def unit(seed):
    v = np.random.default_rng(seed).normal(size=EMBEDDING_DIM)
    return v / np.linalg.norm(v)


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


class TestMatchContext:
    def test_identical_slots_score_one(self):
        slots = {35: unit(1), 37: unit(2)}
        jaws = {"jawA": {35: unit(1), 37: unit(2), 36: unit(3)},
                "jawB": {35: unit(4), 37: unit(5), 36: unit(6)}}
        jaw, score = match_context(slots, 36, jaws)
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
                slots[p] = e + noise
            slots[36] = unit(200 + j)
            jaws[f"jaw{j:02d}"] = slots
        jaw, score = match_context(base, 36, jaws)
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
        jaw, _ = match_context({35: shared}, 36, jaws)
        assert jaw == "a"

    def test_half_slot_gate_skips_sparse_jaws(self):
        slots = {33: unit(1), 34: unit(2), 35: unit(3), 37: unit(4)}
        sparse = {"only_one": {33: unit(1), 36: unit(9)}}
        with pytest.raises(NoMatchError):
            match_context(slots, 36, sparse)
        # two of four shared slots passes the gate
        ok = {"half": {33: unit(1), 34: unit(2), 36: unit(9)}}
        jaw, _ = match_context(slots, 36, ok)
        assert jaw == "half"

    def test_jaws_without_target_position_skipped(self):
        slots = {35: unit(1)}
        jaws = {"no_target": {35: unit(1)}, "with_target": {35: unit(1), 36: unit(2)}}
        jaw, _ = match_context(slots, 36, jaws)
        assert jaw == "with_target"

    def test_empty_index_rejected(self):
        with pytest.raises(NoMatchError):
            match_context({35: unit(0)}, 36, {})


class TestRetrieveCrown:
    def test_library_containing_donor_wins(self):
        donor = unit(5)
        template, score = retrieve_crown(donor, {"a": unit(1), "self": donor, "b": unit(2)})
        assert template == "self"
        assert np.isclose(score, 1.0)

    def test_matches_linear_scan_argmax(self, rng):
        donor = unit(0)
        library = {f"t{i:03d}": unit(i + 1) for i in range(100)}
        template, score = retrieve_crown(donor, library)
        want = max(sorted(library), key=lambda k: cosine(donor, library[k]))
        assert template == want
        assert np.isclose(score, cosine(donor, library[want]))

    def test_orthogonal_to_all_but_one(self):
        donor = vec([1.0])
        library = {"hit": vec([2.0]), "m1": vec([0, 1.0]), "m2": vec([0, 0, 1.0])}
        template, _ = retrieve_crown(donor, library)
        assert template == "hit"

    def test_empty_library_rejected(self):
        with pytest.raises(ValueError):
            retrieve_crown(unit(0), {})

    def test_argmax_invariant_under_positive_scaling(self, rng):
        donor = unit(0)
        library = {f"t{i}": unit(i + 50) for i in range(20)}
        base, _ = retrieve_crown(donor, library)
        for seed in range(3):
            r = np.random.default_rng(seed)
            scaled = {k: e * r.uniform(0.1, 10.0) for k, e in library.items()}
            got, _ = retrieve_crown(donor * r.uniform(0.1, 10.0), scaled)
            assert got == base


class TestStore:
    def test_round_trip(self, tmp_path):
        embeddings = [unit(i) for i in range(5)]
        keys = [{"jaw": "j0", "fdi": 31 + i} for i in range(5)]
        path = tmp_path / "store.bin"
        save_embedding_store(embeddings, keys, path)
        back, back_keys = load_embedding_store(path)
        assert back_keys == keys
        assert back.dtype == np.float64
        assert np.abs(np.stack(embeddings) - back).max() < 1e-6  # float32 storage

    def test_index_loading(self, tmp_path):
        jaw_embeddings = [unit(1), unit(2)]
        jaw_keys = [{"jaw": "j0", "fdi": 35}, {"jaw": "j0", "fdi": 37}]
        save_embedding_store(jaw_embeddings, jaw_keys, tmp_path / "jaws.bin")
        save_embedding_store([unit(3)], [{"template": "c0"}], tmp_path / "crowns.bin")
        jaws, crowns = load_embedding_index(tmp_path / "jaws.bin", tmp_path / "crowns.bin")
        assert set(jaws) == {"j0"}
        assert set(jaws["j0"]) == {35, 37}
        assert set(crowns) == {"c0"}

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

    def test_wrong_dimension_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_embedding_store([np.ones(100)], [{"template": "c0"}], tmp_path / "x.bin")
        path = tmp_path / "narrow.bin"
        path.write_bytes(b"EMBD" + struct.pack("<II", 1, 100) + np.ones(100, "<f4").tobytes())
        path.with_suffix(".bin.json").write_text('[{"template": "c0"}]')
        with pytest.raises(MeshFormatError, match="dim 100"):
            load_embedding_store(path)

    @pytest.mark.parametrize("bad", [0.0, np.nan, np.inf], ids=["zero", "nan", "inf"])
    def test_row_not_finite_or_zero_rejected(self, tmp_path, bad):
        # jaw b matches the query exactly, yet a NaN row of jaw a, sorted
        # first, would win: no score compares greater than a NaN one
        query = {35: unit(1), 37: unit(2)}
        rows = [unit(3), np.full(EMBEDDING_DIM, bad), unit(4), query[35], query[37], unit(5)]
        keys = [{"jaw": jaw, "fdi": fdi} for jaw in "ab" for fdi in (35, 37, 36)]
        save_embedding_store(rows, keys, tmp_path / "jaws.bin")
        save_embedding_store([unit(6)], [{"template": "c0"}], tmp_path / "crowns.bin")
        with pytest.raises(MeshFormatError, match=r"jaws\.bin row 1 is not finite") as err:
            load_embedding_index(tmp_path / "jaws.bin", tmp_path / "crowns.bin")
        assert err.value.byte_offset == 12 + 4 * EMBEDDING_DIM


class TestGeometricEmbedding:
    def test_deterministic(self, lower_arch):
        mesh, gt = lower_arch
        faces = np.nonzero(gt.labels == 5)[0]
        a = geometric_embedding(mesh, faces)
        b = geometric_embedding(mesh, faces)
        assert a.shape == (EMBEDDING_DIM,)
        assert np.array_equal(a, b)

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
