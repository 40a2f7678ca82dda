import numpy as np
import pytest

from crownfit.errors import DegenerateGeometryError
from crownfit.mesh import GINGIVA, PREPARED, LabeledMesh, PointCloud, RigidTransform
from crownfit.synth import (ArchSpec, coverage_classes, fdi_to_class, generate_arch,
                            partial_spec)
from crownfit.templates import (JAWS, SIDES, build_average_curve, build_template_library,
                                derive_partials, extract_tooth_centroids, load_template,
                                save_template_library, select_canonical, template_key,
                                DEFAULT_CUT_SPECS)
from helpers import face_accumulated_centroids


def tiny_labeled_mesh(face_specs):
    """face_specs: list of (triangle vertices, label)."""
    vertices, faces, labels = [], [], []
    for tri, label in face_specs:
        base = len(vertices)
        vertices.extend(tri)
        faces.append([base, base + 1, base + 2])
        labels.append(label)
    return LabeledMesh(vertices, faces, None, labels)


class TestExtractCentroids:
    def test_single_square_at_origin(self):
        mesh = tiny_labeled_mesh([
            ([[-1, -1, 0], [1, -1, 0], [1, 1, 0]], 3),
            ([[-1, -1, 0], [1, 1, 0], [-1, 1, 0]], 3),
        ])
        cents = extract_tooth_centroids(mesh)
        assert np.allclose(cents[3], [0, 0, 0])

    def test_two_equal_faces_average(self):
        mesh = tiny_labeled_mesh([
            ([[0, 0, 0], [1, 0, 0], [0, 1, 0]], 5),
            ([[0, 0, 2], [1, 0, 2], [0, 1, 2]], 5),
        ])
        cents = extract_tooth_centroids(mesh)
        assert np.isclose(cents[5][2], 1.0)

    def test_arch_matches_generator_ground_truth(self, lower_arch):
        mesh, gt = lower_arch
        cents = extract_tooth_centroids(mesh)
        want = face_accumulated_centroids(mesh, gt.labels)
        assert sorted(cents) == sorted(want)
        for cls in want:
            assert np.linalg.norm(cents[cls] - want[cls]) < 0.1

    def test_unlabeled_rejected(self):
        mesh = tiny_labeled_mesh([([[0, 0, 0], [1, 0, 0], [0, 1, 0]], GINGIVA)])
        with pytest.raises(ValueError, match="no tooth labels"):
            extract_tooth_centroids(mesh)


class TestAverageCurve:
    def test_mean_of_one_equals_scan(self, lower_arch):
        mesh, _ = lower_arch
        curve = build_average_curve([mesh])
        cents = extract_tooth_centroids(mesh)
        for cls in curve:
            assert np.allclose(curve[cls], cents[cls])

    def test_mirrored_pair_symmetric_in_x(self):
        from helpers import mirror_x
        mesh, _ = generate_arch(ArchSpec.standard("Lower", "full"))
        # mirroring swaps left/right classes; relabel so classes align
        mirrored = mirror_x(mesh)
        swap = {c: (c + 8 if c <= 8 else c - 8) for c in range(1, 17)}
        labels = np.array([swap.get(int(l), int(l)) for l in mirrored.face_labels])
        curve = build_average_curve([mesh, mirrored.with_labels(labels)])
        for cls, mean in curve.items():
            partner = swap[cls]
            if partner in curve:
                assert abs(mean[0] + curve[partner][0]) < 1e-9

    def test_jittered_population_mean_near_truth(self):
        sigma = 0.5
        scans, baseline = [], None
        for seed in range(10):
            mesh, _ = generate_arch(
                ArchSpec.standard("Lower", "full", seed=seed, jitter_sigma=sigma))
            scans.append(mesh)
        base_mesh, _ = generate_arch(ArchSpec.standard("Lower", "full"))
        base = extract_tooth_centroids(base_mesh)
        curve = build_average_curve(scans)
        bound = 3 * sigma / np.sqrt(10)
        for cls, mean in curve.items():
            assert np.all(np.abs(mean - base[cls]) < bound + 0.05)

    def test_equivariant_under_rigid_transform(self):
        meshes = [generate_arch(ArchSpec.standard("Lower", "full", seed=s,
                                                  jitter_sigma=0.3))[0] for s in range(3)]
        t = RigidTransform.from_axis_angle((0.3, 0.2, 0.9), 0.7, (4.0, -2.0, 1.0))
        curve = build_average_curve(meshes)
        moved = build_average_curve([m.transformed(t) for m in meshes])
        for cls in curve:
            assert np.allclose(moved[cls], t.apply(curve[cls]), atol=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            build_average_curve([])


class TestSelectCanonical:
    def test_zero_distance_scan_wins(self):
        base, _ = generate_arch(ArchSpec.standard("Lower", "full"))
        jittered = [generate_arch(ArchSpec.standard("Lower", "full", seed=s,
                                                    jitter_sigma=0.5))[0] for s in (1, 2)]
        curve = build_average_curve([base])
        assert select_canonical(jittered + [base], curve) == 2

    def test_matches_brute_force(self):
        scans = [generate_arch(ArchSpec.standard("Lower", "full", seed=s,
                                                 jitter_sigma=0.5))[0] for s in range(5)]
        curve = build_average_curve(scans)
        vals = []
        for scan in scans:
            cents = extract_tooth_centroids(scan)
            shared = [c for c in cents if c in curve]
            vals.append(np.mean([np.linalg.norm(cents[c] - curve[c]) for c in shared]))
        assert select_canonical(scans, curve) == int(np.argmin(vals))

    def test_tie_breaks_to_lowest_index(self, lower_arch):
        mesh, _ = lower_arch
        curve = build_average_curve([mesh])
        assert select_canonical([mesh, mesh], curve) == 0

    def test_no_shared_class_rejected(self, lower_arch):
        mesh, _ = lower_arch
        lone = tiny_labeled_mesh([([[0, 0, 0], [1, 0, 0], [0, 1, 0]], 4)])
        curve = {9: np.zeros(3)}
        with pytest.raises(ValueError, match="shares no class"):
            select_canonical([lone], curve)


class TestDerivePartials:
    def test_left_cut_keeps_left_lateral_classes_only(self, lower_arch):
        mesh, _ = lower_arch
        partial = derive_partials(mesh, "Left")
        kept = set(int(c) for c in np.unique(partial.face_labels)) - {GINGIVA}
        assert kept <= set(DEFAULT_CUT_SPECS["Left"])
        assert kept  # non-empty

    def test_center_cut_keeps_anterior_classes(self, lower_arch):
        mesh, _ = lower_arch
        partial = derive_partials(mesh, "Center")
        kept = set(int(c) for c in np.unique(partial.face_labels)) - {GINGIVA}
        assert kept <= {1, 2, 3, 9, 10, 11}

    def test_vertices_subset_of_master(self, lower_arch):
        mesh, _ = lower_arch
        partial = derive_partials(mesh, "Right")
        master_set = {tuple(v) for v in mesh.vertices}
        assert all(tuple(v) in master_set for v in partial.vertices)

    def test_empty_cut_rejected(self):
        # a right side scan holds none of the Left cut's classes
        right, _ = generate_arch(partial_spec("Lower", "right"))
        with pytest.raises(DegenerateGeometryError, match="selects no tooth faces"):
            derive_partials(right, "Left")


@pytest.fixture(scope="module")
def library():
    upper = [generate_arch(ArchSpec.standard("Upper", "full", seed=s,
                                             jitter_sigma=0.3))[0] for s in range(2)]
    lower = [generate_arch(ArchSpec.standard("Lower", "full", seed=s,
                                             jitter_sigma=0.3))[0] for s in range(2)]
    return build_template_library(upper, lower)


class TestLibrary:
    def test_six_partials(self, library):
        assert list(library) == [
            "master_upper", "partial_upper_left", "partial_upper_right", "partial_upper_center",
            "master_lower", "partial_lower_left", "partial_lower_right", "partial_lower_center"]

    def test_partials_keep_what_a_partial_scan_covers(self, library):
        for jaw in JAWS:
            master = library[template_key(jaw, None)]
            teeth = set(np.unique(master.face_labels).tolist()) - {GINGIVA}
            for side in SIDES:
                kept = set(np.unique(library[template_key(jaw, side)].face_labels)
                           .tolist()) - {GINGIVA}
                assert kept == teeth & set(coverage_classes(side.lower())), (jaw, side)

    def test_partial_registers_back_with_high_fitness(self, library):
        from crownfit.registration import RegistrationParams, fine_register
        from crownfit.mesh import estimate_vertex_normals, voxel_downsample
        master = estimate_vertex_normals(library["master_lower"])
        partial = library["partial_lower_left"]
        src = voxel_downsample(PointCloud(partial.vertices), 0.8)
        tgt = voxel_downsample(master.to_point_cloud(), 0.8)
        result = fine_register(src, tgt, RigidTransform(), RegistrationParams())
        assert result.fitness >= 0.99

    def test_persistence_round_trip(self, library, tmp_path):
        # the saved library is its 8 PLYs, each named by its template key
        save_template_library(library, tmp_path / "lib")
        assert sorted(path.name for path in (tmp_path / "lib").iterdir()) == \
            sorted(f"{key}.ply" for key in library)
        for key, mesh in library.items():
            back = load_template(tmp_path / "lib", key)
            assert np.array_equal(back.vertices, mesh.vertices)
            assert np.array_equal(back.faces, mesh.faces)
            assert np.array_equal(back.face_labels, mesh.face_labels)
            assert np.array_equal(back.vertex_normals, mesh.vertex_normals)


def test_prepared_tooth_class_present(prepared_lower_arch):
    mesh, gt = prepared_lower_arch
    assert PREPARED in face_accumulated_centroids(mesh, gt.labels)
    assert fdi_to_class(36) not in np.unique(mesh.face_labels)
