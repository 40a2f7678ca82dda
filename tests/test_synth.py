from dataclasses import replace

import numpy as np
import pytest

from crownfit.alignment import LABEL_BUCCAL, LABEL_MESIAL, LABEL_OCCLUSAL
from crownfit.classify import ScanClass
from crownfit.errors import DegenerateGeometryError
from crownfit.mesh import GINGIVA, PREPARED, is_watertight, mesh_edges
from crownfit.synth import (ArchSpec, CrownDims, PerturbSpec, ToothSpec,
                            _coverage_arc_range, class_to_fdi, fdi_to_class, generate_arch,
                            generate_crown_fixture, partial_spec, perturb_pose)
from crownfit.templates import extract_tooth_centroids
from helpers import (face_accumulated_centroids, fdi_jaw, make_box, make_uv_sphere,
                     mirror_x)


def loop_slab(cell_label, far_j_label, far_i_label):
    """Reference mesher: the per-cell and per-wall loops ``generate_arch`` and
    ``generate_crown_fixture`` each carried before ``_closed_slab``. Top faces
    take ``cell_label``; the j = nv and i = nu walls take the far labels;
    the bottom and the other two walls get 0."""
    nu, nv = cell_label.shape

    def vid_top(i, j):
        return i * (nv + 1) + j

    n_top = (nu + 1) * (nv + 1)

    def vid_bot(i, j):
        return n_top + i * (nv + 1) + j

    faces, labels = [], []
    for i in range(nu):
        for j in range(nv):
            a, b, c, d = vid_top(i, j), vid_top(i + 1, j), vid_top(i + 1, j + 1), vid_top(i, j + 1)
            faces += [(a, b, c), (a, c, d)]
            labels += [cell_label[i, j]] * 2
            a, b, c, d = vid_bot(i, j), vid_bot(i + 1, j), vid_bot(i + 1, j + 1), vid_bot(i, j + 1)
            faces += [(a, c, b), (a, d, c)]
            labels += [0] * 2
    for i in range(nu):
        faces += [(vid_top(i, 0), vid_bot(i, 0), vid_bot(i + 1, 0)),
                  (vid_top(i, 0), vid_bot(i + 1, 0), vid_top(i + 1, 0))]
        faces += [(vid_top(i, nv), vid_top(i + 1, nv), vid_bot(i + 1, nv)),
                  (vid_top(i, nv), vid_bot(i + 1, nv), vid_bot(i, nv))]
        labels += [0] * 2 + [far_j_label] * 2
    for j in range(nv):
        faces += [(vid_top(0, j), vid_top(0, j + 1), vid_bot(0, j + 1)),
                  (vid_top(0, j), vid_bot(0, j + 1), vid_bot(0, j))]
        faces += [(vid_top(nu, j), vid_bot(nu, j), vid_bot(nu, j + 1)),
                  (vid_top(nu, j), vid_bot(nu, j + 1), vid_top(nu, j + 1))]
        labels += [0] * 2 + [far_i_label] * 2
    return np.asarray(faces, dtype=np.int64), np.asarray(labels, dtype=np.int64)


def loop_arch(spec):
    """``loop_slab`` with the cell-centre footprint labels of an arch, whose
    upper jaw flips the winding."""
    arc_lo, arc_hi = _coverage_arc_range(spec)
    nu = max(8, int(round((arc_hi - arc_lo) * spec.cells_per_mm)))
    arcs = np.linspace(arc_lo, arc_hi, nu + 1)
    cross_mm = np.linspace(-0.5, 0.5, spec.cross_cells + 1) * spec.ridge_width
    cell_arc = ((arcs[:-1] + arcs[1:]) / 2.0)[:, None]
    cell_cross = ((cross_mm[:-1] + cross_mm[1:]) / 2.0)[None, :]
    cell_label = np.full((nu, spec.cross_cells), GINGIVA, dtype=np.int64)
    for t in spec.teeth:
        q = (np.abs(cell_arc - t.arc_pos) / t.half_arc) ** 4 \
            + (np.abs(cell_cross - t.cross_pos) / t.half_cross) ** 4
        cell_label[q < 1.0] = PREPARED if t.prepared else fdi_to_class(t.fdi)
    faces, labels = loop_slab(cell_label, GINGIVA, GINGIVA)
    if spec.jaw == "Upper":
        faces = faces[:, [0, 2, 1]]
    return faces, labels


class TestSlabMesher:
    @pytest.mark.parametrize("spec", [
        ArchSpec.standard("Lower", "full", prepared=(36,), seed=3, jitter_sigma=0.3),
        ArchSpec.standard("Upper", "full", seed=4, jitter_sigma=0.3),
        partial_spec("Lower", "left", prepared=(34,), seed=5, jitter_sigma=0.3),
        partial_spec("Upper", "center", seed=6, jitter_sigma=0.3),
        replace(ArchSpec.standard("Lower", "full", seed=7), cells_per_mm=3.2, cross_cells=24),
    ], ids=["lower-full", "upper-full", "lower-left", "upper-center", "lower-full-2x"])
    def test_arch_matches_loops(self, spec):
        mesh, gt = generate_arch(spec)
        faces, labels = loop_arch(spec)
        assert mesh.faces.tobytes() == faces.tobytes()
        assert gt.labels.tobytes() == labels.tobytes()
        assert mesh.face_labels.tobytes() == labels.tobytes()

    @pytest.mark.parametrize("kind", ["bumped_posterior", "smooth_anterior"])
    def test_crown_matches_loops(self, kind):
        dims = CrownDims()
        mesh = generate_crown_fixture(kind, dims)[0]
        cells = np.full((dims.cells, dims.cells), LABEL_OCCLUSAL, dtype=np.int64)
        faces, labels = loop_slab(cells, LABEL_BUCCAL, LABEL_MESIAL)
        assert mesh.faces.tobytes() == faces.tobytes()
        assert mesh.face_labels.tobytes() == labels.tobytes()


class TestFdi:
    def test_class_mapping(self):
        assert fdi_to_class(11) == 1     # upper right central incisor
        assert fdi_to_class(48) == 8     # lower right wisdom
        assert fdi_to_class(21) == 9     # upper left central incisor
        assert fdi_to_class(36) == 14    # lower left first molar
        assert fdi_to_class(36) == fdi_to_class(26)  # jaws share arch positions
        assert fdi_to_class(16) == fdi_to_class(46) == 6

    def test_round_trip(self):
        for fdi in (11, 18, 21, 28, 31, 38, 41, 48, 36, 24):
            assert class_to_fdi(fdi_to_class(fdi), fdi_jaw(fdi)) == fdi

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            fdi_to_class(59)
        with pytest.raises(ValueError):
            fdi_to_class(10)


class TestGenerateArch:
    def test_full_lower_watertight_with_14_teeth(self, lower_arch):
        mesh, gt = lower_arch
        assert is_watertight(mesh)
        tooth_classes = set(np.unique(gt.labels)) - {GINGIVA}
        assert len(tooth_classes) == 14
        assert gt.scan_class is ScanClass.FULL_LOWER

    def test_euler_characteristic_genus_zero(self, lower_arch):
        mesh, _ = lower_arch
        edges = {tuple(sorted(e)) for e in mesh_edges(mesh)}
        assert mesh.n_vertices - len(edges) + mesh.n_faces == 2

    def test_all_coverage_types_watertight(self):
        for jaw in ("Upper", "Lower"):
            for side in ("left", "right", "center"):
                mesh, gt = generate_arch(partial_spec(jaw, side))
                assert is_watertight(mesh)

    def test_left_quadrant_ground_truth(self, left_partial):
        mesh, gt = left_partial
        assert gt.scan_class is ScanClass.PARTIAL_LEFT
        classes = set(np.unique(gt.labels)) - {GINGIVA}
        assert all(c >= 9 for c in classes)

    def test_deterministic_bit_identical(self):
        spec = ArchSpec.standard("Lower", "full", seed=3, jitter_sigma=0.4)
        a, gta = generate_arch(spec)
        b, gtb = generate_arch(spec)
        assert np.array_equal(a.vertices, b.vertices)
        assert np.array_equal(a.faces, b.faces)
        assert np.array_equal(gta.labels, gtb.labels)

    def test_ground_truth_centroids_match_extraction(self):
        mesh, gt = generate_arch(ArchSpec.standard("Upper", "full", seed=2,
                                                   jitter_sigma=0.4))
        cents = extract_tooth_centroids(mesh)
        want = face_accumulated_centroids(mesh, gt.labels)
        assert sorted(cents) == sorted(want)
        for cls in want:
            assert np.linalg.norm(cents[cls] - want[cls]) < 0.1

    def test_prepared_tooth_labeled_17(self, prepared_lower_arch, lower_arch):
        mesh, gt = prepared_lower_arch
        _, plain = lower_arch
        assert fdi_to_class(36) not in np.unique(gt.labels)
        # the shrunken stump lies inside the footprint tooth 36 has unprepared
        stump = gt.labels == PREPARED
        assert stump.any()
        assert np.all(plain.labels[stump] == fdi_to_class(36))
        assert np.array_equal(gt.labels[~stump], np.where(plain.labels == fdi_to_class(36),
                                                          GINGIVA, plain.labels)[~stump])

    def test_overlapping_footprints_rejected(self):
        teeth = (ToothSpec(31, 10.0, 3.0, 2.0, 4.0),
                 ToothSpec(32, 12.0, 3.0, 2.0, 4.0))
        spec = ArchSpec("Lower", "full", 24.0, 38.0, teeth=teeth)
        with pytest.raises(DegenerateGeometryError, match="overlap"):
            generate_arch(spec)

    def test_occlusal_plane_convention(self, lower_arch, upper_arch):
        lo, _ = lower_arch
        up, _ = upper_arch
        assert np.isclose(lo.vertices[:, 2].max(), 0.25)
        assert np.isclose(up.vertices[:, 2].min(), -0.25)


class TestPerturbPose:
    def test_zero_ranges_identity(self, lower_arch):
        mesh, _ = lower_arch
        out, pose = perturb_pose(mesh, PerturbSpec(seed=5))
        assert np.array_equal(out.vertices, mesh.vertices)
        assert pose.transform.rotation_angle_deg() == 0.0
        assert pose.scale == 1.0

    def test_seeded_draw_reproducible(self, lower_arch):
        mesh, _ = lower_arch
        spec = PerturbSpec.mild(seed=9)
        _, a = perturb_pose(mesh, spec)
        _, b = perturb_pose(mesh, spec)
        assert np.array_equal(a.transform.rotation, b.transform.rotation)
        assert np.array_equal(a.transform.translation, b.transform.translation)
        assert a.scale == b.scale

    def test_round_trip_via_returned_transform(self, lower_arch):
        mesh, _ = lower_arch
        out, pose = perturb_pose(mesh, PerturbSpec((5, 5, 15), (5, 5, 2), (1.0, 1.0), seed=3))
        back = out.transformed(pose.transform.inverse())
        assert np.abs(back.vertices - mesh.vertices).max() < 1e-9

    def test_draws_stay_within_ranges(self):
        """10k API draws: all sampled angles within +-5/+-5/+-15 degrees, the
        translations/scale within their ranges (extracted from the applied
        transform by Rz Ry Rx decomposition)."""
        mesh = make_box((0, 0, 0), (1, 1, 1))
        tol = 1e-9
        for seed in range(10_000):
            _, pose = perturb_pose(mesh, PerturbSpec.mild(seed=seed))
            r = pose.transform.rotation
            ry = np.degrees(np.arcsin(np.clip(-r[2, 0], -1, 1)))
            rx = np.degrees(np.arctan2(r[2, 1], r[2, 2]))
            rz = np.degrees(np.arctan2(r[1, 0], r[0, 0]))
            assert abs(rx) <= 5.0 + tol and abs(ry) <= 5.0 + tol and abs(rz) <= 15.0 + tol
            assert 0.9 <= pose.scale <= 1.1
            assert np.all(np.abs(pose.transform.translation) <= np.array([5.0, 5.0, 2.0]) + tol)


class TestCrownFixtures:
    def test_posterior_has_exact_cusp_apexes(self):
        mesh, apexes = generate_crown_fixture("bumped_posterior")
        assert len(apexes) == 5
        for vertex, height in apexes.items():
            assert mesh.vertices[vertex, 2] == height
        assert is_watertight(mesh)

    def test_smooth_anterior_has_no_bumps(self):
        mesh, apexes = generate_crown_fixture("smooth_anterior")
        assert apexes == {}
        assert is_watertight(mesh)

    def test_every_region_nonempty(self):
        mesh, _ = generate_crown_fixture("bumped_posterior")
        for label in (LABEL_MESIAL, LABEL_BUCCAL, LABEL_OCCLUSAL):
            assert np.any(mesh.face_labels == label)

    def test_invalid_kind_rejected(self):
        with pytest.raises(ValueError):
            generate_crown_fixture("premolar")
        with pytest.raises(ValueError):
            generate_crown_fixture("bumped_posterior", CrownDims(half_mesial=-1.0))

    def test_deterministic(self):
        a, apexes_a = generate_crown_fixture("bumped_posterior")
        b, apexes_b = generate_crown_fixture("bumped_posterior")
        assert np.array_equal(a.vertices, b.vertices)
        assert apexes_a == apexes_b


class TestSolids:
    def test_box_and_sphere_watertight(self):
        assert is_watertight(make_box((0, 0, 0), (1, 2, 3)))
        assert is_watertight(make_uv_sphere((0, 0, 0), 2.0, 12, 16))

    def test_mirror_preserves_watertightness(self, lower_arch):
        mesh, _ = lower_arch
        assert is_watertight(mirror_x(mesh))
