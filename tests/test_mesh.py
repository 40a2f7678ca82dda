import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crownfit.errors import MeshWarning
from crownfit.mesh import (LabeledMesh, PointCloud, RigidTransform, bounding_box_diagonal,
                           component_ids, estimate_vertex_normals, face_adjacency,
                           is_watertight, voxel_downsample)
from helpers import make_box, make_uv_sphere


def square_mesh():
    vertices = [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]]
    faces = [[0, 1, 2], [0, 2, 3]]
    return LabeledMesh(vertices, faces)


class TestLabeledMesh:
    def test_face_index_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            LabeledMesh([[0, 0, 0]], [[0, 0, 1]])

    def test_non_unit_normals_rejected(self):
        with pytest.raises(ValueError, match="unit length"):
            LabeledMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]],
                        vertex_normals=[[0, 0, 2]] * 3)

    def test_label_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="face_labels"):
            LabeledMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]], face_labels=[1, 2])

    def test_arrays_frozen(self):
        mesh = square_mesh()
        with pytest.raises(ValueError):
            mesh.vertices[0, 0] = 5.0

    def test_submesh_preserves_coordinates(self):
        mesh = square_mesh().with_labels([3, 4])
        sub = mesh.submesh([1])
        assert sub.n_faces == 1
        assert sub.face_labels.tolist() == [4]
        # the kept triangle's corner coordinates are untouched
        assert {tuple(v) for v in sub.vertices} <= {tuple(v) for v in mesh.vertices}


class TestRigidTransform:
    def test_identity(self):
        t = RigidTransform()
        pts = np.random.default_rng(0).normal(size=(5, 3))
        assert np.allclose(t.apply(pts), pts)

    def test_rejects_reflection(self):
        with pytest.raises(ValueError, match="determinant"):
            RigidTransform(np.diag([1.0, 1.0, -1.0]), np.zeros(3))

    def test_compose_inverse_round_trip(self, rng):
        a = RigidTransform.from_axis_angle(rng.normal(size=3), 0.7, rng.normal(size=3))
        b = RigidTransform.from_axis_angle(rng.normal(size=3), -0.3, rng.normal(size=3))
        pts = rng.normal(size=(10, 3))
        assert np.allclose(a.compose(b).apply(pts), a.apply(b.apply(pts)))
        assert np.allclose(a.inverse().apply(a.apply(pts)), pts, atol=1e-12)

    def test_rotation_between_antiparallel_is_deterministic(self):
        r1 = RigidTransform.rotation_between([0, 0, 1], [0, 0, -1])
        r2 = RigidTransform.rotation_between([0, 0, 1], [0, 0, -1])
        assert np.array_equal(r1, r2)
        assert np.allclose(r1 @ [0, 0, 1], [0, 0, -1], atol=1e-12)
        assert np.isclose(np.linalg.det(r1), 1.0)


class TestVertexNormals:
    def test_flat_square_all_up(self):
        mesh = estimate_vertex_normals(square_mesh())
        assert np.allclose(mesh.vertex_normals, [0, 0, 1], atol=1e-12)

    def test_sphere_normals_match_analytic(self):
        mesh = make_uv_sphere((0, 0, 0), 4.0, 24, 32)
        mesh = estimate_vertex_normals(mesh)
        radial = mesh.vertices / np.linalg.norm(mesh.vertices, axis=1, keepdims=True)
        dots = np.einsum("ij,ij->i", mesh.vertex_normals, radial)
        angles = np.degrees(np.arccos(np.clip(dots, -1, 1)))
        assert angles.max() < 2.0

    def test_cube_corner_normal(self):
        mesh = estimate_vertex_normals(make_box((0, 0, 0), (1, 1, 1)))
        # every box corner's area-weighted normal is the unit diagonal
        corner = np.argmax(np.all(mesh.vertices == [1.0, 1.0, 1.0], axis=1))
        expected = np.ones(3) / np.sqrt(3)
        assert np.allclose(np.abs(mesh.vertex_normals[corner]), expected, atol=1e-6)

    def test_unit_length_invariant(self, lower_arch):
        mesh, _ = lower_arch
        norms = np.linalg.norm(mesh.vertex_normals, axis=1)
        assert np.abs(norms - 1.0).max() <= 1e-6

    def test_isolated_vertex_fallback_warns(self):
        vertices = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [9, 9, 9]]
        mesh = LabeledMesh(vertices, [[0, 1, 2]])
        with pytest.warns(MeshWarning, match="fallback"):
            out = estimate_vertex_normals(mesh)
        assert np.allclose(out.vertex_normals[3], [0, 0, 1])

    def test_degenerate_face_skipped(self):
        vertices = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [2, 0, 0]]
        faces = [[0, 1, 2], [0, 1, 3]]  # second face has zero area
        with pytest.warns(MeshWarning):  # vertex 3 only touches the sliver
            out = estimate_vertex_normals(LabeledMesh(vertices, faces))
        assert np.allclose(out.vertex_normals[0], [0, 0, 1])

    def test_no_faces_rejected(self):
        with pytest.raises(ValueError, match="no faces"):
            estimate_vertex_normals(LabeledMesh(np.zeros((1, 3)), np.zeros((0, 3), dtype=int)))


class TestVoxelDownsample:
    def test_two_close_points_merge_to_midpoint(self):
        cloud = PointCloud([[0.4, 0.0, 0.0], [0.5, 0.0, 0.0]])
        out = voxel_downsample(cloud, 0.8)
        assert len(out) == 1
        assert np.allclose(out.points[0], [0.45, 0.0, 0.0])

    def test_grid_points_unchanged(self):
        pts = np.array([[x, y, 0.0] for x in range(0, 10, 2) for y in range(0, 10, 2)],
                       dtype=float)
        out = voxel_downsample(PointCloud(pts), 0.8)
        assert len(out) == len(pts)

    def test_normals_averaged_and_renormalized(self):
        cloud = PointCloud([[0.1, 0, 0], [0.2, 0, 0]],
                           normals=[[1, 0, 0], [0, 1, 0]])
        out = voxel_downsample(cloud, 1.0)
        assert np.isclose(np.linalg.norm(out.normals[0]), 1.0)
        assert np.allclose(out.normals[0], np.array([1, 1, 0]) / np.sqrt(2))

    def test_bitwise_equal_to_row_unique_oracle(self, rng):
        # np.unique over (x, y, z) voxel rows and np.add.at sums, with
        # negative voxels, several points per voxel and normals
        pts = rng.normal(scale=4.0, size=(5000, 3))
        normals = rng.normal(size=(5000, 3))
        out = voxel_downsample(PointCloud(pts, normals), 0.8)
        cells = np.floor(pts / 0.8).astype(np.int64)
        _, inverse, counts = np.unique(cells, axis=0, return_inverse=True, return_counts=True)
        centroids = np.zeros((len(counts), 3))
        acc = np.zeros((len(counts), 3))
        np.add.at(centroids, inverse, pts)
        np.add.at(acc, inverse, normals)
        centroids /= counts[:, None]
        assert out.points.tobytes() == centroids.tobytes()
        assert out.normals.tobytes() == (acc / np.linalg.norm(acc, axis=1)[:, None]).tobytes()

    def test_nonpositive_voxel_rejected(self):
        with pytest.raises(ValueError):
            voxel_downsample(PointCloud([[0, 0, 0]]), 0.0)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.floats(0.3, 2.0))
    def test_count_matches_hash_grid_oracle(self, seed, voxel):
        pts = np.random.default_rng(seed).uniform(0, 10, size=(500, 3))
        out = voxel_downsample(PointCloud(pts), voxel)
        oracle = {tuple(np.floor(p / voxel).astype(int)) for p in pts}
        assert len(out) == len(oracle)

    def test_10k_random_points_oracle(self, rng):
        pts = rng.uniform(0, 10, size=(10_000, 3))
        out = voxel_downsample(PointCloud(pts), 1.0)
        oracle = {tuple(np.floor(p / 1.0).astype(int)) for p in pts}
        assert len(out) == len(oracle)


class TestBoundingBoxDiagonal:
    def test_unit_cube(self):
        mesh = make_box((0.5, 0.5, 0.5), (0.5, 0.5, 0.5))
        assert np.isclose(bounding_box_diagonal(mesh), np.sqrt(3.0))

    def test_single_point(self):
        mesh = LabeledMesh([[1, 2, 3]], np.zeros((0, 3), dtype=int))
        assert bounding_box_diagonal(mesh) == 0.0

    def test_arch_matches_brute_force(self, lower_arch):
        mesh, _ = lower_arch
        lo = np.array([min(v[k] for v in mesh.vertices) for k in range(3)])
        hi = np.array([max(v[k] for v in mesh.vertices) for k in range(3)])
        assert np.isclose(bounding_box_diagonal(mesh), np.linalg.norm(hi - lo))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            bounding_box_diagonal(LabeledMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=int)))


def topology_case(name):
    box = make_box((0, 0, 0), (1, 1, 1))
    if name == "box":
        return box
    if name == "sphere":
        return make_uv_sphere((0, 0, 0), 1.0)
    if name == "square":
        return square_mesh()
    faces = box.faces.copy()
    if name == "flipped":
        faces[3] = faces[3, ::-1]  # every edge still shared by two faces
        return LabeledMesh(box.vertices, faces)
    # "fin": a third face on one of the box's edges
    a, b = faces[0, 0], faces[0, 1]
    vertices = np.concatenate([box.vertices, [[5.0, 5.0, 5.0]]])
    return LabeledMesh(vertices, np.concatenate([faces, [[a, b, len(box.vertices)]]]))


def watertight_oracle(mesh):
    """Every undirected edge in exactly two faces, every directed edge in one."""
    undirected, directed = {}, {}
    for f in mesh.faces.tolist():
        for a, b in ((f[0], f[1]), (f[1], f[2]), (f[2], f[0])):
            key = (min(a, b), max(a, b))
            undirected[key] = undirected.get(key, 0) + 1
            directed[(a, b)] = directed.get((a, b), 0) + 1
    return (all(c == 2 for c in undirected.values())
            and all(c == 1 for c in directed.values()))


class TestTopology:
    def test_box_watertight(self):
        assert is_watertight(make_box((0, 0, 0), (1, 1, 1)))

    def test_open_square_not_watertight(self):
        assert not is_watertight(square_mesh())

    @pytest.mark.parametrize("name", ["box", "sphere", "flipped", "fin", "square"])
    def test_watertight_matches_edge_count_oracle(self, name):
        mesh = topology_case(name)
        want = name in ("box", "sphere")
        assert watertight_oracle(mesh) == want
        assert is_watertight(mesh) == want

    def test_face_adjacency_square(self):
        pairs = face_adjacency(square_mesh())
        assert pairs.shape == (1, 2)
        assert sorted(pairs[0].tolist()) == [0, 1]


def union_find_components(n_nodes, pairs):
    """Oracle: component id per node by a plain union-find."""
    parent = list(range(n_nodes))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for a, b in pairs:
        parent[find(a)] = find(b)
    return np.array([find(i) for i in range(n_nodes)])


def same_partition(ids_a, ids_b):
    # equal partitions map each id of one labelling to exactly one of the other
    pairs = set(zip(ids_a.tolist(), ids_b.tolist()))
    return len(pairs) == len(set(ids_a.tolist())) == len(set(ids_b.tolist()))


class TestComponentIds:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_union_find(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 60))
        pairs = rng.integers(0, n, size=(int(rng.integers(0, 2 * n)), 2))
        got = component_ids(n, pairs)
        assert got.shape == (n,)
        assert same_partition(got, union_find_components(n, pairs))

    def test_no_pairs_gives_singletons(self):
        assert sorted(component_ids(4, np.zeros((0, 2), dtype=int)).tolist()) == [0, 1, 2, 3]

    def test_arch_faces_against_union_find(self, lower_arch):
        mesh, gt = lower_arch
        pairs = face_adjacency(mesh)
        pairs = pairs[gt.labels[pairs[:, 0]] == gt.labels[pairs[:, 1]]]
        got = component_ids(mesh.n_faces, pairs)
        assert same_partition(got, union_find_components(mesh.n_faces, pairs))
