import numpy as np
import pytest

from crownfit.errors import MeshFormatError, MeshWarning, UnsupportedFeatureError
from crownfit.mesh import LabeledMesh, estimate_vertex_normals
from crownfit.meshio import load_mesh, save_mesh
from helpers import make_box


def unit_cube_ply_text():
    # hand-authored ascii cube: 8 vertices, 12 faces, one face labeled 17
    verts = [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
    faces = make_box((0.5, 0.5, 0.5), (0.5, 0.5, 0.5)).faces
    lines = ["ply", "format ascii 1.0", "element vertex 8",
             "property double x", "property double y", "property double z",
             "element face 12", "property list uchar int vertex_indices",
             "property uchar label", "end_header"]
    lines += [f"{v[0]} {v[1]} {v[2]}" for v in verts]
    labels = [0] * 12
    labels[5] = 17
    lines += [f"3 {f[0]} {f[1]} {f[2]} {l}" for f, l in zip(faces, labels)]
    return "\n".join(lines) + "\n"


class TestPly:
    def test_unit_cube_fixture(self, tmp_path):
        path = tmp_path / "cube.ply"
        path.write_text(unit_cube_ply_text())
        mesh = load_mesh(path, "PLY")
        assert mesh.n_vertices == 8
        assert mesh.n_faces == 12
        assert (mesh.face_labels == 17).sum() == 1

    def test_binary_round_trip_bit_identical(self, tmp_path, lower_arch):
        mesh, _ = lower_arch
        path = tmp_path / "arch.ply"
        save_mesh(mesh, path, "PLY")
        back = load_mesh(path, "PLY")
        assert np.array_equal(back.vertices, mesh.vertices)
        assert np.array_equal(back.faces, mesh.faces)
        assert np.array_equal(back.face_labels, mesh.face_labels)
        assert np.array_equal(back.vertex_normals, mesh.vertex_normals)

    def test_ascii_round_trip(self, tmp_path):
        # ascii PLY is read, not written: the text holds each double's repr
        mesh = make_box((0.123456789, -0.5, 2.25), (0.5, 1.0, 0.25))
        lines = ["ply", "format ascii 1.0", f"element vertex {mesh.n_vertices}",
                 "property double x", "property double y", "property double z",
                 f"element face {mesh.n_faces}", "property list uchar int vertex_indices",
                 "end_header"]
        lines += [" ".join(repr(float(c)) for c in v) for v in mesh.vertices]
        lines += ["3 " + " ".join(str(i) for i in f) for f in mesh.faces]
        path = tmp_path / "box.ply"
        path.write_text("\n".join(lines) + "\n")
        back = load_mesh(path, "PLY")
        assert np.array_equal(back.vertices, mesh.vertices)
        assert np.array_equal(back.faces, mesh.faces)

    def test_empty_mesh_round_trip(self, tmp_path):
        empty = LabeledMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=int))
        path = tmp_path / "empty.ply"
        save_mesh(empty, path, "PLY")
        back = load_mesh(path, "PLY")
        assert back.n_vertices == 0
        assert back.n_faces == 0

    def test_missing_magic_reports_offset(self, tmp_path):
        path = tmp_path / "bad.ply"
        path.write_bytes(b"not a ply file\n")
        with pytest.raises(MeshFormatError) as err:
            load_mesh(path, "PLY")
        assert err.value.byte_offset == 0

    def test_truncated_binary_reports_offset(self, tmp_path, lower_arch):
        mesh, _ = lower_arch
        path = tmp_path / "trunc.ply"
        save_mesh(mesh, path, "PLY")
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(MeshFormatError) as err:
            load_mesh(path, "PLY")
        assert err.value.byte_offset is not None

    def test_binary_face_list_lengths(self, tmp_path):
        header = ("ply\nformat binary_little_endian 1.0\nelement vertex 4\n"
                  "property double x\nproperty double y\nproperty double z\n"
                  "element face 2\nproperty list uchar int vertex_indices\n"
                  "end_header\n").encode()
        body = header + np.arange(12, dtype="<f8").tobytes()

        def face(*idx):
            return bytes([len(idx)]) + np.array(idx, dtype="<i4").tobytes()

        path = tmp_path / "faces.ply"
        path.write_bytes(body + face(0, 1, 2, 3) + face(3, 2, 1, 0))
        with pytest.raises(MeshFormatError, match="only triangle faces"):
            load_mesh(path, "PLY")
        path.write_bytes(body + face(0, 1, 2) + face(0, 1, 2, 3))
        with pytest.raises(MeshFormatError) as err:
            load_mesh(path, "PLY")
        assert err.value.byte_offset == len(body) + 13  # count byte of the second face

    def test_out_of_range_face_index_rejected(self, tmp_path):
        text = ("ply\nformat ascii 1.0\nelement vertex 3\n"
                "property double x\nproperty double y\nproperty double z\n"
                "element face 1\nproperty list uchar int vertex_indices\nend_header\n"
                "0 0 0\n1 0 0\n0 1 0\n3 0 1 7\n")
        path = tmp_path / "oob.ply"
        path.write_text(text)
        with pytest.raises(ValueError, match="out of range"):
            load_mesh(path, "PLY")


class TestObj:
    def test_round_trip(self, tmp_path):
        mesh = estimate_vertex_normals(make_box((0, 0, 0), (1, 2, 3)))
        path = tmp_path / "box.obj"
        save_mesh(LabeledMesh(mesh.vertices, mesh.faces, mesh.vertex_normals), path, "OBJ")
        back = load_mesh(path, "OBJ")
        assert np.array_equal(back.vertices, mesh.vertices)
        assert np.array_equal(back.faces, mesh.faces)
        assert np.array_equal(back.vertex_normals, mesh.vertex_normals)

    def test_labels_dropped_with_warning(self, tmp_path):
        mesh = make_box((0, 0, 0), (1, 1, 1))
        labeled = mesh.with_labels(np.arange(12) % 3)
        path = tmp_path / "labeled.obj"
        with pytest.warns(MeshWarning, match="labels dropped"):
            save_mesh(labeled, path, "OBJ")
        back = load_mesh(path, "OBJ")
        assert back.face_labels is None
        assert np.array_equal(back.vertices, mesh.vertices)

    def test_malformed_line_reports_offset(self, tmp_path):
        path = tmp_path / "bad.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2\n")
        with pytest.raises(MeshFormatError):
            load_mesh(path, "OBJ")


class TestStl:
    def test_round_trip_geometry(self, tmp_path):
        mesh = make_box((0, 0, 0), (1, 1, 1))
        path = tmp_path / "box.stl"
        save_mesh(mesh, path, "STL")
        back = load_mesh(path, "STL")
        assert back.n_faces == mesh.n_faces
        assert back.face_labels is None
        # float32 quantization: vertices welded, coordinates within 1e-6
        assert back.n_vertices == mesh.n_vertices
        got = {tuple(np.round(v, 5)) for v in back.vertices}
        want = {tuple(np.round(v, 5)) for v in mesh.vertices}
        assert got == want

    def test_labels_rejected(self, tmp_path):
        mesh = make_box((0, 0, 0), (1, 1, 1)).with_labels(np.zeros(12, dtype=int))
        with pytest.raises(UnsupportedFeatureError):
            save_mesh(mesh, tmp_path / "box.stl", "STL")

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "trunc.stl"
        path.write_bytes(b"\0" * 50)
        with pytest.raises(MeshFormatError):
            load_mesh(path, "STL")

    def test_ascii_reported_as_unsupported(self, tmp_path):
        path = tmp_path / "facet.stl"
        path.write_text("solid one\n facet normal 0 0 1\n  outer loop\n"
                        "   vertex 0 0 0\n   vertex 1 0 0\n   vertex 0 1 0\n"
                        "  endloop\n endfacet\nendsolid one\n")
        with pytest.raises(MeshFormatError, match="ascii STL is not supported"):
            load_mesh(path, "STL")

    def test_binary_header_may_start_with_solid(self, tmp_path):
        path = tmp_path / "box.stl"
        save_mesh(make_box((0, 0, 0), (1, 1, 1)), path, "STL")
        data = path.read_bytes()
        path.write_bytes(b"solid box".ljust(80, b"\0") + data[80:])
        assert load_mesh(path, "STL").n_faces == 12


def test_format_inferred_from_extension(tmp_path):
    mesh = make_box((0, 0, 0), (1, 1, 1))
    path = tmp_path / "m.ply"
    save_mesh(mesh, path)
    assert load_mesh(path).n_faces == 12


def test_unknown_format_rejected(tmp_path):
    with pytest.raises(ValueError, match="unknown mesh format"):
        save_mesh(make_box((0, 0, 0), (1, 1, 1)), tmp_path / "m.xyz")
