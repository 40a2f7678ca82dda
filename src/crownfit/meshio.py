"""Mesh file readers and writers: PLY (binary little-endian + ASCII), OBJ, STL.

PLY is the canonical interchange format. Per-face semantic labels travel as
``property uchar label`` on the face element; binary PLY stores coordinates
as doubles so geometry round-trips bit-identically. OBJ drops labels with a
warning; STL cannot carry labels at all.
"""

from __future__ import annotations

import struct
import warnings
from pathlib import Path

import numpy as np

from .errors import MeshFormatError, MeshWarning, UnsupportedFeatureError
from .mesh import LabeledMesh

_PLY_TYPES = {
    "char": "i1", "int8": "i1",
    "uchar": "u1", "uint8": "u1",
    "short": "i2", "int16": "i2",
    "ushort": "u2", "uint16": "u2",
    "int": "i4", "int32": "i4",
    "uint": "u4", "uint32": "u4",
    "float": "f4", "float32": "f4",
    "double": "f8", "float64": "f8",
}

FORMATS = ("PLY", "OBJ", "STL")


def _normalize_format(fmt: str | None, path) -> str:
    if fmt is None:
        fmt = Path(path).suffix.lstrip(".")
    fmt = fmt.upper()
    if fmt not in FORMATS:
        raise ValueError(f"unknown mesh format {fmt!r}; expected one of {FORMATS}")
    return fmt


def load_mesh(path, format: str | None = None) -> LabeledMesh:
    fmt = _normalize_format(format, path)
    data = Path(path).read_bytes()
    if fmt == "PLY":
        return _load_ply(data)
    if fmt == "OBJ":
        return _load_obj(data)
    return _load_stl(data)


def save_mesh(mesh: LabeledMesh, path, format: str | None = None, binary: bool = True) -> None:
    fmt = _normalize_format(format, path)
    if fmt == "PLY":
        data = _dump_ply(mesh, binary=binary)
    elif fmt == "OBJ":
        if mesh.face_labels is not None:
            warnings.warn(
                "OBJ cannot carry face labels; labels dropped on save",
                MeshWarning,
                stacklevel=2,
            )
        data = _dump_obj(mesh)
    else:
        if mesh.face_labels is not None:
            raise UnsupportedFeatureError("STL cannot carry face labels")
        data = _dump_stl(mesh)
    Path(path).write_bytes(data)


# ---------------------------------------------------------------- PLY


class _PlyProperty:
    def __init__(self, name, dtype, list_count_dtype=None):
        self.name = name
        self.dtype = dtype
        self.list_count_dtype = list_count_dtype  # None for scalar properties


class _PlyElement:
    def __init__(self, name, count):
        self.name = name
        self.count = count
        self.properties: list[_PlyProperty] = []


def _load_ply(data: bytes) -> LabeledMesh:
    if not data.startswith(b"ply"):
        raise MeshFormatError("missing 'ply' magic", byte_offset=0)
    offset = 0
    lines = []
    while True:
        nl = data.find(b"\n", offset)
        if nl < 0:
            raise MeshFormatError("header not terminated by end_header", byte_offset=offset)
        line = data[offset:nl].strip().decode("ascii", errors="replace")
        lines.append((offset, line))
        offset = nl + 1
        if line == "end_header":
            break

    fmt = None
    elements: list[_PlyElement] = []
    for line_offset, line in lines[1:]:
        if not line or line.startswith("comment") or line == "end_header":
            continue
        parts = line.split()
        if parts[0] == "format":
            if parts[1] not in ("ascii", "binary_little_endian"):
                raise MeshFormatError(f"unsupported PLY format {parts[1]!r}", byte_offset=line_offset)
            fmt = parts[1]
        elif parts[0] == "element":
            try:
                elements.append(_PlyElement(parts[1], int(parts[2])))
            except (IndexError, ValueError):
                raise MeshFormatError("malformed element line", byte_offset=line_offset) from None
        elif parts[0] == "property":
            if not elements:
                raise MeshFormatError("property before any element", byte_offset=line_offset)
            try:
                if parts[1] == "list":
                    prop = _PlyProperty(parts[4], _PLY_TYPES[parts[3]], _PLY_TYPES[parts[2]])
                else:
                    prop = _PlyProperty(parts[2], _PLY_TYPES[parts[1]])
            except (IndexError, KeyError):
                raise MeshFormatError("malformed property line", byte_offset=line_offset) from None
            elements[-1].properties.append(prop)
        else:
            raise MeshFormatError(f"unknown header keyword {parts[0]!r}", byte_offset=line_offset)
    if fmt is None:
        raise MeshFormatError("missing format line", byte_offset=0)

    if fmt == "ascii":
        parsed, _ = _parse_ply_ascii(data, offset, elements)
    else:
        parsed, _ = _parse_ply_binary(data, offset, elements)

    vert = parsed.get("vertex")
    if vert is None:
        raise MeshFormatError("PLY has no vertex element", byte_offset=0)
    for axis in ("x", "y", "z"):
        if axis not in vert:
            raise MeshFormatError(f"vertex element missing property {axis!r}", byte_offset=0)
    vertices = np.column_stack([vert["x"], vert["y"], vert["z"]]) if len(vert["x"]) else np.zeros((0, 3))
    normals = None
    if all(k in vert for k in ("nx", "ny", "nz")) and len(vert["x"]):
        normals = np.column_stack([vert["nx"], vert["ny"], vert["nz"]])

    face = parsed.get("face", {})
    indices = face.get("vertex_indices", face.get("vertex_index"))
    if indices is None or len(indices) == 0:
        faces = np.zeros((0, 3), dtype=np.int64)
        labels = None
    else:
        if isinstance(indices, np.ndarray):
            triangles = indices.shape[1] == 3
        else:  # ascii rows may differ in length
            triangles = all(len(row) == 3 for row in indices)
        if not triangles:
            raise MeshFormatError("only triangle faces are supported")
        faces = np.asarray(indices, dtype=np.int64)
        labels = face.get("label")
        if labels is not None:
            labels = np.asarray(labels, dtype=np.int64)
    return LabeledMesh(vertices, faces, normals, labels)


def _parse_ply_ascii(data: bytes, offset: int, elements):
    try:
        text = data[offset:].decode("ascii")
    except UnicodeDecodeError as exc:
        raise MeshFormatError("non-ascii body in ascii PLY", byte_offset=offset + exc.start) from None
    tokens = text.split()
    pos = 0
    out = {}
    for elem in elements:
        cols = {p.name: [] for p in elem.properties}
        for _ in range(elem.count):
            for prop in elem.properties:
                try:
                    if prop.list_count_dtype is not None:
                        n = int(tokens[pos]); pos += 1
                        vals = [float(tokens[pos + i]) for i in range(n)]
                        pos += n
                        cols[prop.name].append([int(v) for v in vals])
                    else:
                        cols[prop.name].append(float(tokens[pos])); pos += 1
                except (IndexError, ValueError):
                    raise MeshFormatError(
                        f"truncated or malformed ascii data in element {elem.name!r}",
                        byte_offset=offset,
                    ) from None
        out[elem.name] = {k: (v if any(isinstance(e, list) for e in v) else np.asarray(v)) for k, v in cols.items()}
    return out, pos


def _parse_ply_binary(data: bytes, offset: int, elements):
    """Read each element in one ``np.frombuffer`` call.

    Every list property takes its length from the first record and every
    record must repeat it, so an element is an array of fixed-size records.
    """
    out = {}
    pos = offset
    for elem in elements:
        fields = []
        lists = []  # (list name, its length in the first record)
        head = pos
        for prop in elem.properties:
            if prop.list_count_dtype is None:
                fields.append((prop.name, "<" + prop.dtype))
                head += np.dtype(prop.dtype).itemsize
                continue
            cdt = np.dtype("<" + prop.list_count_dtype)
            n = 0
            if elem.count and head + cdt.itemsize <= len(data):
                n = int(np.frombuffer(data, cdt, count=1, offset=head)[0])
            fields += [(prop.name + " count", cdt), (prop.name, "<" + prop.dtype, (n,))]
            lists.append((prop.name, n))
            head += cdt.itemsize + np.dtype(prop.dtype).itemsize * n
        if elem.count and head > len(data):
            raise MeshFormatError(
                f"truncated binary data in element {elem.name!r}", byte_offset=len(data)
            )
        try:
            dtype = np.dtype(fields)
        except ValueError:  # a repeated property name or a negative list length
            raise MeshFormatError(
                f"malformed properties in element {elem.name!r}", byte_offset=pos
            ) from None
        size = elem.count * dtype.itemsize
        body = data[pos:pos + size]
        # a short body is padded to whole records, so that a list length that
        # changes mid-element is reported rather than the truncation it causes
        whole = elem.count if len(body) == size else len(body) // dtype.itemsize + 1
        rec = np.frombuffer(body.ljust(whole * dtype.itemsize, b"\0"), dtype, count=whole)
        for name, n in lists:
            field = name + " count"
            bad = np.nonzero(rec[field] != n)[0]
            if not len(bad):
                continue
            at = pos + int(bad[0]) * dtype.itemsize + dtype.fields[field][1]
            if at + dtype[field].itemsize <= len(data):  # read from the file, not padding
                raise MeshFormatError(
                    f"list {name!r} of element {elem.name!r} changes length from {n} "
                    f"to {rec[field][bad[0]]} in record {bad[0]}",
                    byte_offset=at,
                )
        if len(body) < size:
            raise MeshFormatError(
                f"truncated binary data in element {elem.name!r}", byte_offset=len(data)
            )
        out[elem.name] = {
            p.name: rec[p.name].astype(np.float64 if p.list_count_dtype is None else np.int64)
            for p in elem.properties
        }
        pos += size
    return out, pos


def _dump_ply(mesh: LabeledMesh, binary: bool) -> bytes:
    has_normals = mesh.vertex_normals is not None
    has_labels = mesh.face_labels is not None
    if has_labels and (mesh.face_labels.min(initial=0) < 0 or mesh.face_labels.max(initial=0) > 255):
        raise UnsupportedFeatureError("PLY face labels must fit uint8")
    header = ["ply", f"format {'binary_little_endian' if binary else 'ascii'} 1.0"]
    header.append(f"element vertex {mesh.n_vertices}")
    for name in ("x", "y", "z"):
        header.append(f"property double {name}")
    if has_normals:
        for name in ("nx", "ny", "nz"):
            header.append(f"property double {name}")
    header.append(f"element face {mesh.n_faces}")
    header.append("property list uchar int vertex_indices")
    if has_labels:
        header.append("property uchar label")
    header.append("end_header")
    head = ("\n".join(header) + "\n").encode("ascii")

    if binary:
        chunks = [head]
        vcols = [mesh.vertices]
        if has_normals:
            vcols.append(mesh.vertex_normals)
        chunks.append(np.hstack(vcols).astype("<f8").tobytes())
        if mesh.n_faces:
            if has_labels:
                fdt = np.dtype([("n", "u1"), ("idx", "<i4", (3,)), ("label", "u1")])
            else:
                fdt = np.dtype([("n", "u1"), ("idx", "<i4", (3,))])
            rec = np.empty(mesh.n_faces, dtype=fdt)
            rec["n"] = 3
            rec["idx"] = mesh.faces.astype("<i4")
            if has_labels:
                rec["label"] = mesh.face_labels.astype("u1")
            chunks.append(rec.tobytes())
        return b"".join(chunks)

    lines = []
    for i in range(mesh.n_vertices):
        row = [repr(float(v)) for v in mesh.vertices[i]]
        if has_normals:
            row += [repr(float(v)) for v in mesh.vertex_normals[i]]
        lines.append(" ".join(row))
    for i in range(mesh.n_faces):
        row = "3 " + " ".join(str(int(v)) for v in mesh.faces[i])
        if has_labels:
            row += f" {int(mesh.face_labels[i])}"
        lines.append(row)
    return head + ("\n".join(lines) + ("\n" if lines else "")).encode("ascii")


# ---------------------------------------------------------------- OBJ


def _load_obj(data: bytes) -> LabeledMesh:
    vertices, normals, faces = [], [], []
    offset = 0
    for raw in data.split(b"\n"):
        line = raw.strip()
        try:
            text = line.decode("ascii")
        except UnicodeDecodeError as exc:
            raise MeshFormatError("non-ascii byte in OBJ", byte_offset=offset + exc.start) from None
        parts = text.split()
        if parts:
            try:
                if parts[0] == "v":
                    vertices.append([float(parts[1]), float(parts[2]), float(parts[3])])
                elif parts[0] == "vn":
                    normals.append([float(parts[1]), float(parts[2]), float(parts[3])])
                elif parts[0] == "f":
                    if len(parts) != 4:
                        raise MeshFormatError("only triangle faces are supported", byte_offset=offset)
                    faces.append([int(p.split("/")[0]) - 1 for p in parts[1:]])
            except (IndexError, ValueError):
                raise MeshFormatError(f"malformed OBJ line {text!r}", byte_offset=offset) from None
        offset += len(raw) + 1
    v = np.asarray(vertices, dtype=np.float64).reshape(-1, 3)
    n = np.asarray(normals, dtype=np.float64).reshape(-1, 3) if normals else None
    if n is not None and len(n) != len(v):
        n = None  # normals not 1:1 with vertices; drop them
    f = np.asarray(faces, dtype=np.int64).reshape(-1, 3)
    return LabeledMesh(v, f, n, None)


def _dump_obj(mesh: LabeledMesh) -> bytes:
    lines = []
    for v in mesh.vertices:
        lines.append(f"v {float(v[0])!r} {float(v[1])!r} {float(v[2])!r}")
    has_normals = mesh.vertex_normals is not None
    if has_normals:
        for n in mesh.vertex_normals:
            lines.append(f"vn {float(n[0])!r} {float(n[1])!r} {float(n[2])!r}")
    for f in mesh.faces:
        a, b, c = (int(i) + 1 for i in f)
        if has_normals:
            lines.append(f"f {a}//{a} {b}//{b} {c}//{c}")
        else:
            lines.append(f"f {a} {b} {c}")
    return ("\n".join(lines) + ("\n" if lines else "")).encode("ascii")


# ---------------------------------------------------------------- STL (binary)


def _load_stl(data: bytes) -> LabeledMesh:
    if len(data) < 84:
        raise MeshFormatError("binary STL shorter than its 84-byte preamble", byte_offset=len(data))
    if data[:5] == b"solid" and len(data) == 84:
        raise MeshFormatError("ascii STL is not supported", byte_offset=0)
    (count,) = struct.unpack_from("<I", data, 80)
    expected = 84 + count * 50
    if len(data) < expected:
        raise MeshFormatError(
            f"binary STL truncated: {count} triangles declared", byte_offset=len(data)
        )
    if count == 0:
        return LabeledMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64))
    rec = np.frombuffer(
        data[84:expected],
        dtype=np.dtype([("n", "<f4", (3,)), ("v", "<f4", (3, 3)), ("attr", "<u2")]),
    )
    tri = rec["v"].astype(np.float64).reshape(-1, 3)
    vertices, inverse = np.unique(tri, axis=0, return_inverse=True)
    faces = inverse.reshape(-1, 3)
    return LabeledMesh(vertices, faces, None, None)


def _dump_stl(mesh: LabeledMesh) -> bytes:
    header = b"crownfit binary stl".ljust(80, b"\0")
    fn = mesh.face_normals()
    rec = np.empty(
        mesh.n_faces,
        dtype=np.dtype([("n", "<f4", (3,)), ("v", "<f4", (3, 3)), ("attr", "<u2")]),
    )
    if mesh.n_faces:
        rec["n"] = fn.astype("<f4")
        rec["v"] = mesh.vertices[mesh.faces].astype("<f4")
        rec["attr"] = 0
    return header + struct.pack("<I", mesh.n_faces) + rec.tobytes()
