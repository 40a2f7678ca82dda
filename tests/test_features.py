import warnings

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.spatial import cKDTree

from crownfit.errors import MeshWarning
from crownfit.features import FPFH_BINS, compute_fpfh, compute_point_features
from crownfit.mesh import PointCloud, RigidTransform, estimate_vertex_normals, voxel_downsample
from crownfit.synth import ArchSpec, generate_arch


def random_cloud(n, seed, scale=3.0):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-scale, scale, size=(n, 3))
    normals = rng.normal(size=(n, 3))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    return PointCloud(pts, normals)


class TestPointFeatures:
    def test_point_at_centroid_has_zero_polar(self):
        cloud = PointCloud([[1, 1, 0], [-1, -1, 0], [0, 0, 0]],
                           normals=[[0, 0, 1]] * 3)
        f = compute_point_features(cloud)
        assert f.radius[2] == 0.0
        assert f.azimuth[2] == 0.0

    def test_hand_trigonometry(self):
        # centroid at origin by symmetry; the first point sits at (3, 4, 0)
        cloud = PointCloud([[3, 4, 0], [-3, -4, 0]], normals=[[0, 0, 1]] * 2)
        f = compute_point_features(cloud)
        assert np.isclose(f.radius[0], 5.0)
        assert np.isclose(f.azimuth[0], np.arctan2(4, 3))
        assert np.isclose(f.azimuth[0], 0.9272952180016122)

    def test_rotation_about_z_shifts_phi_fixes_r(self, rng):
        cloud = random_cloud(80, 5)
        theta = 0.8
        rot = RigidTransform.from_axis_angle((0, 0, 1), theta)
        f0 = compute_point_features(cloud)
        f1 = compute_point_features(cloud.transformed(rot))
        assert np.allclose(f1.radius, f0.radius, atol=1e-9)
        dphi = np.angle(np.exp(1j * (f1.azimuth - f0.azimuth - theta)))
        assert np.abs(dphi).max() < 1e-9

    def test_unit_scale_variant(self):
        cloud = PointCloud([[3, 4, 0], [-3, -4, 0]], normals=[[0, 0, 1]] * 2)
        f = compute_point_features(cloud, unit_scale=True)
        assert np.isclose(f.radius.max(), 1.0)
        assert np.isclose(f.azimuth[0], np.arctan2(4, 3))

    def test_missing_normals_rejected(self):
        with pytest.raises(ValueError, match="normals"):
            compute_point_features(PointCloud([[0, 0, 0]]))


def brute_force_fpfh(points, normals, radius):
    """Independent double-loop FPFH reference (Rusu 2009, 11 bins/feature)."""
    n = len(points)
    spfh = np.zeros((n, 3 * FPFH_BINS))
    neighbor_sets = []
    for i in range(n):
        nb = [j for j in range(n)
              if j != i and np.linalg.norm(points[j] - points[i]) <= radius]
        neighbor_sets.append(nb)
        count = 0
        for j in nb:
            p1, n1, p2, n2 = points[i], normals[i], points[j], normals[j]
            d = p2 - p1
            dist = np.linalg.norm(d)
            if dist == 0:
                continue
            a1 = np.dot(n1, d) / dist
            a2 = np.dot(n2, d) / dist
            if np.arccos(min(1, abs(a1))) > np.arccos(min(1, abs(a2))):
                p1, n1, p2, n2 = p2, n2, p1, n1
                d = -d
                f3 = a2
            else:
                f3 = a1
            v = np.cross(d, n1)
            vn = np.linalg.norm(v)
            if vn == 0:
                continue
            v = v / vn
            w = np.cross(n1, v)
            f2 = np.dot(v, n2)
            f1 = np.arctan2(np.dot(w, n2), np.dot(n1, n2))
            b1 = min(FPFH_BINS - 1, max(0, int(np.floor(FPFH_BINS * (f1 + np.pi) / (2 * np.pi)))))
            b2 = min(FPFH_BINS - 1, max(0, int(np.floor(FPFH_BINS * (f2 + 1) / 2))))
            b3 = min(FPFH_BINS - 1, max(0, int(np.floor(FPFH_BINS * (f3 + 1) / 2))))
            spfh[i, b1] += 1
            spfh[i, FPFH_BINS + b2] += 1
            spfh[i, 2 * FPFH_BINS + b3] += 1
            count += 1
        if count:
            spfh[i] /= count
    fpfh = spfh.copy()
    for i in range(n):
        nb = neighbor_sets[i]
        if not nb:
            fpfh[i] = 0.0
            continue
        acc = np.zeros(3 * FPFH_BINS)
        for j in nb:
            w = np.linalg.norm(points[j] - points[i])
            if w > 0:
                acc += spfh[j] / w
        fpfh[i] += acc / len(nb)
    for i in range(n):
        for b in range(3):
            block = fpfh[i, b * FPFH_BINS:(b + 1) * FPFH_BINS]
            s = block.sum()
            if s > 0:
                fpfh[i, b * FPFH_BINS:(b + 1) * FPFH_BINS] = block / s * 100.0
    return fpfh


def directed_pair_fpfh(points, normals, radius):
    """Reference FPFH over every directed pair: pairs sorted by (source,
    distance, neighbour) with a lexsort and the Darboux angles computed for
    both directions, in the same arithmetic, so results must match bit for bit."""
    n = len(points)
    pairs = cKDTree(points).query_pairs(radius, output_type="ndarray")
    src = np.concatenate([pairs[:, 0], pairs[:, 1]])
    dst = np.concatenate([pairs[:, 1], pairs[:, 0]])
    dist = np.linalg.norm(points[dst] - points[src], axis=1)
    order = np.lexsort((dst, dist, src))
    src, dst = src[order], dst[order]

    p, nn, q, m = points[src], normals[src], points[dst], normals[dst]
    d = q - p
    dist = np.linalg.norm(d, axis=1)
    ok = dist > 0
    a1 = np.einsum("ij,ij->i", nn, d)
    a2 = np.einsum("ij,ij->i", m, d)
    with np.errstate(invalid="ignore", divide="ignore"):
        a1 = np.where(ok, a1 / dist, 0.0)
        a2 = np.where(ok, a2 / dist, 0.0)
    swap = np.abs(a1) < np.abs(a2)
    ns = np.where(swap[:, None], m, nn)
    nt = np.where(swap[:, None], nn, m)
    dd = np.where(swap[:, None], -d, d)
    f3 = np.where(swap, a2, a1)
    v = np.cross(dd, ns)
    vn = np.linalg.norm(v, axis=1)
    ok &= vn > 0
    v = np.where(ok[:, None], v / np.where(vn[:, None] == 0, 1.0, vn[:, None]), 0.0)
    w = np.cross(ns, v)
    f2 = np.einsum("ij,ij->i", v, nt)
    f1 = np.arctan2(np.einsum("ij,ij->i", w, nt), np.einsum("ij,ij->i", ns, nt))

    bins = [np.clip(np.floor(FPFH_BINS * (f1[ok] + np.pi) / (2 * np.pi)), 0, FPFH_BINS - 1),
            np.clip(np.floor(FPFH_BINS * (f2[ok] + 1.0) / 2.0), 0, FPFH_BINS - 1),
            np.clip(np.floor(FPFH_BINS * (f3[ok] + 1.0) / 2.0), 0, FPFH_BINS - 1)]
    cells = np.column_stack([b.astype(np.int64) + k * FPFH_BINS for k, b in enumerate(bins)])
    cells += 3 * FPFH_BINS * src[ok][:, None]
    spfh = np.bincount(cells.ravel(), minlength=3 * FPFH_BINS * n)
    spfh = spfh.reshape(n, 3 * FPFH_BINS).astype(np.float64)
    pair_counts = np.bincount(src[ok], minlength=n)
    nonzero = pair_counts > 0
    spfh[nonzero] /= pair_counts[nonzero, None]

    wt = np.zeros_like(dist)
    wt[dist > 0] = 1.0 / dist[dist > 0]
    k_counts = np.bincount(src, minlength=n)
    indptr = np.concatenate([[0], np.cumsum(k_counts)])
    acc = csr_matrix((wt, dst, indptr), shape=(n, n)) @ spfh
    fpfh = spfh + acc / np.maximum(k_counts, 1)[:, None]
    fpfh[~nonzero] = 0.0
    for b in range(3):
        block = fpfh[:, b * FPFH_BINS:(b + 1) * FPFH_BINS]
        sums = block.sum(axis=1)
        block[sums > 0] = block[sums > 0] / sums[sums > 0, None] * 100.0
    return fpfh


def arch_cloud():
    mesh, _ = generate_arch(ArchSpec.standard("Lower", "full", prepared=(36,), seed=4,
                                              jitter_sigma=0.3))
    return voxel_downsample(estimate_vertex_normals(mesh).to_point_cloud(), 0.8)


def coincident_and_isolated_cloud():
    cloud = random_cloud(60, 12)
    pts = cloud.points.copy()
    pts[[3, 4]] = pts[2]          # three coincident points
    pts[59] = [40.0, 40.0, 40.0]  # isolated
    return PointCloud(pts, cloud.normals)


def coplanar_grid_cloud(tilt=0.0):
    """6x6 grid in z = 0 with normals (+-sin(tilt), 0, cos(tilt)), the sign
    alternating like a checkerboard. Every pair has |a1| == |a2| exactly, so
    neither direction of a pair is the mirror of the other."""
    grid = np.array([[x, y, 0.0] for x in range(6) for y in range(6)])
    sign = np.where((grid[:, 0] + grid[:, 1]) % 2 == 0, 1.0, -1.0)
    normals = np.column_stack([sign * np.sin(tilt), np.zeros(36), np.full(36, np.cos(tilt))])
    return PointCloud(grid, normals)


ORACLE_CLOUDS = {
    "random": (lambda: random_cloud(300, 21), 2.5),
    "coincident_and_isolated": (coincident_and_isolated_cloud, 2.5),
    "coplanar_grid": (coplanar_grid_cloud, 2.5),
    "coplanar_grid_tilted_normals": (lambda: coplanar_grid_cloud(0.4), 2.5),
    "arch": (arch_cloud, 5.6),
}


class TestFpfh:
    def test_radius_from_voxel_factor(self):
        from crownfit.registration import RegistrationParams
        assert np.isclose(RegistrationParams(voxel=0.8).fpfh_radius, 5.6)

    def test_matches_brute_force_reference(self):
        dup = random_cloud(50, 12)
        pts = dup.points.copy()
        pts[[3, 4]] = pts[2]         # three coincident points
        pts[49] = [40.0, 40.0, 40.0]  # isolated
        for cloud in (random_cloud(50, 11), PointCloud(pts, dup.normals)):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", MeshWarning)
                got = compute_fpfh(cloud, 2.5).histograms
            want = brute_force_fpfh(cloud.points, cloud.normals, 2.5)
            assert np.abs(got - want).max() < 1e-6

    @pytest.mark.parametrize("name", list(ORACLE_CLOUDS))
    def test_bitwise_equal_to_directed_pair_oracle(self, name):
        make, radius = ORACLE_CLOUDS[name]
        cloud = make()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", MeshWarning)
            got = compute_fpfh(cloud, radius).histograms
        want = directed_pair_fpfh(cloud.points, cloud.normals, radius)
        assert got.tobytes() == want.tobytes()

    def test_sub_histograms_sum_to_100(self):
        cloud = random_cloud(60, 3)
        h = compute_fpfh(cloud, 2.5).histograms
        for b in range(3):
            sums = h[:, b * FPFH_BINS:(b + 1) * FPFH_BINS].sum(axis=1)
            assert np.abs(sums[sums > 0] - 100.0).max() < 1e-6

    def test_rigid_invariance(self, rng):
        cloud = random_cloud(70, 9)
        h0 = compute_fpfh(cloud, 2.5).histograms
        for seed in range(3):
            r = np.random.default_rng(seed)
            t = RigidTransform.from_axis_angle(r.normal(size=3), r.uniform(0.2, 2.8),
                                               r.uniform(-10, 10, size=3))
            h1 = compute_fpfh(cloud.transformed(t), 2.5).histograms
            assert np.abs(h1 - h0).max() < 1e-5

    def test_coplanar_identical_normals_concentrate(self):
        pts = np.array([[x, y, 0.0] for x in range(5) for y in range(5)], dtype=float)
        cloud = PointCloud(pts, normals=np.tile([0.0, 0, 1], (25, 1)))
        h = compute_fpfh(cloud, 3.0).histograms
        # all pair angles identical: exactly one occupied bin per block
        for b in range(3):
            block = h[:, b * FPFH_BINS:(b + 1) * FPFH_BINS]
            assert np.all((block > 0).sum(axis=1) == 1)
            assert np.allclose(block.max(axis=1), 100.0)

    def test_isolated_point_zero_histogram_warns(self):
        pts = np.array([[0, 0, 0], [0.1, 0, 0], [50, 50, 50]])
        normals = np.tile([0.0, 0, 1], (3, 1))
        with pytest.warns(MeshWarning, match="no FPFH neighbors"):
            h = compute_fpfh(PointCloud(pts, normals), 1.0).histograms
        assert np.all(h[2] == 0)

    def test_bad_arguments(self):
        cloud = random_cloud(10, 0)
        with pytest.raises(ValueError):
            compute_fpfh(cloud, 0.0)
        with pytest.raises(ValueError):
            compute_fpfh(PointCloud(cloud.points), 1.0)
