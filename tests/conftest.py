import numpy as np
import pytest

from crownfit.mesh import estimate_vertex_normals, voxel_downsample
from crownfit.synth import ArchSpec, generate_arch, partial_spec
from helpers import at_resolution


@pytest.fixture(scope="session")
def lower_arch():
    """Standard full lower arch with ground truth (session-cached, immutable)."""
    return generate_arch(ArchSpec.standard("Lower", "full"))


@pytest.fixture(scope="session")
def upper_arch():
    return generate_arch(ArchSpec.standard("Upper", "full"))


@pytest.fixture(scope="session")
def prepared_lower_arch():
    """Lower arch with tooth 36 prepared (class 17)."""
    return generate_arch(ArchSpec.standard("Lower", "full", prepared=(36,)))


@pytest.fixture(scope="session")
def left_partial():
    return generate_arch(partial_spec("Lower", "left"))


@pytest.fixture(scope="session")
def arch_2x_cloud():
    """Registration's downsampled cloud of a lower arch meshed at twice the
    standard resolution (about 30k faces and 5k points), the size at which
    FPFH sees about 550k neighbour pairs."""
    mesh, _ = generate_arch(at_resolution(
        ArchSpec.standard("Lower", "full", prepared=(36,), seed=4, jitter_sigma=0.3), 2))
    return voxel_downsample(estimate_vertex_normals(mesh).to_point_cloud(), 0.8)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
