import numpy as np
import pytest

from hmor import (BehindCameraError, Camera, InvalidInputError, ViewVector,
                  back_project, project, sample_view)
from hmor.geometry import sample_views
from conftest import project_to_plane


class TestCamera:
    def test_validates_focal_lengths(self):
        with pytest.raises(InvalidInputError):
            Camera(0.0, 1000.0, 500.0, 500.0)
        with pytest.raises(InvalidInputError):
            Camera(1000.0, -5.0, 500.0, 500.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["fx", "fy", "cx", "cy"])
    def test_rejects_non_finite_intrinsics(self, field, bad):
        values = {"fx": 1000.0, "fy": 1000.0, "cx": 500.0, "cy": 500.0, field: bad}
        with pytest.raises(InvalidInputError):
            Camera(**values)

    def test_validates_unit_normal(self):
        with pytest.raises(InvalidInputError):
            Camera(1000.0, 1000.0, 500.0, 500.0, normal=np.array([0.0, 0.0, 2.0]))

    def test_default_normal_is_optical_axis(self, camera):
        assert np.array_equal(camera.normal, [0.0, 0.0, 1.0])


class TestBackProject:
    def test_principal_point_ray(self, camera):
        assert np.allclose(back_project(camera, 500.0, 500.0, 2000.0), [0.0, 0.0, 2000.0])

    def test_hand_pinhole_case(self, camera):
        assert np.allclose(back_project(camera, 600.0, 500.0, 5000.0),
                           [500.0, 0.0, 5000.0], atol=1e-12)

    def test_rejects_non_positive_depth(self, camera):
        with pytest.raises(InvalidInputError):
            back_project(camera, 500.0, 500.0, 0.0)
        with pytest.raises(InvalidInputError):
            back_project(camera, 500.0, 500.0, -10.0)

    def test_round_trip_100_random(self, camera):
        rng = np.random.default_rng(0)
        for _ in range(100):
            u, v = rng.uniform(0.0, 1000.0, 2)
            z = rng.uniform(100.0, 10000.0)
            u2, v2 = project(camera, back_project(camera, u, v, z))
            assert abs(u2 - u) < 1e-9 * max(1.0, abs(u))
            assert abs(v2 - v) < 1e-9 * max(1.0, abs(v))


class TestProject:
    def test_axis_points_hit_principal_point(self, camera):
        for z in (1.0, 123.0, 9999.0):
            assert project(camera, [0.0, 0.0, z]) == (camera.cx, camera.cy)

    def test_hand_case(self, camera):
        assert project(camera, [500.0, 0.0, 5000.0]) == (600.0, 500.0)

    def test_behind_camera_rejected(self, camera):
        with pytest.raises(BehindCameraError):
            project(camera, [0.0, 0.0, -1.0])
        with pytest.raises(BehindCameraError):
            project(camera, [1.0, 1.0, 0.0])

    def test_inverse_of_back_project_example(self, camera):
        p = back_project(camera, 600.0, 500.0, 5000.0)
        assert project(camera, p) == (600.0, 500.0)


class TestProjectToPlane:
    def test_axis_case(self):
        assert np.allclose(project_to_plane([1.0, 0.0, 1.0], [0.0, 0.0, 1.0]),
                           [1.0, 0.0, 0.0])

    def test_orthogonal_vector_is_fixed_point(self):
        n = np.array([0.0, 1.0, 0.0])
        v = np.array([3.0, 0.0, -2.0])
        assert np.allclose(project_to_plane(v, n), v)

    def test_hand_case(self):
        assert np.allclose(project_to_plane([2.0, 3.0, 4.0], [0.0, 0.0, 1.0]),
                           [2.0, 3.0, 0.0])

    def test_idempotent_and_linear(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = rng.normal(size=3)
            n /= np.linalg.norm(n)
            u, v = rng.normal(size=3), rng.normal(size=3)
            a, b = rng.normal(size=2)
            once = project_to_plane(u, n)
            assert np.allclose(project_to_plane(once, n), once, atol=1e-12)
            assert np.allclose(project_to_plane(a * u + b * v, n),
                               a * project_to_plane(u, n) + b * project_to_plane(v, n),
                               atol=1e-9)
            assert abs(np.dot(once, n)) < 1e-9

    def test_rejects_non_unit_normal(self):
        with pytest.raises(InvalidInputError):
            project_to_plane([1.0, 0.0, 0.0], [0.0, 0.0, 3.0])


class TestSampleView:
    def test_pole(self):
        for theta in (0.0, 1.0, 3.0):
            assert np.allclose(sample_view(theta=theta, u=1.0).direction, [0.0, 0.0, 1.0])

    def test_equator(self):
        assert np.allclose(sample_view(theta=0.0, u=0.0).direction, [1.0, 0.0, 0.0])

    def test_10k_samples_unit_and_hemisphere(self):
        rng = np.random.default_rng(7)
        for _ in range(10000):
            d = sample_view(rng=rng).direction
            assert abs(np.linalg.norm(d) - 1.0) < 1e-12
            assert d[2] >= 0.0

    def test_invalid_u_rejected(self):
        with pytest.raises(InvalidInputError):
            sample_view(theta=0.0, u=1.5)
        with pytest.raises(InvalidInputError):
            sample_view(theta=0.0, u=-0.1)

    def test_deterministic_given_seed(self):
        a = [sample_view(rng=np.random.default_rng(3)).direction for _ in range(5)]
        b = [sample_view(rng=np.random.default_rng(3)).direction for _ in range(5)]
        # same fresh generator state gives the same first draw
        assert np.array_equal(a[0], b[0])

    def test_requires_rng_or_explicit_values(self):
        with pytest.raises(InvalidInputError):
            sample_view()

    @pytest.mark.parametrize("n", [0, 1, 3, 7, 30])  # 30: one 10-step, 4-view refine run
    @pytest.mark.parametrize("seed", [0, 1, 17, 2024, 910_000])
    def test_batched_draw_is_sequential_draws(self, seed, n):
        one_by_one, batched = np.random.default_rng(seed), np.random.default_rng(seed)
        sequential = [sample_view(rng=one_by_one).direction for _ in range(n)]
        views = sample_views(n, batched)
        assert views.shape == (n, 3) and views.dtype == np.float64
        assert views.tobytes() == np.array(sequential).reshape(n, 3).tobytes()
        # the generator is left where the n calls leave it
        assert batched.random(4).tobytes() == one_by_one.random(4).tobytes()


class TestViewVector:
    def test_validates_unit_length(self):
        with pytest.raises(InvalidInputError):
            ViewVector(np.array([1.0, 1.0, 1.0]))
