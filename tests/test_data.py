"""Tests for the synthetic dataset, transforms and loaders."""

import numpy as np
import pytest

from repro.data import (
    DataLoader,
    InMemoryDataset,
    PointCloudSample,
    SyntheticModelNet,
    SyntheticModelNetConfig,
    collate,
    generate_shape,
    list_shape_names,
    make_synthetic_modelnet,
    normalize_unit_sphere,
    random_jitter,
    random_rotate_z,
)


class TestShapes:
    def test_forty_classes(self):
        assert len(list_shape_names()) == 40
        assert len(set(list_shape_names())) == 40

    @pytest.mark.parametrize("name", list_shape_names())
    def test_every_shape_generates(self, name, rng):
        pts = generate_shape(name, 64, rng)
        assert pts.shape == (64, 3)
        assert np.all(np.isfinite(pts))

    def test_shapes_are_distinct(self, rng):
        sphere = generate_shape("sphere", 256, rng)
        plane = generate_shape("plane", 256, rng)
        assert abs(np.linalg.norm(sphere, axis=1).std() - np.linalg.norm(plane, axis=1).std()) > 0.01

    def test_unknown_shape(self, rng):
        with pytest.raises(KeyError):
            generate_shape("dragon", 32, rng)

    def test_invalid_num_points(self, rng):
        with pytest.raises(ValueError):
            generate_shape("sphere", 0, rng)

    def test_reproducible(self):
        a = generate_shape("torus", 50, np.random.default_rng(3))
        b = generate_shape("torus", 50, np.random.default_rng(3))
        np.testing.assert_allclose(a, b)


class TestTransforms:
    def test_normalize_unit_sphere(self, rng):
        pts = rng.normal(size=(50, 3)) * 7 + 3
        out = normalize_unit_sphere(pts)
        assert np.linalg.norm(out, axis=1).max() == pytest.approx(1.0)
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-9)

    def test_rotation_preserves_norms_and_z(self, rng):
        pts = rng.normal(size=(30, 3))
        rotated = random_rotate_z(pts, rng)
        np.testing.assert_allclose(np.linalg.norm(rotated, axis=1), np.linalg.norm(pts, axis=1))
        np.testing.assert_allclose(rotated[:, 2], pts[:, 2])

    def test_jitter_bounded(self, rng):
        pts = np.zeros((100, 3))
        out = random_jitter(pts, rng, sigma=0.01, clip=0.02)
        assert np.abs(out).max() <= 0.02 + 1e-12

    def test_jitter_validates_sigma_and_clip(self, rng):
        pts = np.zeros((4, 3))
        with pytest.raises(ValueError):
            random_jitter(pts, rng, sigma=-0.1)
        with pytest.raises(ValueError):
            random_jitter(pts, rng, clip=0.0)
        np.testing.assert_array_equal(random_jitter(pts, rng, sigma=0.0), pts)

    def test_rotation_reproducible_with_seed(self, rng):
        pts = rng.normal(size=(10, 3))
        a = random_rotate_z(pts, np.random.default_rng(5))
        b = random_rotate_z(pts, np.random.default_rng(5))
        np.testing.assert_array_equal(a, b)
        assert not np.allclose(a, random_rotate_z(pts, np.random.default_rng(6)))

    def test_normalize_single_point_cloud(self):
        out = normalize_unit_sphere(np.array([[2.0, -1.0, 4.0]]))
        np.testing.assert_array_equal(out, np.zeros((1, 3)))

    def test_shape_validation(self, rng):
        with pytest.raises(ValueError):
            normalize_unit_sphere(rng.normal(size=(5, 2)))


class TestDatasetContainers:
    def test_sample_validation(self):
        with pytest.raises(ValueError):
            PointCloudSample(points=np.zeros((4, 2)), label=0)

    def test_collate_offsets(self, rng):
        samples = [PointCloudSample(rng.normal(size=(5, 3)), label=i) for i in range(3)]
        batch = collate(samples)
        assert batch.num_points == 15
        assert batch.num_graphs == 3
        np.testing.assert_array_equal(batch.labels, [0, 1, 2])
        np.testing.assert_array_equal(np.bincount(batch.batch), [5, 5, 5])

    def test_collate_empty(self):
        with pytest.raises(ValueError):
            collate([])

    def test_dataset_label_range(self, rng):
        sample = PointCloudSample(rng.normal(size=(4, 3)), label=7)
        with pytest.raises(ValueError):
            InMemoryDataset([sample], num_classes=3)

    def test_loader_batches(self, rng):
        samples = [PointCloudSample(rng.normal(size=(4, 3)), label=i % 2) for i in range(10)]
        dataset = InMemoryDataset(samples, num_classes=2)
        loader = DataLoader(dataset, batch_size=4)
        batches = list(loader)
        assert len(loader) == 3
        assert [b.num_graphs for b in batches] == [4, 4, 2]

    def test_loader_drop_last_and_shuffle(self, rng):
        samples = [PointCloudSample(rng.normal(size=(4, 3)), label=0) for _ in range(10)]
        dataset = InMemoryDataset(samples, num_classes=1)
        loader = DataLoader(dataset, batch_size=4, drop_last=True, shuffle=True, rng=rng)
        assert len(loader) == 2
        assert sum(b.num_graphs for b in loader) == 8


class TestSyntheticModelNet:
    def test_make_dataset_sizes(self):
        train, test = make_synthetic_modelnet(num_classes=6, samples_per_class=3, num_points=16)
        assert len(train) == 18 and len(test) == 18
        assert train.num_classes == 6
        assert sorted(np.unique(train.labels())) == list(range(6))

    def test_points_normalised(self):
        train, _ = make_synthetic_modelnet(num_classes=3, samples_per_class=2, num_points=32)
        for sample in train:
            assert np.linalg.norm(sample.points, axis=1).max() <= 1.0 + 1e-9

    def test_splits_are_disjoint_but_reproducible(self):
        config = SyntheticModelNetConfig(num_classes=3, samples_per_class=2, num_points=16, seed=1)
        gen = SyntheticModelNet(config)
        train_a = gen.generate_split("train")
        train_b = gen.generate_split("train")
        test = gen.generate_split("test")
        np.testing.assert_allclose(train_a[0].points, train_b[0].points)
        assert not np.allclose(train_a[0].points, test[0].points)

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            SyntheticModelNetConfig(num_classes=0)
        with pytest.raises(ValueError):
            SyntheticModelNetConfig(num_classes=50)
        with pytest.raises(ValueError):
            SyntheticModelNet(SyntheticModelNetConfig()).generate_split("validation")
