"""Test helpers: small models and synthetic classification tasks."""

from __future__ import annotations

import numpy as np

from repro.nn import (
    Adam,
    Conv2d,
    Dense,
    Flatten,
    MaxPool2d,
    ProbedSequential,
    ReLU,
    Sequential,
    Softmax,
    Trainer,
)

IMAGE_SIZE = 12
NUM_CLASSES = 3


def make_tiny_model(seed: int = 7) -> ProbedSequential:
    """A 3-hidden-stage probed CNN over (1, 12, 12) inputs, 3 classes."""
    return ProbedSequential(
        [
            ("conv1", Sequential(Conv2d(1, 4, kernel=3, rng=seed), ReLU())),
            (
                "conv2",
                Sequential(Conv2d(4, 4, kernel=3, rng=seed + 1), ReLU(), MaxPool2d(2)),
            ),
            ("fc1", Sequential(Flatten(), Dense(4 * 4 * 4, 16, rng=seed + 2), ReLU())),
            ("softmax", Sequential(Dense(16, NUM_CLASSES, rng=seed + 3), Softmax())),
        ]
    )


def easy_image_task(
    count: int, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """A trivially separable 3-class image task on (1, 12, 12) images.

    Class 0: bright top half; class 1: bright bottom half; class 2: bright
    vertical stripe. Mild noise keeps it non-degenerate.
    """
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, NUM_CLASSES, size=count)
    images = rng.uniform(0.0, 0.15, size=(count, 1, IMAGE_SIZE, IMAGE_SIZE))
    for i, label in enumerate(labels):
        if label == 0:
            images[i, 0, : IMAGE_SIZE // 2, :] += 0.7
        elif label == 1:
            images[i, 0, IMAGE_SIZE // 2 :, :] += 0.7
        else:
            images[i, 0, :, IMAGE_SIZE // 3 : 2 * IMAGE_SIZE // 3] += 0.7
    return np.clip(images, 0.0, 1.0), labels.astype(np.int64)


def train_tiny_model(seed: int = 7):
    """Train the tiny model to high accuracy on the easy task.

    Returns ``(model, train_images, train_labels, test_images, test_labels)``.
    """
    model = make_tiny_model(seed)
    train_x, train_y = easy_image_task(300, seed=seed)
    test_x, test_y = easy_image_task(120, seed=seed + 1)
    trainer = Trainer(model, Adam(model.parameters(), lr=3e-3), batch_size=32, rng=seed)
    trainer.fit(train_x, train_y, epochs=6)
    return model, train_x, train_y, test_x, test_y


class StreamedModel:
    """A stand-in model: its forward yields fixed probabilities and
    representations, chunk by chunk, like ``iter_hidden_representations``."""

    def __init__(self, probabilities, reps):
        self.probabilities = probabilities
        self.reps = reps
        self.probe_names = [f"layer{i}" for i in range(len(reps))]

    def iter_hidden_representations(self, images, batch_size=256):
        for start in range(0, len(images), batch_size):
            stop = min(start + batch_size, len(images))
            yield start, self.probabilities[start:stop], [
                rep[start:stop] for rep in self.reps
            ]


def misclassifying_model(labels, dims, seed=0, miss=0.2, classes=3):
    """A stand-in whose predictions miss about ``miss`` of the rows,
    scattered through the draw; returns ``(model, keep)``."""
    rng = np.random.default_rng(seed)
    reps = [
        rng.normal(loc=labels[:, None] * 1.5, size=(len(labels), dim)).astype(np.float32)
        for dim in dims
    ]
    predicted = labels.copy()
    wrong = rng.random(len(labels)) < miss
    predicted[wrong] = (labels[wrong] + 1) % classes
    probabilities = np.eye(classes, dtype=np.float32)[predicted]
    return StreamedModel(probabilities, reps), ~wrong
