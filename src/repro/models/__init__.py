"""Model zoo: the 12 CNN architectures of the paper's empirical study."""

from repro.models.alexnet import build_alexnet
from repro.models.inception_resnet import build_inception_resnet_v2
from repro.models.inception_v1 import build_inception_v1
from repro.models.inception_v3 import build_inception_v3
from repro.models.inception_v4 import build_inception_v4
from repro.models.resnet import RESNET_STAGES, build_resnet
from repro.models.vgg import VGG_CONFIGS, build_vgg
from repro.models.zoo import (
    MODEL_BUILDERS,
    TEST_MODELS,
    TRAIN_MODELS,
    build_model,
    model_names,
)

__all__ = [
    "build_model",
    "model_names",
    "MODEL_BUILDERS",
    "TRAIN_MODELS",
    "TEST_MODELS",
    "build_alexnet",
    "build_vgg",
    "build_resnet",
    "build_inception_v1",
    "build_inception_v3",
    "build_inception_v4",
    "build_inception_resnet_v2",
    "VGG_CONFIGS",
    "RESNET_STAGES",
]
