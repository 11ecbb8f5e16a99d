"""Heavy / light / CPU operation classification (paper, Sections III-A, IV-B).

The paper partitions operations three ways:

* **CPU operations** execute on the host because they lack GPU kernels
  (e.g. ``SparseToDense``).
* **Light GPU operations** have negligible compute times — "< 0.5 ms on P2"
  (Section III-A). Together they contribute less than ~7% of training time
  but exhibit high variability, so Ceer covers them with a sample median.
* **Heavy GPU operations** are everything else: the ~20 op types that
  contribute 47-94% of training time and get per-(GPU, op type) regression
  models.

Classification is purely data-driven, from training-set profiles — exactly
as in the paper, where the threshold is applied to measured compute times
on the P2 (K80) reference instance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet

from repro.errors import ModelingError
from repro.profiling.records import ProfileDataset

#: The paper's light-op threshold is "0.5 ms on P2"; our simulated
#: substrate's absolute times are uniformly faster than the authors'
#: testbed, so the equivalent cut sits at 350 us — it falls in the same
#: natural gap of the op-type time distribution and yields the same ~20
#: heavy op types (including ReLU, the paper's Fig. 4 subject).
LIGHT_THRESHOLD_US = 350.0
REFERENCE_GPU = "K80"

HEAVY = "heavy"
LIGHT = "light"
CPU = "cpu"


@dataclass(frozen=True)
class OpClassification:
    """The fitted three-way partition of op types."""

    heavy: FrozenSet[str]
    light: FrozenSet[str]
    cpu: FrozenSet[str]
    threshold_us: float = LIGHT_THRESHOLD_US
    reference_gpu: str = REFERENCE_GPU
    #: Mean compute time on the reference GPU per op type (diagnostics).
    reference_means_us: Dict[str, float] = field(default_factory=dict)

    def kind(self, op_type: str) -> str:
        """Return ``"heavy"``, ``"light"``, or ``"cpu"`` for a known op type.

        Raises :class:`ModelingError` for op types absent from training
        profiles; callers decide the unseen-op policy (Section IV-D).
        """
        if op_type in self.heavy:
            return HEAVY
        if op_type in self.light:
            return LIGHT
        if op_type in self.cpu:
            return CPU
        raise ModelingError(
            f"op type {op_type!r} was not observed in training profiles"
        )

    def knows(self, op_type: str) -> bool:
        return op_type in self.heavy or op_type in self.light or op_type in self.cpu


def classify_operations(
    profiles: ProfileDataset,
    threshold_us: float = LIGHT_THRESHOLD_US,
    reference_gpu: str = REFERENCE_GPU,
) -> OpClassification:
    """Partition every op type seen in ``profiles`` into heavy/light/CPU.

    GPU op types are ranked by their mean compute time on the reference GPU
    (P2's K80 in the paper); types never profiled on the reference GPU fall
    back to their slowest observed GPU — a conservative stand-in.
    """
    if not profiles:
        raise ModelingError("cannot classify operations from an empty profile set")
    cpu_types = frozenset(profiles.cpu_records().op_types())
    gpu_profiles = profiles.gpu_records()
    reference = gpu_profiles.for_gpu(reference_gpu)
    ref_means = reference.mean_us_by_op_type()

    heavy, light = set(), set()
    reference_means: Dict[str, float] = {}
    for op_type, subset in gpu_profiles.group_by_op_type().items():
        mean = ref_means.get(op_type)
        if mean is None:
            by_gpu = [
                subset.for_gpu(g).mean_us_by_op_type()[op_type]
                for g in subset.gpu_keys()
            ]
            mean = max(by_gpu)
        reference_means[op_type] = mean
        (heavy if mean >= threshold_us else light).add(op_type)

    return OpClassification(
        heavy=frozenset(heavy),
        light=frozenset(light),
        cpu=cpu_types,
        threshold_us=threshold_us,
        reference_gpu=reference_gpu,
        reference_means_us=reference_means,
    )
