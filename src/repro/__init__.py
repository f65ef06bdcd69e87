"""FeBiM: FeFET in-memory Bayesian inference engine (DAC 2024) — reproduction.

A behavioural, laptop-scale reimplementation of Li et al., "FeBiM:
Efficient and Compact Bayesian Inference Engine Empowered with
Ferroelectric In-Memory Computing" (DAC 2024, arXiv:2410.19356), covering
the quantisation/mapping scheme, the multi-level FeFET crossbar, the WTA
sensing path, the circuit-level delay/energy/density models and every
figure/table of the paper's evaluation.  See DESIGN.md for the system
inventory and EXPERIMENTS.md for paper-vs-measured results.

Quickstart
----------
>>> from repro import FeBiMPipeline, load_iris, train_test_split
>>> data = load_iris()
>>> X_tr, X_te, y_tr, y_te = train_test_split(data.data, data.target, seed=0)
>>> pipe = FeBiMPipeline(q_f=4, q_l=2, seed=0).fit(X_tr, y_tr)
>>> acc = pipe.score(X_te, y_te, mode="hardware")
"""

from repro.backends import (
    ArrayBackend,
    Capability,
    CapabilityError,
    backend_names,
    create as create_backend,
    register_backend,
)
from repro.bayes import (
    BayesianNetwork,
    CategoricalNaiveBayes,
    DiscreteNode,
    FeatureDiscretizer,
    GaussianNaiveBayes,
    naive_bayes_network,
)
from repro.core import (
    FeBiMEngine,
    FeBiMPipeline,
    ProbabilityMapper,
    QuantizedBayesianModel,
    UniformQuantizer,
    quantize_model,
    run_epochs,
)
from repro.crossbar import (
    BayesianArrayLayout,
    CircuitParameters,
    DelayModel,
    EnergyModel,
    FeFETCrossbar,
    SensingModule,
    WinnerTakeAll,
    wta_transient,
)
from repro.crossbar.tiling import TiledFeBiM
from repro.datasets import (
    Dataset,
    load_cancer,
    load_dataset,
    load_iris,
    load_wine,
    make_gaussian_blobs,
    train_test_split,
)
from repro.devices import (
    FeFET,
    FerroelectricLayer,
    IdVgCharacteristic,
    MultiLevelCellSpec,
    PulseProgrammer,
    VariationModel,
)
from repro.reliability import (
    AgeClock,
    FaultInjector,
    FaultSpec,
    WearState,
    run_campaign,
)
from repro.serving import (
    BatchPolicy,
    FeBiMServer,
    MicroBatchScheduler,
    ModelRegistry,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # backends
    "ArrayBackend",
    "Capability",
    "CapabilityError",
    "backend_names",
    "create_backend",
    "register_backend",
    # bayes
    "BayesianNetwork",
    "CategoricalNaiveBayes",
    "DiscreteNode",
    "FeatureDiscretizer",
    "GaussianNaiveBayes",
    "naive_bayes_network",
    # core
    "FeBiMEngine",
    "FeBiMPipeline",
    "ProbabilityMapper",
    "QuantizedBayesianModel",
    "UniformQuantizer",
    "quantize_model",
    "run_epochs",
    # crossbar
    "BayesianArrayLayout",
    "CircuitParameters",
    "DelayModel",
    "EnergyModel",
    "FeFETCrossbar",
    "SensingModule",
    "TiledFeBiM",
    "WinnerTakeAll",
    "wta_transient",
    # datasets
    "Dataset",
    "load_cancer",
    "load_dataset",
    "load_iris",
    "load_wine",
    "make_gaussian_blobs",
    "train_test_split",
    # devices
    "FeFET",
    "FerroelectricLayer",
    "IdVgCharacteristic",
    "MultiLevelCellSpec",
    "PulseProgrammer",
    "VariationModel",
    # reliability
    "AgeClock",
    "FaultInjector",
    "FaultSpec",
    "WearState",
    "run_campaign",
    # serving
    "BatchPolicy",
    "FeBiMServer",
    "MicroBatchScheduler",
    "ModelRegistry",
]
