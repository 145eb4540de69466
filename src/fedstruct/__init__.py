"""Structural prototype alignment for heterogeneous federated learning.

Modules:
    errors      the exception types of the package
    tensor      dense matrix kernel (validation, SVD, row geometry)
    losses      alignment losses with analytic gradients
    models      heterogeneous MLP zoo with manual backprop
    data        synthetic mixtures and non-IID partitioners
    federation  client/server prototype-exchange protocol
    analysis    effective-dimensionality diagnostics and exports
    config      experiment configuration (JSON)
    runner      config -> shards -> runs, and the run's artifacts
    selftest    the built-in property checks of `fedstruct selftest`
    cli         command-line driver
"""

__version__ = "0.1.0"
