"""Learning-rate-automating optimizers built on binary forward exploration,
with fixed-rate baselines and a deterministic benchmark harness.
"""
__version__ = "0.1.0"
