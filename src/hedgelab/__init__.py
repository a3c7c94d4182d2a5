"""Desk-scale deep-hedging laboratory.

Simulate underlying paths (agent-based double-auction market, GBM,
Heston QE-M), train a small MLP hedging policy by minimizing a risk
measure of terminal PL, price options by indifference, tune simulator
and training knobs, and check simulator output against stylized facts.
Each of those lives in its own module, imported by name (``from
hedgelab.neuralnet import train``), so importing one loads only what it
needs.
"""

__version__ = "0.1.0"
