"""Desk-scale transformer encoder lab for feed-forward layer tuning.

Implements hidden-unit expansion of feed-forward sublayers over a frozen
backbone, prompt tuning baselines (input-level and per-layer key/value
prefixes), attention-side expansion, full fine-tuning, and the verification,
training, and persistence machinery around them.

The API is the seven modules, each the one home of the names it defines:
``fltune.tensor``, ``fltune.encoder``, ``fltune.adapters``,
``fltune.training``, ``fltune.data``, ``fltune.checkpoint`` and
``fltune.cli``. The package itself binds no other public name.
"""

__version__ = "0.1.0"
