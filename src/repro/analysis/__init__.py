"""Statistics and text rendering for experiment results.

Import from the submodules: :mod:`~repro.analysis.stats` (box
statistics), :mod:`~repro.analysis.roc` (ROC/AUC arithmetic),
:mod:`~repro.analysis.reporting` (text tables) and
:mod:`~repro.analysis.packets` (capture dissection).
"""
