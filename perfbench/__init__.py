"""End-to-end benchmark of the engine; see ``run.py``."""
