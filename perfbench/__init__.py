"""Closed-loop benchmark of kronspec; run it as ``python3 perfbench/run.py``."""
