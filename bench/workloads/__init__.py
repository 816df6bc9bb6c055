"""The four benchmark workloads; ``bench/run.py`` loads one by name."""
