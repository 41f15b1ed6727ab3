"""The repository's benchmark (see bench/README.md); run ``python3 bench/run.py``."""
