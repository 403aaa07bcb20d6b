import occlm  # noqa: F401  (first: pins OPENBLAS_NUM_THREADS before numpy loads)
