"""Library of the perfbench benchmark: workloads, measurement loop,
tracing and metrics (see perfbench/README.md)."""
