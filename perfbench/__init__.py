"""Benchmark of twirlsim: workloads, closed-loop harness and layer tracing. See README.md."""
