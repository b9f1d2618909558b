.PHONY: all build test bench bench-smoke fleet fleet-smoke fuzz \
	fuzz-smoke smp smp-smoke scale scale-smoke snap-demo trace-demo clean

all: build

build:
	dune build

test:
	dune runtest

# Every bench below writes its mode's section ("full" or "smoke") of
# BENCH_<name>.json in the repo root. With --check it first reads the
# same mode's section of the committed file and fails unless each
# deterministic quantity (simulated insns, cycles, counters) equals
# it and each same-process timing ratio is at most 20% below it; a
# missing baseline fails too. Absolute bounds apply with or without
# --check.

# Full host-throughput benchmark: block, per-insn and slow engines,
# traced and untraced, writes BENCH_throughput.json.
bench: build
	dune exec bench/throughput.exe

# Quick harness check (small iteration count) via the dune alias,
# then the full-iteration throughput run gated against the committed
# baseline: insns, cycles and block statistics exact, speedup over
# the slow and per-insn engines at most 20% lower, nginx >= 10
# insns/block and block speedup >= 1.5.
bench-smoke:
	dune build @bench-smoke
	dune exec bench/throughput.exe -- --check BENCH_throughput.json

# Fleet-forking benchmark: 1024 instances off one warm 128-domain
# image, writes BENCH_fleet.json; fails on a fork digest mismatch or
# if forking is not >= 10x cheaper than cold setup.
fleet: build
	dune exec bench/fleet.exe

# CI variant: 64 forks, the same gates, plus dirty pages, store slots
# and churned insns against the committed baseline.
fleet-smoke: build
	dune exec bench/fleet.exe -- --smoke --check BENCH_fleet.json

# Coverage-guided differential fuzzing of the gate/sanitizer/trap
# surface: 6000 cases, corpus under fuzz-corpus/, writes
# BENCH_fuzz.json; fails on any engine divergence.
fuzz: build
	dune exec bench/fuzz.exe

# CI variant: fixed seed, 2000 cases, gated against the committed
# baseline — exits non-zero on any engine divergence or when the
# coverage keys, curve or corpus size differ from the baseline's.
# Deterministic: two consecutive runs produce identical key sets and
# corpora.
fuzz-smoke: build
	dune exec bench/fuzz.exe -- --smoke --check BENCH_fuzz.json

# Multi-core simulation benchmark: MIPS vs core count (1/2/4/8) on
# one host domain per core, plus shootdown ack latency; writes
# BENCH_smp.json. Gates: 2-core sequential ≡ parallel digest,
# shootdown acks <= 2 barriers, and (only on hosts with >= 4 cpus,
# otherwise it prints the cpu count and skips) 4-core aggregate MIPS
# >= 2x 1-core; with --check, insns and barrier counts exact.
smp: build
	dune exec bench/smp.exe -- --check

# CI smoke: 2-core sequential ≡ parallel digest/trace identity and a
# 100-shootdown latency check, no MIPS curve.
smp-smoke: build
	dune exec bench/smp.exe -- --smoke

# Tenant-scale connection churn: 4096 zones in a 13-bit ASID space,
# enough alloc/free cycles to force generation rollover, with the
# per-switch cycle flatness, pgt-id density and zero-allocation
# gates; writes BENCH_scale.json and fails if the top-K / bottom-K
# MIPS ratio fell more than 20% below the committed baseline's, the
# simulated counts differ from it, or the block engine allocates
# more per switch than it.
scale: build
	dune exec bench/scale.exe -- --check BENCH_scale.json

# CI variant: 32/128/512 zones in a 10-bit space — the same gates at
# a fraction of the runtime, against the committed smoke-mode
# baseline.
scale-smoke: build
	dune exec bench/scale.exe -- --smoke --check BENCH_scale.json

# Snapshot/fork/replay walkthrough (lz_snap demo).
snap-demo: build
	dune exec examples/snapshot_fork.exe

# Cycle attribution of a 128-domain gate-switch run (lz_trace demo).
trace-demo: build
	dune exec examples/trace_gate.exe

clean:
	dune clean
