GO ?= go

.PHONY: build test race vet staticcheck fmt-check bench bench-serving bench-kernels smoke-kernels fuzz-smoke trace smoke-evtop smoke-multimodel smoke-replay smoke-trace check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# staticcheck is optional locally (it is not vendored); CI installs and runs
# it. Skips with a notice when the binary is absent.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; fi

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

race:
	$(GO) test -race ./...

bench:
	$(GO) test -run xxx -bench . -benchtime 1s .

bench-serving:
	$(GO) test -run xxx -bench 'BenchmarkConcurrentQuery|BenchmarkMutexSerializedQuery|BenchmarkCachedQuery|BenchmarkSingleflightStorm' -benchtime 2s -cpu 4 .

# Per-primitive kernel timings (blocked vs scalar, median-of-5 ns/entry at
# small/medium/large cardinalities), recorded in BENCH_kernels.json. The
# README perf table and the ≥2× blocked-vs-scalar acceptance numbers come
# from this file.
bench-kernels:
	$(GO) run ./cmd/evkernels -iters 5 -out BENCH_kernels.json

# One-iteration smoke of the kernel bench harness: validates the tool runs
# and emits well-formed JSON without spending benchmarking time.
smoke-kernels:
	@$(GO) run ./cmd/evkernels -iters 1 -min-entries 262144 -out /tmp/evkernels-smoke.json
	@grep -q '"speedup"' /tmp/evkernels-smoke.json || { echo "smoke-kernels: no results"; exit 1; }
	@echo "smoke-kernels: ok"

# Short fuzz runs (the same smoke steps CI runs); go test -fuzz accepts one
# fuzz target per invocation.
fuzz-smoke:
	$(GO) test -run xxx -fuzz FuzzEvidenceSignature -fuzztime 10s ./internal/cache
	$(GO) test -run xxx -fuzz FuzzKernelBlockedVsScalar -fuzztime 10s ./internal/potential
	$(GO) test -run xxx -fuzz FuzzLazyVsEager -fuzztime 10s .
	$(GO) test -run xxx -fuzz FuzzAutoPlanVsSerial -fuzztime 10s ./internal/sched

# Smoke-test the Chrome trace export: one traced propagation, written as
# trace_event JSON (open in chrome://tracing or https://ui.perfetto.dev).
trace:
	$(GO) run ./cmd/evbench -trace /tmp/evprop-trace.json

# Smoke-test the live dashboard end to end: start evserve on an ephemeral
# port, render one evtop frame against its /v1/stream, then shut down.
smoke-evtop:
	@$(GO) build -o /tmp/evserve-smoke ./cmd/evserve
	@$(GO) build -o /tmp/evtop-smoke ./cmd/evtop
	@/tmp/evserve-smoke -addr 127.0.0.1:18098 >/dev/null 2>&1 & \
	pid=$$!; \
	for i in $$(seq 1 50); do \
		if curl -sf http://127.0.0.1:18098/v1/readyz >/dev/null 2>&1; then break; fi; \
		sleep 0.1; done; \
	curl -sf -o /dev/null -X POST http://127.0.0.1:18098/v1/query \
		-d '{"evidence":{"XRay":1}}'; \
	/tmp/evtop-smoke -url http://127.0.0.1:18098 -once | grep -q "evtop —"; rc=$$?; \
	kill $$pid; wait $$pid 2>/dev/null; \
	if [ $$rc -ne 0 ]; then echo "smoke-evtop: frame did not render"; exit 1; fi; \
	echo "smoke-evtop: ok"

# Smoke-test multi-model serving end to end: boot evserve with two models
# from -models-dir, query both, hot-reload one mid-traffic (expecting a
# version bump and zero failed queries), and check the per-model stats.
smoke-multimodel:
	@$(GO) build -o /tmp/evserve-smoke ./cmd/evserve
	@dir=$$(mktemp -d); trap 'rm -rf '"$$dir" EXIT; \
	cp cmd/evserve/testdata/models/rainA.bif $$dir/wet.bif; \
	cp cmd/evserve/testdata/models/rainB.bif $$dir/dry.bif; \
	/tmp/evserve-smoke -models-dir $$dir -addr 127.0.0.1:18099 >/dev/null 2>&1 & \
	pid=$$!; \
	for i in $$(seq 1 50); do \
		if curl -sf http://127.0.0.1:18099/v1/readyz >/dev/null 2>&1; then break; fi; \
		sleep 0.1; done; \
	fail=0; \
	curl -sf -X POST http://127.0.0.1:18099/v1/models/wet/query \
		-d '{"evidence":{"Wet":1},"query":["Rain"]}' | grep -q p_evidence || fail=1; \
	curl -sf -X POST http://127.0.0.1:18099/v1/models/dry/query \
		-d '{"evidence":{"Wet":1},"query":["Rain"]}' | grep -q p_evidence || fail=2; \
	( for i in $$(seq 1 60); do \
		curl -sf -X POST http://127.0.0.1:18099/v1/models/wet/query \
			-d '{"evidence":{"Wet":1},"query":["Rain"]}' >/dev/null || echo fail >> $$dir/errs; \
	done ) & traffic=$$!; \
	cp cmd/evserve/testdata/models/rainB.bif $$dir/wet.bif; \
	curl -sf -X POST "http://127.0.0.1:18099/v1/models/wet/reload?wait=1" \
		| grep -q '"version":2' || fail=3; \
	wait $$traffic; \
	[ ! -e $$dir/errs ] || fail=4; \
	curl -sf http://127.0.0.1:18099/v1/models/wet/stats | grep -q '"queries"' || fail=5; \
	curl -sf http://127.0.0.1:18099/v1/stats | grep -q '"legacy_requests"' || fail=6; \
	curl -sf http://127.0.0.1:18099/v1/readyz >/dev/null || fail=7; \
	kill $$pid; wait $$pid 2>/dev/null; \
	if [ $$fail -ne 0 ]; then echo "smoke-multimodel: step $$fail failed"; exit 1; fi; \
	echo "smoke-multimodel: ok"

# Smoke-test the durable audit pipeline end to end: boot evserve with
# -audit-dir, drive queries and an MPE, shut down cleanly, then replay the
# recorded segments with evreplay — the chain must verify, a differential
# replay against the same build must reproduce every answer bit for bit,
# and a one-byte corruption must be detected. The second leg repeats the
# record→diff cycle with -lazy on both sides: lazy propagation is
# deterministic for a given evidence set, so lazy-recorded answers replay
# Float64bits-exact on a lazy engine.
smoke-replay:
	@$(GO) build -o /tmp/evserve-smoke ./cmd/evserve
	@$(GO) build -o /tmp/evreplay-smoke ./cmd/evreplay
	@dir=$$(mktemp -d); trap 'rm -rf '"$$dir" EXIT; \
	/tmp/evserve-smoke -addr 127.0.0.1:18097 -audit-dir $$dir/audit -audit-batch 8 >/dev/null 2>&1 & \
	pid=$$!; \
	for i in $$(seq 1 50); do \
		if curl -sf http://127.0.0.1:18097/v1/readyz >/dev/null 2>&1; then break; fi; \
		sleep 0.1; done; \
	fail=0; \
	for i in $$(seq 1 10); do \
		curl -sf -X POST http://127.0.0.1:18097/v1/query \
			-d '{"evidence":{"XRay":1},"query":["Lung"]}' >/dev/null || fail=1; \
		curl -sf -X POST http://127.0.0.1:18097/v1/query \
			-d "{\"evidence\":{\"Smoke\":$$((i % 2))}}" >/dev/null || fail=1; \
	done; \
	curl -sf -X POST http://127.0.0.1:18097/v1/mpe \
		-d '{"evidence":{"XRay":1}}' >/dev/null || fail=2; \
	curl -sf -X POST http://127.0.0.1:18097/v1/query \
		-d '{"evidence":{"NoSuchVar":1}}' >/dev/null; \
	curl -sf http://127.0.0.1:18097/v1/audit | grep -q '"enabled":true' || fail=3; \
	kill $$pid; wait $$pid 2>/dev/null; \
	/tmp/evreplay-smoke -dir $$dir/audit -mode verify >/dev/null || fail=4; \
	/tmp/evreplay-smoke -dir $$dir/audit -mode diff -network asia >/dev/null || fail=5; \
	/tmp/evserve-smoke -lazy -addr 127.0.0.1:18096 -audit-dir $$dir/lazy -audit-batch 8 >/dev/null 2>&1 & \
	lpid=$$!; \
	for i in $$(seq 1 50); do \
		if curl -sf http://127.0.0.1:18096/v1/readyz >/dev/null 2>&1; then break; fi; \
		sleep 0.1; done; \
	for i in $$(seq 1 10); do \
		curl -sf -X POST http://127.0.0.1:18096/v1/query \
			-d '{"evidence":{"XRay":1},"query":["Lung"]}' >/dev/null || fail=7; \
		curl -sf -X POST http://127.0.0.1:18096/v1/query \
			-d "{\"evidence\":{\"Smoke\":$$((i % 2))}}" >/dev/null || fail=7; \
	done; \
	curl -sf -X POST http://127.0.0.1:18096/v1/mpe \
		-d '{"evidence":{"XRay":1}}' >/dev/null || fail=7; \
	kill $$lpid; wait $$lpid 2>/dev/null; \
	/tmp/evreplay-smoke -dir $$dir/lazy -mode verify >/dev/null || fail=8; \
	/tmp/evreplay-smoke -dir $$dir/lazy -mode diff -network asia -lazy >/dev/null || fail=9; \
	seg=$$(ls $$dir/audit/*.seg | head -1); \
	size=$$(wc -c < $$seg); \
	off=$$((size / 2)); \
	orig=$$(dd if=$$seg bs=1 skip=$$off count=1 2>/dev/null | od -An -tu1 | tr -d ' '); \
	printf "$$(printf '\\%03o' $$(( (orig + 1) % 256 )))" \
		| dd of=$$seg bs=1 seek=$$off conv=notrunc 2>/dev/null; \
	if /tmp/evreplay-smoke -dir $$dir/audit -mode verify >/dev/null 2>&1; then fail=6; fi; \
	if [ $$fail -ne 0 ]; then echo "smoke-replay: step $$fail failed"; exit 1; fi; \
	echo "smoke-replay: ok"

# Smoke-test distributed tracing end to end: boot evserve with the batch
# coalescer on, let evtrace mint a sampled W3C traceparent and drive three
# identical queries through /v1/batch (identical evidence -> singleflight
# riders), fetch the kept trace back over /v1/debug/trace, and assert the
# span tree: the caller's trace ID and parent span survived, absorb ran
# before propagate, every sub-query has its batch.item span, and at least
# one coalesced rider linked into the leader's tree.
smoke-trace:
	@$(GO) build -o /tmp/evserve-smoke ./cmd/evserve
	@$(GO) build -o /tmp/evtrace-smoke ./cmd/evtrace
	@/tmp/evserve-smoke -addr 127.0.0.1:18095 -batch-window 20ms >/dev/null 2>&1 & \
	pid=$$!; \
	for i in $$(seq 1 50); do \
		if curl -sf http://127.0.0.1:18095/v1/readyz >/dev/null 2>&1; then break; fi; \
		sleep 0.1; done; \
	/tmp/evtrace-smoke -url http://127.0.0.1:18095 -drive 3 -assert; rc=$$?; \
	kill $$pid; wait $$pid 2>/dev/null; \
	if [ $$rc -ne 0 ]; then echo "smoke-trace: span-tree asserts failed"; exit 1; fi; \
	echo "smoke-trace: ok"

# The PR gate: formatting and static checks plus the full test suite under
# the race detector (includes the concurrent-engine stress tests), the
# evserve smoke tests (evtop dashboard + multi-model hot reload + durable
# audit replay + traceparent propagation), and the kernel bench harness
# smoke.
check: fmt-check vet staticcheck race smoke-evtop smoke-multimodel smoke-replay smoke-trace smoke-kernels
