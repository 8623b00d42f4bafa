# Convenience targets for the IFTTT reproduction.

# Make every target work from a bare checkout (no `pip install -e .`
# needed): prepend the src/ layout to PYTHONPATH for all recipes.
export PYTHONPATH := src:$(PYTHONPATH)

# Committed sha256 of every CLI gate snapshot (sha256sum format, one
# line per named snapshot).  `$(call gate-hash,FILE,NAME)` fails the
# recipe unless FILE hashes to NAME's line, so a change that alters a
# gate's output deterministically cannot pass by matching itself.
GATE_HASHES := tools/gate_snapshots.sha256
gate-hash = echo "$$(awk -v name="$(2)" '$$2 == name { print $$1 }' $(GATE_HASHES))  $(1)" | sha256sum -c --quiet - > /dev/null 2>&1 || { echo "$(2): snapshot differs from its hash in $(GATE_HASHES)"; exit 1; }

.PHONY: install test test-fast test-shard bench bench-verbose bench-scale bench-push perfbench-predictions examples figures chaos chaos-check replay-check degrade-check push-check parallel-check experiments-smoke experiments-full ci lint clean

install:
	pip install -e .

test: chaos-check replay-check degrade-check push-check parallel-check experiments-smoke bench-scale bench-push
	pytest tests/

# Tier-1 + obs tests minus the multi-second soak/full-scale/example runs;
# the inner-loop target while developing.
test-fast:
	pytest tests/ -q \
		--ignore=tests/test_fullscale.py \
		--ignore=tests/test_scenario_soak.py \
		--ignore=tests/test_examples.py

# The multi-engine sharding suites (unit + property + chaos isolation);
# see docs/SHARDING.md.
test-shard:
	pytest tests/test_sharding.py tests/test_sharding_chaos.py -q

bench:
	pytest benchmarks/ --benchmark-only

bench-verbose:
	pytest benchmarks/ --benchmark-only -s

# Fleet-scale perf gate (docs/PERFORMANCE.md): the committed
# BENCH_fleet_scale.json must carry events/sec + peak RSS for
# 10K/100K/1M applets and a snapshot gate that matched its golden;
# then re-run the 10K snapshot gate live against that golden.  Regenerate the
# report with `python benchmarks/bench_fleet_scale.py --output
# BENCH_fleet_scale.json` (several minutes; the 1M run dominates).
bench-scale:
	python benchmarks/bench_fleet_scale.py --check BENCH_fleet_scale.json
	python benchmarks/bench_fleet_scale.py --gate-only

# Push-delivery gate (docs/DELIVERY.md): the committed
# BENCH_push_scale.json must carry the three-way poll/hint/push T2A
# comparison at 10K/100K/1M applets and meet the headline — push T2A
# median under 10 s where polling sits near the paper's 58 s quartile,
# engine request load cut >=2x.  Regenerate with `python
# benchmarks/bench_scalability_push.py --output BENCH_push_scale.json`
# (several minutes; the 1M runs dominate).
bench-push:
	python benchmarks/bench_scalability_push.py --check BENCH_push_scale.json

# The repo benchmark's own predictions (perfbench/, ~3 s): each workload
# runs once at a small scale, traced; layers the benchmark declares idle
# must read exactly idle, and tracing must not change the outcome.
perfbench-predictions:
	pytest perfbench/test_predictions.py -q

examples:
	@for f in examples/*.py; do echo "== $$f"; python $$f > /dev/null && echo OK; done

figures:
	python -m repro export-figures --output figures/

# Run every built-in chaos scenario (fault injection + resilience).
chaos:
	@for s in outage partition flappy brownout; do \
		echo "== chaos $$s"; \
		python -m repro chaos --scenario $$s || exit 1; \
		echo; \
	done

# Determinism check: the same scenario + seed twice must produce
# byte-identical metric snapshots, both single-engine and sharded, and
# match the committed hashes (docs/ROBUSTNESS.md, docs/SHARDING.md).
chaos-check:
	@for n in 1 4; do \
		python -m repro chaos --scenario outage --seed 7 --shards $$n --snapshot .chaos-a.jsonl > /dev/null || exit 1; \
		python -m repro chaos --scenario outage --seed 7 --shards $$n --snapshot .chaos-b.jsonl > /dev/null || exit 1; \
		cmp .chaos-a.jsonl .chaos-b.jsonl || exit 1; \
		$(call gate-hash,.chaos-a.jsonl,chaos-shards$$n.jsonl); \
		echo "chaos determinism (--shards $$n): OK (snapshots byte-identical, hash pinned)"; \
	done
	@rm -f .chaos-a.jsonl .chaos-b.jsonl

# Replay determinism check: dead-letter replay with batched dispatch
# must be bit-reproducible — same scenario + seed twice, byte-identical
# snapshots (docs/ROBUSTNESS.md, "Replay & batching").
replay-check:
	@python -m repro chaos --scenario outage --seed 7 --replay --snapshot .replay-a.jsonl > /dev/null || exit 1
	@python -m repro chaos --scenario outage --seed 7 --replay --snapshot .replay-b.jsonl > /dev/null || exit 1
	@cmp .replay-a.jsonl .replay-b.jsonl || exit 1
	@$(call gate-hash,.replay-a.jsonl,replay.jsonl)
	@echo "replay determinism: OK (snapshots byte-identical, hash pinned)"
	@rm -f .replay-a.jsonl .replay-b.jsonl

# Degradation gate: the brownout scenario with adaptive delivery must
# (a) pass every acceptance criterion — ≥3× victim request-rate drop,
# no overload dead letters on healthy services, stretch decayed, §4
# interval quartiles restored — and (b) be bit-reproducible: the same
# scenario + seed twice, byte-identical snapshots *with adaptation on*
# (docs/ROBUSTNESS.md, "Adaptive delivery & degradation ladder").
degrade-check:
	@python -m repro chaos --scenario brownout --seed 7 --adaptive --snapshot .degrade-a.jsonl > /dev/null || exit 1
	@python -m repro chaos --scenario brownout --seed 7 --adaptive --snapshot .degrade-b.jsonl > /dev/null || exit 1
	@cmp .degrade-a.jsonl .degrade-b.jsonl || exit 1
	@$(call gate-hash,.degrade-a.jsonl,degrade.jsonl)
	@echo "degrade acceptance + determinism: OK (snapshots byte-identical, hash pinned)"
	@rm -f .degrade-a.jsonl .degrade-b.jsonl

# Push-delivery determinism + equivalence gate (docs/DELIVERY.md):
# (a) the same chaos scenario + seed under --delivery push must produce
# byte-identical metric snapshots, single-engine and sharded, matching
# the committed hashes; (b) the poll/hint/push equivalence suite must
# pass across all shard strategies.
push-check:
	@for n in 1 4; do \
		python -m repro chaos --scenario outage --seed 7 --shards $$n --delivery push --snapshot .push-a.jsonl > /dev/null || exit 1; \
		python -m repro chaos --scenario outage --seed 7 --shards $$n --delivery push --snapshot .push-b.jsonl > /dev/null || exit 1; \
		cmp .push-a.jsonl .push-b.jsonl || exit 1; \
		$(call gate-hash,.push-a.jsonl,push-shards$$n.jsonl); \
		echo "push determinism (--shards $$n): OK (snapshots byte-identical, hash pinned)"; \
	done
	@rm -f .push-a.jsonl .push-b.jsonl
	@pytest tests/test_push_equivalence.py -q

# Parallel-stepping equivalence gate (docs/SHARDING.md, "Parallel
# stepping & epoch barriers"): serial (--jobs 1) and threaded (--jobs 4)
# epoch stepping of the same sharded chaos scenario must produce
# byte-identical metric snapshots (--parallel needs --shards >= 2) that
# match the committed hash, and the serial-vs-parallel equivalence suite
# must pass across shard strategies.
parallel-check:
	@python -m repro chaos --scenario outage --seed 7 --shards 4 --parallel --jobs 1 --snapshot .par-a.jsonl > /dev/null || exit 1
	@python -m repro chaos --scenario outage --seed 7 --shards 4 --parallel --jobs 4 --snapshot .par-b.jsonl > /dev/null || exit 1
	@cmp .par-a.jsonl .par-b.jsonl || exit 1
	@$(call gate-hash,.par-a.jsonl,parallel-jobs1.jsonl)
	@echo "parallel determinism: OK (jobs=1 vs jobs=4 snapshots byte-identical, hash pinned)"
	@rm -f .par-a.jsonl .par-b.jsonl
	@pytest tests/test_parallel_equivalence.py tests/test_simcore_parallel.py -q

# Experiment-matrix smoke gate (EXPERIMENTS.md): run the committed
# smoke spec twice — once subprocess-isolated in parallel, once
# serially in-process — and require byte-identical results (the
# determinism artifact CI gates on; run_meta.json carries the wall
# clock and is excluded).
experiments-smoke:
	@python -m repro experiments EXPERIMENTS/matrix_smoke.json --jobs 4 --quiet --output .exp-smoke-a > /dev/null || exit 1
	@python -m repro experiments EXPERIMENTS/matrix_smoke.json --in-process --quiet --output .exp-smoke-b > /dev/null || exit 1
	@diff -r -q -x run_meta.json .exp-smoke-a .exp-smoke-b || { echo "experiments-smoke: DRIFT (results differ run over run)"; exit 1; }
	@echo "experiments-smoke: OK (results byte-identical, jobs/in-process equivalent)"
	@rm -rf .exp-smoke-a .exp-smoke-b

# The full nightly matrix (32 cells; a few minutes). Results land in
# experiment-results/ — results.txt is the human table.
experiments-full:
	python -m repro experiments EXPERIMENTS/matrix_full.json --jobs 8 --output experiment-results

# Lint gate: ruff when installed (CI installs it), else the repo-local
# offline fallback (tools/lint.py) so the gate runs in hermetic
# environments too. Both read ruff.toml.
lint:
	@if command -v ruff > /dev/null 2>&1; then \
		ruff check .; \
	else \
		echo "ruff not installed; running tools/lint.py fallback"; \
		python tools/lint.py; \
	fi

# What CI runs on every push/PR: lint, the tier-1 fast suite, all seven
# pinned gate snapshots (chaos, replay, degrade, push, parallel; ~40 s
# together), the experiment smoke gate and the benchmark's prediction
# tests — no multi-minute bench regeneration.
ci: lint test-fast chaos-check replay-check degrade-check push-check parallel-check experiments-smoke perfbench-predictions

clean:
	rm -rf figures/ .pytest_cache/ src/repro.egg-info/ .chaos-a.jsonl .chaos-b.jsonl .replay-a.jsonl .replay-b.jsonl .degrade-a.jsonl .degrade-b.jsonl .push-a.jsonl .push-b.jsonl .par-a.jsonl .par-b.jsonl .exp-smoke-a .exp-smoke-b experiment-results/
	find . -name __pycache__ -type d -exec rm -rf {} +
