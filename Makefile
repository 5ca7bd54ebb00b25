.PHONY: all build test check bench examples lint analyze chaos soak \
        cluster-smoke pipeline-smoke perf-smoke clean

all: build

build:
	dune build

test:
	dune runtest

# everything the repo can build (libraries, binaries, tests, benches,
# examples), the full test suite, and the examples as a smoke test
check:
	dune build @all
	dune runtest
	$(MAKE) examples
	$(MAKE) lint
	$(MAKE) analyze

# strict warnings-as-errors build, plus tsg-lint over the committed
# example artifacts (must be finding-free)
lint:
	dune build --profile strict @all
	dune exec -- tsg-lint --strict --deep \
	  --taxonomy examples/data/demo.tax \
	  --db examples/data/demo.db \
	  --patterns examples/data/demo.pat

# static analysis over our own typed trees: domain-safety, determinism,
# IO, registry and kernel-typing rules (DOM/DET/IO1/REG/HOT, catalog in
# DESIGN.md). Must be finding-free; the allowlist is committed and
# deliberately empty.
analyze:
	dune build @check
	dune exec -- tsg-analyze --strict --allowlist analyze.allow
	scripts/rule_catalog_check.sh

examples:
	@for e in quickstart pathway_mining chemical_mining taxonomy_explore \
	          regulatory_network annotation_study; do \
	  echo "== examples/$$e =="; \
	  dune exec examples/$$e.exe > /dev/null || exit 1; \
	done

bench:
	dune exec bench/main.exe

# the fault-injection suite under a forced-wide pool: failpoints,
# supervised retries/quarantine, checkpoint kill+resume byte-identity,
# hardened serve loop
chaos:
	TSG_DOMAINS=4 dune exec test/test_fault.exe

# 30s open-loop blast against a live tsg-serve --listen with 1%
# injected request faults: asserts zero crashes, bounded RSS, a
# successful mid-blast hot reload, and a corrupt-artifact rollback
soak: build
	scripts/soak.sh

# tsg-router over 2 shards x 2 replicas of tsg-serve --shard: scatter-
# gather answers byte-identical to an unsharded node, a two-phase
# rolling reload flipping the cluster epoch mid-blast, a straggler
# fenced and repaired by the anti-entropy scrubber, a reload aborted
# cluster-wide with a replica SIGKILLed — all with zero client-visible
# errors and zero mixed-epoch replies — then a graceful drain
cluster-smoke: build
	scripts/cluster_smoke.sh

# the demo artifact's epoch stamps pinned at two supports (content
# order, text format and hash kernel), then tsg-serve fed by tsg-pipe
# over --push: ~50 deltas streamed with 1% injected faults on every
# pipeline fault site, tsg-pipe SIGKILLed mid-stream and restarted to
# resume the remaining deltas; the served artifact must be
# byte-identical to a from-scratch mine of the exported corpus, with
# zero client-visible errors throughout
pipeline-smoke: build
	scripts/pipeline_smoke.sh

# output identity on the mining, serving and pipeline hot paths: a 2 s
# run of every workload of the repository benchmark (perfbench/). Mining
# fails unless the first op's patterns match the digest recorded for the
# instance and every later op, at 1 and 2 domains, repeats them byte for
# byte; serve fails unless every tsg-serve reply equals Serve.answer on
# an in-process engine; pipe-churn boots a linted tsg-serve and fails
# unless every push is acknowledged and the served artifact at the end
# equals a from-scratch mine of the corpus. Then a 2 s traced run of each
# mining workload must report Step 2's and Step 3's exact work counts on
# its instance — classes mined, occurrence-index entries and set
# members, and the whole Step-3 walk: candidate tests (intersections),
# visits, emissions and over-generalized visits — so a hot-path change
# that alters what is mined, indexed or walked fails here even when the
# patterns still agree. Last, a 2 s traced pipe-churn run replays one
# delta sequence four times from a saved state and fails unless the
# roots each commit re-mines repeat exactly, which covers the selective
# refresh across a restart. It only reads the benchmark's output
perf-smoke:
	@for w in mine-td13 mine-nc40 serve pipe-churn; do \
	  line=$$(bash perfbench/run.sh --workload $$w --seed 1 --seconds 2 \
	    --trace 0 | tail -n 1); \
	  case "$$line" in \
	    *'"correct": true'*) echo "$$w: correct" ;; \
	    *) echo "$$w: output check failed: $$line" >&2; \
	       exit 1 ;; \
	  esac; \
	done
	@for w in mine-nc40 mine-td13 pipe-churn; do \
	  case $$w in \
	    mine-nc40) set -- gspan.classes 296 occ_index.entries 95293 \
	      occ_index.set_members 438032 specialize.intersections 39784 \
	      specialize.visited 1531 specialize.emitted 1062 \
	      specialize.over_generalized 86 ;; \
	    mine-td13) set -- gspan.classes 59 occ_index.entries 28284 \
	      occ_index.set_members 701310 specialize.intersections 172494 \
	      specialize.visited 2994 specialize.emitted 1601 \
	      specialize.over_generalized 24 ;; \
	    pipe-churn) set -- ;; \
	  esac; \
	  line=$$(bash perfbench/run.sh --workload $$w --seed 1 --seconds 2 \
	    --trace 1 | tail -n 1); \
	  case "$$line" in \
	    *'"correct": true'*) ;; \
	    *) echo "$$w (traced): output check failed: $$line" >&2; \
	       exit 1 ;; \
	  esac; \
	  while [ $$# -gt 0 ]; do \
	    case "$$line" in \
	      *"\"$$1\": {\"value\": $$2,"*) ;; \
	      *) echo "$$w: $$1 is not $$2: $$line" >&2; exit 1 ;; \
	    esac; \
	    shift 2; \
	  done; \
	  case $$w in \
	    pipe-churn) echo "$$w (traced): roots re-mined repeat exactly" ;; \
	    *) echo "$$w: Step-2/3 work counts exact" ;; \
	  esac; \
	done

clean:
	dune clean
