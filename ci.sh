#!/bin/sh
# ci.sh — the repository's check gate. Run before committing:
#
#   ./ci.sh          # format + vet + doc gate + examples + golden gates + race-enabled tests + fuzz smokes
#   ./ci.sh -short   # same, skipping the long sweeps
#
# The race detector matters here twice over: the partition engine shares one
# immutable core.Analysis across worker goroutines (degree exploration,
# experiment sweeps, ablations), and the streaming runtime in
# internal/runtime hands batches of tokens and their live sets between one
# goroutine per pipeline stage — its oracle-equivalence tests are only meaningful under -race.
set -eu
cd "$(dirname "$0")"

echo "== gofmt -l"
fmt=$(gofmt -l .)
if [ -n "$fmt" ]; then
    echo "gofmt: these files need formatting:" >&2
    echo "$fmt" >&2
    exit 1
fi

echo "== go vet ./..."
go vet ./...
# The UDP source has a Linux-only receive path; the other platforms' builds
# of internal/ingest must still compile.
GOOS=darwin go vet ./internal/ingest
GOOS=windows go vet ./internal/ingest

echo "== doc gate: go run ./internal/doccheck"
# Every exported symbol must carry a doc comment, every package a
# package-level doc comment, every sentinel-shaped word in a Go comment,
# README.md or DESIGN.md must name a sentinel internal/errs declares, and
# every package-level Go snippet in README.md must compile against the
# current API.
go run ./internal/doccheck

echo "== seam gate: only internal/runtime imports internal/runtime/fault outside tests"
# The fault plan is a test seam (DESIGN §6.5), not API: it must not grow back into the facade.
if go list -f '{{.ImportPath}}: {{join .Imports " "}}' ./... | grep -v '^repro/internal/runtime:' | grep ' repro/internal/runtime/fault'; then
    echo "seam gate: the packages above import the fault seam" >&2 && exit 1
fi

echo "== examples: go run ./examples/quickstart, ./examples/serve"
# Tier-1 only builds the examples; here they run, and each checks its own
# acts against the sequential oracle, so the exit status is the verdict.
go run ./examples/quickstart >/dev/null
go run ./examples/serve >/dev/null

echo "== chaos gate: go test -race -count=2 -run TestChaos ./internal/runtime"
# The deterministic fault schedules must produce identical accounting on
# repeated race-enabled runs; -count=2 defeats the test cache.
go test -race -count=2 -run TestChaos ./internal/runtime

echo "== partitioner gate: cut-sweep and stage-state oracles, max-flow differential, windowed cut search, interference oracle, concurrent cuts, allocation budget, dense stage registers, defined reads, queue confinement, pinned cuts, single-writer slots, copy coalescing, the intrinsic table and the value-semantics table under -race -count=2; pipebench figures vs golden"
# The partitioner's byte-identity oracles. TestCutSweepGolden digests every
# stage program and report of the six PPS at D=1..10 (and two coarsenings),
# and each program renumbered canonically (canon=, which a change that only
# renames registers leaves alone); TestStageRegistersDense holds every
# realized stage to a register file of exactly the registers it mentions;
# TestPinnedCuts holds what a change to transmission must leave alone — each
# cut's stage assignment, the naive realizations, no stage's worst path
# rising — and TestSingleWriterSlotsAreNotCopied that no packed stage copies
# into a slot only that copy writes (each cut checked on the interpreter);
# TestStageCopiesInterfere that no stage or Coarsen unit keeps a copy whose
# registers never interfere, and TestCoalesceKeepsLostCopy/Swap that the
# coalescer refuses the two merges ssa.Destruct's temporaries exist for;
# TestRandomContractionAgainstEdmondsKarp holds push-relabel's value and its
# cut to an in-test reference under random contractions — the reason the
# discharge schedule is free to change — fresh and warm;
# TestWindowedCutsMatchWholeNetwork holds each cut search on its contracted
# window to the search on the whole network it replaced (source side, cost,
# weight, feasibility, iterations), and TestInterferenceOracle packCut's
# block-set interference relations to their position-list reference, pair
# by pair, on every cut in all three transmission modes.
# TestStagesDefineWhatTheyRead holds every realized stage to reading only
# registers written on every path from its entry (send operands aside).
# TestStageStateGolden records what each stage's state is taken to be — exec's
# Serial/Carried, the replica width at P=2, and
# both validators' verdicts — for the six PPS, their coarsenings, 200 random
# programs and hand-built lists; TestValidateStagesConfinesQueues holds
# core.ValidateStages to the queue half of costmodel.CheckConfined,
# TestIntrinsicTableIsTheOneList both backends to costmodel.Intrinsics, and
# TestValueSemanticsTable internal/ir's value semantics, both backends and
# ppc's constant folding to expected values written out as literals.
# Each twice under the race detector (Partition is called concurrently on
# one Analysis), and so are the concurrent-cut tests, which give every
# concurrent Partition its own workspace, and the per-Partition allocation
# and byte ceilings. Then every figure
# pipebench prints against testdata/pipebench_all.golden: ROADMAP's "stays
# byte-identical unless the PR says which figure moves", enforced — at the
# host's core count and again at GOMAXPROCS=1, the sequential run, so the
# tables are held byte-identical at any fan-out. A PR that moves a figure
# regenerates the file and names the figure:
#   go run ./cmd/pipebench -experiment all > testdata/pipebench_all.golden
go test -race -count=2 -run '^(TestCutSweepGolden|TestStageStateGolden)$' .
go test -race -count=2 -run '^TestRandomContractionAgainstEdmondsKarp$' ./internal/maxflow
go test -race -count=2 -run '^(TestWindowedCutsMatchWholeNetwork|TestInterferenceOracle|TestConcurrentPartitionNetbench|TestConcurrentPartitionRandprog|TestPartitionAllocBudget|TestStageRegistersDense|TestValidateStagesConfinesQueues|TestPinnedCuts|TestSingleWriterSlotsAreNotCopied|TestStageCopiesInterfere|TestCoalesceKeepsLostCopy|TestCoalesceKeepsSwap|TestStagesDefineWhatTheyRead)$' ./internal/core
go test -race -count=2 -run '^TestIntrinsicTableIsTheOneList$' ./internal/exec
go test -race -count=2 -run '^TestValueSemanticsTable$' ./internal/interp
go run ./cmd/pipebench -experiment all | cmp - testdata/pipebench_all.golden
GOMAXPROCS=1 go run ./cmd/pipebench -experiment all | cmp - testdata/pipebench_all.golden

echo "== front-end gate: compile/analysis/network oracle + allocation budget under -race -count=2"
# The front half's byte-identity oracle: TestFrontEndGolden digests the IR
# ppc.Compile prints, the dependence analysis and the flow network built
# from the tables core.Analyze keeps, for the six PPS and 200 random
# programs, against internal/core/testdata/front_end.golden. TestCompileAnalyzeAllocBudget
# holds one compile+analyze pass of the six PPS under its allocation ceiling.
go test -race -count=2 -run '^(TestFrontEndGolden|TestCompileAnalyzeAllocBudget)$' ./internal/core

echo "== route-table gate: go test -race -count=2 ./internal/netbench"
# The flat stride tables against the bit-at-a-time trie they replaced
# (TestRouteTableMatchesTrie), and the one shared build of the demo FIBs
# read by eight worlds at once (TestNewWorldSharesFIBs): twice, under the
# race detector.
go test -race -count=2 ./internal/netbench

echo "== ring gate: microbench smokes + lowering shape + ring oracle matrix"
# A short microbench smoke proving BenchmarkRingChanVsSPSC still runs (the
# SPSC ring against a channel; not gated — wall-clock on a shared box), and the
# runtime's ring tests under -race -count=2: every benchmark pipeline
# served ringed and coarsened (every aligned cut un-made), unsharded and
# sharded, each trace byte-identical to the sequential oracle and no lost
# wakeup counted. (The ring package's
# own unit tests run under -race with everything else, below.) The wait
# counters' accounting test runs 50 more times: it once failed about one run
# in twenty, and a flake that rare needs the repetitions to show.
go test ./internal/spsc -run '^$' -bench BenchmarkRingChanVsSPSC -benchtime 50x
# The same for the exec chain microbench behind EXPERIMENTS' "What a cut
# costs the host", and twice the tests that pin what the lowering makes of
# a realized stage: its op counts and closures per packet, its guard runs
# against the step limit and across the copies ssa.Destruct leaves, copies
# run as ops, the refusal of a block that opens with a phi (exec takes
# phi-free IR only), and the closure census by category.
go test ./internal/exec -run '^$' -bench BenchmarkCompiledChainIPv4 -benchtime 50x
go test -count=2 -run '^(TestLoweringShape|TestGuardChainStepLimit|TestCopyInLoopNotForwarded|TestGuardExitWithPhis|TestSSAInputRefused|TestDispatchCensus)$' ./internal/exec
go test -race -count=2 -run 'TestRing' ./internal/runtime
# A batch owns its tokens for the serve, and the free ring is the one way a
# retired batch gets back to the source: the recycled tokens come back
# pristine, quarantine leaves its tokens in the batch, and the free ring
# takes back every batch the source made — at the smallest rings, under
# short pulls and panic plans, unsharded and sharded. Twice under the race
# detector.
go test -race -count=2 -run '^(TestBatchRecycleNeverLeaks|TestExecBatchSkipsDeadAndDegraded|TestFreeRingTakesEveryBatch)$' ./internal/runtime
# The sharded junctions where a batch's live-set block crosses a scatter and
# a fan-in — a batch crosses whole, its tokens and block together — also
# twice under the race detector.
go test -race -count=2 -run '^(TestServeEveryFuseMaskMatchesOracle|TestServeSharedReadOnlyQueue)$' .
go test -count=50 -run '^TestRingSPSCWaitCountersAccount$' ./internal/runtime

echo "== fuzz smoke: 10s each of FuzzServeVsOracle, FuzzCompilePartition, FuzzCoarsen, FuzzExecVsInterp, FuzzOpenSpec, FuzzPcapDecode, FuzzTCPFramer, FuzzRouteTable, FuzzParse, FuzzLexer"
# Differential fuzzing of the streaming runtime against the sequential
# oracle (the checked-in corpus under internal/runtime/testdata/fuzz seeds
# the mutator), of the partitioner on mutants of the six netbench PPS
# sources (each cut at D=2..5 on the interpreter and served), of the
# partitioner's coarsening (random program, depth and
# fuse mask: the re-realized units against the sequential program on the
# interpreter), of the compiled backend's lowering against the interpreter
# on random programs and packets (sequential and partitioned, one iteration
# per call and in batches of a fuzzed width and split, errors included), and
# the three parsers of bytes the ingest front end did not write: source spec
# strings, capture files, and the TCP source's length-prefixed frame stream;
# of the flat route tables against the trie oracle on fuzzed prefix and
# probe lists; and of the PPC front end: arbitrary source must parse or fail
# with a positioned error (FuzzParse), and lex to the same tokens or error as
# the map-based oracle lexer (FuzzLexer).
#
# fuzz PKG NAME [FLAG...] fuzzes NAME for 10 s from the package's seeds alone
# (f.Add and testdata/fuzz): its test binary, built with go test's fuzzing
# instrumentation, runs in the package directory with an empty
# -test.fuzzcachedir. Under go test -fuzz the smoke would first replay every
# input earlier runs on the host had cached in GOCACHE (on a 2-core host,
# 823 for FuzzServeVsOracle: 7 of its 10 s). A crasher is still written to
# the package's testdata/fuzz.
fuzzdir=$(mktemp -d)
trap 'rm -rf "$fuzzdir"' EXIT
fuzz() {
    pkg=$1 name=$2
    shift 2
    go test -c -o "$fuzzdir/$name.test" -fuzz="^$name\$" "./$pkg"
    (cd "$pkg" && "$fuzzdir/$name.test" -test.run '^$' -test.fuzz="^$name\$" -test.fuzztime=10s -test.fuzzcachedir="$fuzzdir/$name" "$@")
}
fuzz internal/runtime FuzzServeVsOracle
# A source string is a byte slice too: the same minimization cap.
fuzz internal/runtime FuzzCompilePartition -test.fuzzminimizetime=100x
fuzz internal/core FuzzCoarsen
fuzz internal/exec FuzzExecVsInterp
# These four take strings or byte slices, and a grown corpus holds entries
# of a few hundred bytes: minimizing a new interesting input derived from
# one (Go's default budget is 60 s a value, removing byte ranges pairwise)
# outlasted the whole smoke, which then logged 0 execs/s. At 100 calls a
# minimization the smoke fuzzes instead; a crasher is still reported and
# written whole.
fuzz internal/ingest FuzzOpenSpec -test.fuzzminimizetime=100x
fuzz internal/ingest FuzzPcapDecode -test.fuzzminimizetime=100x
fuzz internal/ingest FuzzTCPFramer -test.fuzzminimizetime=100x
fuzz internal/netbench FuzzRouteTable -test.fuzzminimizetime=100x
fuzz internal/ppc FuzzParse
fuzz internal/ppc FuzzLexer

echo "== ingest gate: loopback UDP serve + pcap replay byte-identity"
# The network-facing front end, end to end: a race-enabled serve over a
# real loopback UDP socket (TestServeUDPLoopback), the checked-in capture's
# fixture pin (TestFlowsCaptureFixture), and that capture replayed off the
# Source path through D=4, P=4, fused (TestServeFlowsCaptureReplay). Each
# compares the served trace or decoded stream byte-for-byte against the
# deterministic reference. Then a socket that carries five packets and goes
# quiet, served in 17 shapes: every packet must reach the sink within 300 ms
# (TestServeQuietSocketStrandsNoPacket).
go test -race -count=1 -run 'TestServeUDPLoopback|TestFlowsCaptureFixture|TestServeFlowsCaptureReplay|TestServeQuietSocketStrandsNoPacket' .

echo "== go test -race ./... $*"
go test -race "$@" ./...

echo "== soak: gen://ipv4 through the discard sink, P=1 and P=2 (SOAK=1: 3 minutes each instead of 10^7 packets)"
# Bounded memory is a property of the served pipeline, not of a short test:
# the heap in use at the end of the stream must be within 8 MiB of what it
# was a tenth of the way in, and the packet ledger must balance. Without
# -race: the point is the stream's length.
if [ "${SOAK:-0}" = 1 ]; then
    SOAK_SECONDS=180 go test -count=1 -timeout 20m -run '^TestSoakDiscardSink$' -v .
else
    SOAK_PACKETS=10000000 go test -count=1 -run '^TestSoakDiscardSink$' -v .
fi

echo "== doc gate: the docs name no deleted machinery"
if grep -nE 'mergeShardTraces|sinkCollector|evCursor|traceBuf|WithAutotune|WithObjective|ThroughputUnderP99|internal/tuner|serveAdaptive|Coarsen\(keep\)|keep-mask|NewCoarseLayout\(programs, covers\)|merge \*order\*|WithThreads|WithArrivalInterval|WithMaxPEs|WithWatermark|ArrivalInterval|WithWorkers|fusionCores|SetFusionCoresForTest|\bFig21OverheadIPv4\b|\bFig22OverheadIP\b|TestHeadlineClaim|WithDeadline|StageDeadline|WithArch|DefaultArch|inSimulate|pipe\.Simulate|Pipeline\.Simulate|greedy descent|the token owns|WithOverload|OverloadShed|OverloadPolicy|UntilOverload|TestChaosSaturatedRingSheds|flow-keyed|classFlowKeyed|flowArrs|Store\.Fork|flow-key contract|seqStream|scatterer|tombstone|shardOf|DefaultShardKey|PushTimeout|overloadTick|sequence side-channel|flow-hash|contextBinder|packetOwner|PacketsOwned|BindContext|ingestPullMin|PlanFusion|FusionPlan|maxSearchStages|exec\.RunSequential|exec\.RunPipeline|Lowered\.Forwarded|phi moves|PredictedNsPerPkt|ringSyncNsSPSC|costmodel\.Predict|CloneInto|tokPool|batchPool|newPools|getToken|putToken|exec\.Iteration|divTotal|modTotal|csumFold|hashCRC|byteAt|wordAt|wrapIndex|evalBin' README.md DESIGN.md EXPERIMENTS.md; then
    echo "doc gate: the lines above name deleted machinery" >&2 && exit 1
fi

echo "== size ledger (printed, not gated)"
# The design-size numbers ROADMAP item 4 tracks, so each PR's reduction is
# a recorded figure: non-test, non-blank, non-comment Go lines of the serve
# runtime and the facade files that configure it, the option count, the
# runtime.Config field count, and the sentinel count. The cost model, the
# compiled backend and the
# ingest front end are each listed on their own line.
# shellcheck disable=SC2046
echo "non-test Go code lines outside benchmark/: $(cat $(find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*') | grep -v '^[[:space:]]*$' | grep -vc '^[[:space:]]*//')  (16,898 before the adaptive loop's removal)"
size_files="$(ls internal/runtime/*.go | grep -v _test.go) options.go fusion.go"
# shellcheck disable=SC2086
echo "runtime+facade code lines: $(cat $size_files | grep -v '^[[:space:]]*$' | grep -vc '^[[:space:]]*//')  (2628 before the streaming egress, ISSUE 23)"
# shellcheck disable=SC2046
echo "  internal/runtime alone:  $(cat $(ls internal/runtime/*.go | grep -v _test.go) | grep -v '^[[:space:]]*$' | grep -vc '^[[:space:]]*//')  (1357 before)"
echo "  internal/runtime/fault:  $(grep -v '^[[:space:]]*$' internal/runtime/fault/fault.go | grep -vc '^[[:space:]]*//')  (247 before)"
# shellcheck disable=SC2046
echo "internal/costmodel code lines: $(cat $(ls internal/costmodel/*.go | grep -v _test.go) | grep -v '^[[:space:]]*$' | grep -vc '^[[:space:]]*//')  (316 before the state fusion rule)"
for d in maxflow balance core; do
    case $d in maxflow) before=325 ;; balance) before=175 ;; core) before=1846 ;; esac
    # shellcheck disable=SC2046
    echo "internal/$d code lines: $(cat $(ls internal/$d/*.go | grep -v _test.go) | grep -v '^[[:space:]]*$' | grep -vc '^[[:space:]]*//')  ($before before the partitioner halving, ISSUE 24)"
done
# shellcheck disable=SC2046
echo "front end (internal/{ppc,dep,graph,maxflow,core}) code lines: $(cat $(ls internal/ppc/*.go internal/dep/*.go internal/graph/*.go internal/maxflow/*.go internal/core/*.go | grep -v _test.go) | grep -v '^[[:space:]]*$' | grep -vc '^[[:space:]]*//')  (5074 before the dense front-end tables)"
echo "front end allocations per six-PPS compile+analyze pass: $(go test -count=1 -run '^TestCompileAnalyzeAllocBudget$' -v ./internal/core | sed -n 's/.*six PPS: \([0-9]*\) allocations.*/\1/p')  (68243 before)"
echo "stage registers per six-PPS sweep: $(go test -count=1 -run '^TestStageRegistersDense$' -v ./internal/core | sed -n 's/.*six-PPS sweep: \([0-9]*\) stage registers.*/\1/p')  (170,006 before the dense register files)"
echo "partitioner bytes per six-PPS sweep: $(go test -count=1 -run '^$' -bench '^BenchmarkPartitionSweep$/^all$' -benchmem . | awk '/^BenchmarkPartitionSweep\/all/ { for (i = 2; i < NF; i++) if ($(i+1) == "B/op") printf "%.1f MB", $i / 1e6 }')  (31.2 MB before the per-call workspace)"
# shellcheck disable=SC2046
echo "internal/obsv code lines: $(cat $(ls internal/obsv/*.go | grep -v _test.go) | grep -v '^[[:space:]]*$' | grep -vc '^[[:space:]]*//')  (585 before the per-stage span logs)"
# shellcheck disable=SC2046
echo "internal/ir code lines: $(cat $(ls internal/ir/*.go | grep -v _test.go) | grep -v '^[[:space:]]*$' | grep -vc '^[[:space:]]*//')  (653 before one value semantics)"
echo "internal/exec code lines:  $(cat internal/exec/exec.go internal/exec/lower.go | grep -v '^[[:space:]]*$' | grep -vc '^[[:space:]]*//')  (2165 before phi-free input)"
# code FILE FROM TO: code lines from the line matching FROM through the
# closing brace of the declaration that opens at the line matching TO.
code() { awk -v a="$2" -v b="$3" '$0 ~ a { on = 1 } on { print } on && $0 ~ b { end = 1 } end && /^}/ { exit }' "$1" | grep -v '^[[:space:]]*$' | grep -vc '^[[:space:]]*//'; }
state_lines=$(( $(code internal/costmodel/costmodel.go '^type Use struct' '^func CheckConfined') \
    + $(code internal/core/validate.go '^func ValidateStages' '^func ValidateStages') \
    + $(code internal/runtime/runtime.go '^func Validate\(' '^func Validate\(') \
    + $(code internal/runtime/shard.go '^func serialStages' '^func serialStages') \
    + $(code internal/exec/lower.go '^func \(lw \*lowerer\) effects' '^func \(lw \*lowerer\) effects') ))
echo "stage-state analysis code lines (costmodel Use..CheckConfined, core.ValidateStages, runtime.Validate, shard state scan, exec effects): $state_lines  (335 before)"
# shellcheck disable=SC2046
echo "internal/netbench code lines: $(cat $(ls internal/netbench/*.go | grep -v _test.go) | grep -v '^[[:space:]]*$' | grep -vc '^[[:space:]]*//')  (950 before the flat route tables, ISSUE 25)"
# shellcheck disable=SC2046
echo "internal/ingest code lines: $(cat $(ls internal/ingest/*.go | grep -v _test.go) | grep -v '^[[:space:]]*$' | grep -vc '^[[:space:]]*//')  (1035 before)"
echo "options (func With*):      $(grep -c '^func With' options.go)  (15 before shed's removal)"
echo "runtime.Config fields:     $(awk '/^type Config struct/ { on = 1; next } on && /^}/ { exit } on && /^\t[A-Z]/' internal/runtime/runtime.go | wc -l)  (9 before)"
echo "sentinels (internal/errs): $(grep -c '= errors.New(' internal/errs/errs.go)  (13 before)"
# The second measurement stack and the prose about it, the two things
# ROADMAP item 4 asked to shrink.
bench_files="$(find internal/experiments cmd/pipebench examples -name '*.go' ! -name '*_test.go')"
# shellcheck disable=SC2086
echo "experiments+pipebench+examples code lines: $(cat $bench_files | grep -v '^[[:space:]]*$' | grep -vc '^[[:space:]]*//')"
echo "README+DESIGN+EXPERIMENTS bytes: $(cat README.md DESIGN.md EXPERIMENTS.md | wc -c)"

echo "ci.sh: all checks passed"
