// Package errs defines the sentinel errors shared by the compiler core,
// the interpreters, and the host runtime. Every user-facing entry point
// validates its inputs against these (wrapped with context via %w) instead
// of panicking or returning ad-hoc fmt.Errorf strings, so callers can
// errors.Is-match failures across the whole API surface. The root repro
// package re-exports, grouped by lifecycle, the ones its entry points can
// return.
package errs

import "errors"

var (
	// ErrNilProgram is returned when a nil *ir.Program is passed where a
	// compiled PPS was required (Analyze, Partition, Run).
	ErrNilProgram = errors.New("nil program")

	// ErrBadOption is returned when an option or configuration field holds
	// a value outside its accepted range (a negative ring capacity, a degree
	// past MaxStages, an unknown fusion mode). The wrapping message names
	// the option or field and the offending value.
	ErrBadOption = errors.New("bad option value")

	// ErrUnbalanced is returned when no finite balanced cut exists for the
	// requested degree and variance.
	ErrUnbalanced = errors.New("no balanced cut")

	// ErrArchMismatch is returned when options carry a different cost model
	// than the analysis they are applied to.
	ErrArchMismatch = errors.New("cost model differs from analysis")

	// ErrNoStages is returned when an empty pipeline is executed where
	// stage programs were required (Run, Serve).
	ErrNoStages = errors.New("empty pipeline")

	// ErrNilStage is returned when a stage list contains a nil entry.
	ErrNilStage = errors.New("nil stage program")

	// ErrNilWorld is returned when a nil execution environment is supplied.
	ErrNilWorld = errors.New("nil world")

	// ErrNilSource is returned when Serve is given a nil packet source.
	ErrNilSource = errors.New("nil packet source")

	// ErrNotServable is returned when the streaming runtime cannot host a
	// pipeline: the stages must contain exactly one pkt_rx site (it paces
	// the packet stream), state some stage writes — a persistent array it
	// stores to, a queue — must be used by that stage only, and state no
	// stage writes is constant, readable from any stage
	// (costmodel.CheckConfined).
	ErrNotServable = errors.New("pipeline not servable")

	// ErrConflictingOptions is returned when individually valid options
	// contradict each other or are applied to an entry point outside their
	// scope (WithSource beside a positional source, WithIterations passed
	// to Serve).
	ErrConflictingOptions = errors.New("conflicting options")

	// ErrStagePanic is returned when a panic is recovered inside a stage
	// body; the offending packet is quarantined and the pipeline keeps
	// serving.
	ErrStagePanic = errors.New("stage panic")

	// ErrBadSource is returned when an ingest source spec is malformed
	// (unknown scheme, bad address or parameter) or a pcap file cannot be
	// parsed (bad magic, truncated global header).
	ErrBadSource = errors.New("bad ingest source")
)
