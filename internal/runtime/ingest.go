package runtime

import "context"

// IngestStats are the boundary counters of a network-facing packet
// source feeding a serve run: what arrived, what the source itself
// dropped, and what it rejected as undecodable. The runtime does not
// maintain these — Config.Ingest supplies a snapshot closure (the repro
// package wires it to the ingest source's atomic counters) and the
// runtime surfaces the values through Snapshot.Ingest, Metrics.Ingest,
// and the ingest.* registry gauges.
type IngestStats struct {
	// RxPackets and RxBytes count packets (and their payload bytes)
	// accepted at the source boundary and handed to the pipeline.
	RxPackets, RxBytes int64
	// Drops counts packets lost at the source: on Linux the UDP source's
	// kernel receive-queue overflows; no other source drops.
	Drops int64
	// DecodeErrors counts frames rejected at the boundary: runt frames,
	// truncated capture records, oversized stream frames.
	DecodeErrors int64
}

// contextBinder is implemented by Sources whose Next blocks in real I/O
// (sockets, paced replay). Serve calls BindContext with the head's
// context before the first Next, so canceling the serve — or an internal
// error tearing the run down — unblocks a pending read instead of leaving
// the head goroutine stuck in a syscall.
type contextBinder interface {
	BindContext(ctx context.Context)
}

// packetOwner is implemented by Sources whose packets are the pipeline's
// alone once Next has returned them (the ingest feeder: Pull transfers
// ownership). The head then marks each packet owned and pkt_rx adopts its
// buffer; every other Source — Packets, Repeat, SourceFunc — may hand the
// same bytes out again, so its packets are copied before a stage can
// rewrite them.
type packetOwner interface {
	PacketsOwned() bool
}
