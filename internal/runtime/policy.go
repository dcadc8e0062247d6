package runtime

import "repro/internal/costmodel"

// OverloadPolicy decides what a stage does when its outgoing ring stays
// saturated past the watermark.
type OverloadPolicy uint8

const (
	// OverloadBlock is the default: the producer waits for ring space,
	// exerting backpressure all the way to the source (lossless).
	OverloadBlock OverloadPolicy = iota
	// OverloadShed drops the blocked batch: its packets are counted and
	// recorded as shed, and the producer moves on. Head-of-line blocking
	// never propagates upstream; throughput is preserved at the cost of
	// losing packets under overload.
	OverloadShed
)

// String returns the policy's name as used in flags and reports.
func (p OverloadPolicy) String() string {
	switch p {
	case OverloadBlock:
		return "block"
	case OverloadShed:
		return "shed"
	}
	return "?"
}

// DefaultRingCapacity is a ring kind's default per-ring entry count:
// nearest-neighbor rings are small on-chip buffers, scratch rings are deeper.
// A Config's RingCapacity of 0 selects the nearest-neighbor one.
func DefaultRingCapacity(ch costmodel.ChannelKind) int {
	if ch == costmodel.ScratchRing {
		return 64
	}
	return 8
}
