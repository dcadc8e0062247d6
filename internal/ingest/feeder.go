package ingest

import (
	"context"
	"errors"
	"io"
)

// Feeder adapts a batch-pull Source to the serve runtime's per-packet
// head-of-pipe contract: Next() ([]byte, bool) with false meaning "stream
// over". It satisfies runtime.Source structurally (this package must not
// import the runtime, nor the runtime this package — the root repro
// package glues them together).
//
// Next is called only from the runtime's head/dispatcher goroutine, so
// the Feeder buffers one pulled batch without locking. The runtime stops
// calling Next while the first ring is full, which stops Pull, which is
// how first-ring backpressure reaches the socket.
type Feeder struct {
	src   Source
	ctx   context.Context
	buf   [][]byte
	next  int
	err   error
	batch int
}

// NewFeeder wraps src pulling up to batch packets per Pull. The batch
// should match the runtime's ring-entry batch so one syscall-bound pull
// fills one ring entry; batch < 1 is treated as 1.
func NewFeeder(src Source, batch int) *Feeder {
	if batch < 1 {
		batch = 1
	}
	return &Feeder{src: src, ctx: context.Background(), batch: batch}
}

// BindContext sets the context Pull runs under. The runtime calls this
// with the serve's internal context before the first Next, so canceling the
// serve — or a stage error tearing it down — unblocks a socket read.
func (f *Feeder) BindContext(ctx context.Context) { f.ctx = ctx }

// Next returns the next packet, pulling a fresh batch from the source
// when the buffered one is drained. It returns ok=false at clean end of
// stream, on cancelation, and on source error; Err distinguishes the
// last case.
func (f *Feeder) Next() ([]byte, bool) {
	for f.next >= len(f.buf) {
		if f.err != nil {
			return nil, false
		}
		if cap(f.buf) < f.batch {
			f.buf = make([][]byte, f.batch)
		}
		f.buf = f.buf[:f.batch]
		n, err := f.src.Pull(f.ctx, f.buf)
		f.buf, f.next = f.buf[:n], 0
		if err != nil {
			f.err = err
			if n == 0 {
				return nil, false
			}
		}
	}
	p := f.buf[f.next]
	f.next++
	return p, true
}

// PacketsOwned tells the runtime that a packet Next returns is the caller's
// alone — Pull transferred its ownership and the Feeder keeps no other
// reference — so the pipeline may rewrite it in place instead of copying.
func (f *Feeder) PacketsOwned() bool { return true }

// Err reports why the stream ended, or nil if it is still live or ended
// cleanly (io.EOF and context cancelation are clean ends — the runtime
// already reports cancelation through its own serve error).
func (f *Feeder) Err() error {
	if f.err == nil || errors.Is(f.err, io.EOF) ||
		errors.Is(f.err, context.Canceled) || errors.Is(f.err, context.DeadlineExceeded) {
		return nil
	}
	return f.err
}

// Stats returns the wrapped source's counters.
func (f *Feeder) Stats() *Stats { return f.src.Stats() }

// Close closes the wrapped source.
func (f *Feeder) Close() error { return f.src.Close() }
