package ingest

import (
	"context"
	"errors"
	"io"
)

// Feeder flattens a batch-pull Source into per-packet Next calls, with false
// meaning "stream over": the shape of a per-packet consumer. The serve
// runtime does not use it — its head pulls a Source a batch at a time — but
// the benchmark's ingest floor prices what flattening costs.
//
// The Feeder buffers one pulled batch without locking, so Next must be
// called from one goroutine.
type Feeder struct {
	src   Source
	buf   [][]byte
	next  int
	err   error
	batch int
}

// NewFeeder wraps src pulling up to batch packets per Pull; batch < 1 is
// treated as 1.
func NewFeeder(src Source, batch int) *Feeder {
	if batch < 1 {
		batch = 1
	}
	return &Feeder{src: src, batch: batch}
}

// Next returns the next packet, pulling a fresh batch from the source
// when the buffered one is drained. It returns ok=false at clean end of
// stream and on source error; Err distinguishes the two.
func (f *Feeder) Next() ([]byte, bool) {
	for f.next >= len(f.buf) {
		if f.err != nil {
			return nil, false
		}
		if cap(f.buf) < f.batch {
			f.buf = make([][]byte, f.batch)
		}
		f.buf = f.buf[:f.batch]
		n, err := f.src.Pull(context.Background(), f.buf)
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

// Err reports why the stream ended, or nil if it is still live or ended
// cleanly at io.EOF.
func (f *Feeder) Err() error {
	if errors.Is(f.err, io.EOF) {
		return nil
	}
	return f.err
}
