package ingest

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"

	"repro/internal/errs"
)

// Source supplies packets to a served pipeline in pull batches.
//
// Pull blocks until at least one packet is available (or ctx is done),
// fills dst[0:n] with packet buffers, and returns n. It never blocks to
// fill slots beyond the first: a source with three packets on hand and a
// 32-slot dst returns 3 immediately. Pull returns (0, io.EOF) when the
// stream is cleanly exhausted (a pcap fully replayed, a generator out of
// packets) and (0, ctx.Err()) when canceled; any other error is an I/O
// failure and the source is dead.
//
// Ownership transfers at Pull: the bytes of each returned slice are the
// caller's and will never be read or written by the source again. This
// is what lets the serve runtime's token free-list recycle batches
// without copying packet bytes. Slices may share an allocation (a socket
// source's receive chunk; len == cap, so append reallocates): a retained
// packet pins at most one chunk.
//
// Pull is single-consumer — the runtime calls it from exactly one
// goroutine — but Stats and Close may be called concurrently with Pull.
type Source interface {
	Pull(ctx context.Context, dst [][]byte) (int, error)
	Stats() *Stats
	Close() error
}

// Stats counts what a source saw at its boundary. All fields are updated
// atomically; read them through View for a consistent-enough snapshot.
type Stats struct {
	rxPackets    atomic.Int64
	rxBytes      atomic.Int64
	drops        atomic.Int64
	decodeErrors atomic.Int64
}

// View is a point-in-time copy of a source's counters.
type View struct {
	// RxPackets counts packets accepted and handed to Pull callers.
	RxPackets int64
	// RxBytes counts the payload bytes of accepted packets.
	RxBytes int64
	// Drops counts packets lost before Pull could take them: on Linux the
	// UDP source's kernel receive-queue overflows (see UDPSource).
	Drops int64
	// DecodeErrors counts frames rejected at the boundary: runt frames,
	// truncated pcap records, oversized TCP frames.
	DecodeErrors int64
}

// View returns a snapshot of the counters.
func (s *Stats) View() View {
	return View{
		RxPackets:    s.rxPackets.Load(),
		RxBytes:      s.rxBytes.Load(),
		Drops:        s.drops.Load(),
		DecodeErrors: s.decodeErrors.Load(),
	}
}

func (s *Stats) countRx(n int) {
	s.rxPackets.Add(1)
	s.rxBytes.Add(int64(n))
}

// countRxBatch books the packets one Pull hands out: two atomic adds per
// batch, not per packet.
func (s *Stats) countRxBatch(pkts [][]byte) {
	var size int64
	for _, p := range pkts {
		size += int64(len(p))
	}
	s.rxPackets.Add(int64(len(pkts)))
	s.rxBytes.Add(size)
}

// Open builds a Source from an operator-facing spec of the form
// scheme://rest:
//
//	udp://:9000
//	tcp://127.0.0.1:9001
//	pcap://testdata/flows.pcap?pace=1&loop=3
//	gen://ipv4?seed=7&packets=100000&flows=64&alpha=1.3&peak=200000
//
// Socket sources start listening immediately. Pcap paths are relative to
// the working directory; pace=0 (default) replays as fast as the pipeline
// pulls, pace=1 at recorded timestamps, pace=N at N× recorded speed.
// Malformed specs return an error wrapping errs.ErrBadSource.
func Open(spec string) (Source, error) {
	open, err := parseSpec(spec)
	if err != nil {
		return nil, err
	}
	return open()
}

// parseSpec is Open up to the side effect: it checks everything the spec
// string alone can get wrong — scheme, address form, parameter syntax — and
// returns the function that then binds the socket, reads the capture or
// seeds the generator. Every error it returns wraps errs.ErrBadSource.
func parseSpec(spec string) (open func() (Source, error), err error) {
	scheme, rest, ok := strings.Cut(spec, "://")
	if !ok {
		return nil, fmt.Errorf("%w: %q has no scheme:// prefix", errs.ErrBadSource, spec)
	}
	rest, query, _ := strings.Cut(rest, "?")
	params, err := url.ParseQuery(query)
	if err != nil {
		return nil, fmt.Errorf("%w: %q: %v", errs.ErrBadSource, spec, err)
	}
	switch scheme {
	case "udp", "tcp":
		if _, _, err := net.SplitHostPort(rest); err != nil {
			return nil, fmt.Errorf("%w: %s://%s: %v", errs.ErrBadSource, scheme, rest, err)
		}
		if scheme == "udp" {
			return func() (Source, error) { return OpenUDP(rest) }, nil
		}
		return func() (Source, error) { return OpenTCP(rest) }, nil
	case "pcap":
		opts := PcapOptions{}
		if v := params.Get("pace"); v != "" {
			opts.Pace, err = strconv.ParseFloat(v, 64)
			if err != nil || !(opts.Pace >= 0) {
				return nil, fmt.Errorf("%w: pace=%q must be a non-negative number", errs.ErrBadSource, v)
			}
		}
		if v := params.Get("loop"); v != "" {
			opts.Loop, err = strconv.Atoi(v)
			if err != nil || opts.Loop < 0 {
				return nil, fmt.Errorf("%w: loop=%q must be a non-negative integer", errs.ErrBadSource, v)
			}
		}
		return func() (Source, error) { return OpenPcap(rest, opts) }, nil
	case "gen":
		cfg := DefaultGenConfig()
		if rest != "" && rest != "ipv4" {
			return nil, fmt.Errorf("%w: unknown generator profile %q (want \"ipv4\")", errs.ErrBadSource, rest)
		}
		for key, set := range map[string]func(int64){
			"seed":    func(v int64) { cfg.Seed = v },
			"packets": func(v int64) { cfg.Packets = int(v) },
			"flows":   func(v int64) { cfg.Flows = int(v) },
			"peak":    func(v int64) { cfg.PeakRate = float64(v) },
		} {
			if v := params.Get(key); v != "" {
				n, err := strconv.ParseInt(v, 10, 64)
				if err != nil {
					return nil, fmt.Errorf("%w: %s=%q must be an integer", errs.ErrBadSource, key, v)
				}
				set(n)
			}
		}
		if v := params.Get("alpha"); v != "" {
			cfg.Alpha, err = strconv.ParseFloat(v, 64)
			if err != nil {
				return nil, fmt.Errorf("%w: alpha=%q must be a number", errs.ErrBadSource, v)
			}
		}
		if v := params.Get("paced"); v != "" {
			cfg.Paced, err = strconv.ParseBool(v)
			if err != nil {
				return nil, fmt.Errorf("%w: paced=%q must be a boolean", errs.ErrBadSource, v)
			}
		}
		return func() (Source, error) { return NewGenerator(cfg) }, nil
	default:
		return nil, fmt.Errorf("%w: unknown scheme %q (want udp, tcp, pcap, or gen)", errs.ErrBadSource, scheme)
	}
}

// Limit wraps src so that at most n packets are delivered; the n+1'th
// Pull returns io.EOF. It lets an open-ended socket source drive a
// bounded demo (`ppcc -serve=N -source udp://...`).
func Limit(src Source, n int64) Source {
	return &limitSource{src: src, left: n}
}

type limitSource struct {
	src  Source
	left int64
}

func (l *limitSource) Pull(ctx context.Context, dst [][]byte) (int, error) {
	if l.left <= 0 {
		return 0, io.EOF
	}
	if int64(len(dst)) > l.left {
		dst = dst[:l.left]
	}
	n, err := l.src.Pull(ctx, dst)
	l.left -= int64(n)
	return n, err
}

func (l *limitSource) Stats() *Stats { return l.src.Stats() }
func (l *limitSource) Close() error  { return l.src.Close() }

// Tee wraps src and appends a copy of every delivered packet to an
// in-memory capture, so a caller can replay exactly what the pipeline
// saw (the oracle check in ppcc feeds the captured stream to the
// sequential interpreter). Captured returns the packets delivered so
// far; it must not be called concurrently with Pull.
func Tee(src Source) *TeeSource {
	return &TeeSource{src: src}
}

// TeeSource is the capturing wrapper returned by Tee.
type TeeSource struct {
	src      Source
	captured [][]byte
}

// Pull delegates to the wrapped source and records copies of the
// delivered packets.
func (t *TeeSource) Pull(ctx context.Context, dst [][]byte) (int, error) {
	n, err := t.src.Pull(ctx, dst)
	for _, p := range dst[:n] {
		t.captured = append(t.captured, append([]byte(nil), p...))
	}
	return n, err
}

// Stats returns the wrapped source's counters.
func (t *TeeSource) Stats() *Stats { return t.src.Stats() }

// Close closes the wrapped source.
func (t *TeeSource) Close() error { return t.src.Close() }

// Captured returns the packets delivered through the tee so far.
func (t *TeeSource) Captured() [][]byte { return t.captured }
