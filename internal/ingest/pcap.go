package ingest

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/errs"
)

// Classic libpcap file format (not pcapng), parsed without cgo. Four
// magic variants cover both byte orders at both tick resolutions:
//
//	a1 b2 c3 d4   native order, microsecond timestamps
//	d4 c3 b2 a1   swapped order, microsecond timestamps
//	a1 b2 3c 4d   native order, nanosecond timestamps
//	4d 3c b2 a1   swapped order, nanosecond timestamps
//
// Global header: magic(4) ver_major(2) ver_minor(2) thiszone(4)
// sigfigs(4) snaplen(4) linktype(4) = 24 bytes. Each record: ts_sec(4)
// ts_subsec(4) incl_len(4) orig_len(4) = 16 bytes, then incl_len bytes
// of packet data.
const (
	pcapMagicUsec = 0xa1b2c3d4
	pcapMagicNsec = 0xa1b23c4d
	pcapHdrLen    = 24
	pcapRecLen    = 16

	// pcapLinkRaw marks "raw packet data, no link-layer header" —
	// LINKTYPE_USER0 keeps the checked-in fixtures honest about
	// carrying POS frames rather than Ethernet.
	pcapLinkRaw = 147
)

// maxPcapRecord rejects records whose incl_len is implausible for this
// repo's traffic (a corrupted length would otherwise allocate wildly).
const maxPcapRecord = 1 << 20

// PcapRecord is one decoded capture record: the packet bytes and the
// recorded timestamp.
type PcapRecord struct {
	Time time.Time
	Data []byte
}

// PcapOptions control replay behavior.
type PcapOptions struct {
	// Pace scales replay timing: 0 replays as fast as the pipeline
	// pulls (no sleeping), 1 replays at the recorded inter-packet gaps,
	// N>1 at N× recorded speed (gaps divided by N).
	Pace float64
	// Loop replays the file Loop times (0 and 1 both mean once).
	Loop int
}

// PcapSource replays a libpcap capture file. The whole file is decoded
// at Open — capture fixtures here are small and decoding up front keeps
// Pull allocation-free except for the per-packet copies that ownership
// transfer requires. Truncated records (incl_len past end of file) are
// counted as decode errors and replay stops there.
type PcapSource struct {
	recs    []PcapRecord
	opts    PcapOptions
	stats   Stats
	next    int
	pass    int
	started time.Time
	base    time.Time
	trunc   int
}

// OpenPcap decodes the capture at path. Format errors (bad magic, short
// global header) wrap errs.ErrBadSource; a record truncated by end of
// file is tolerated and counted as a decode error at replay time.
func OpenPcap(path string, opts PcapOptions) (*PcapSource, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("pcap://%s: %w", path, err)
	}
	return newPcapSource(path, data, opts)
}

// newPcapSource decodes a capture already in memory; name labels errors.
func newPcapSource(name string, data []byte, opts PcapOptions) (*PcapSource, error) {
	recs, trunc, err := DecodePcap(data)
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", errs.ErrBadSource, name, err)
	}
	s := &PcapSource{recs: recs, opts: opts, trunc: trunc}
	if len(recs) > 0 {
		s.base = recs[0].Time
	}
	return s, nil
}

// DecodePcap parses a classic libpcap byte stream into records. It
// returns the records decoded, the count of trailing truncated records
// (0 or 1 — decoding stops at the first), and an error only for an
// unusable header.
func DecodePcap(data []byte) (recs []PcapRecord, truncated int, err error) {
	if len(data) < pcapHdrLen {
		return nil, 0, fmt.Errorf("short global header: %d bytes", len(data))
	}
	var order binary.ByteOrder = binary.BigEndian
	var nsec bool
	switch m := binary.BigEndian.Uint32(data[0:4]); m {
	case pcapMagicUsec:
	case pcapMagicNsec:
		nsec = true
	default:
		switch binary.LittleEndian.Uint32(data[0:4]) {
		case pcapMagicUsec:
			order = binary.LittleEndian
		case pcapMagicNsec:
			order = binary.LittleEndian
			nsec = true
		default:
			return nil, 0, fmt.Errorf("bad magic %#08x", m)
		}
	}
	off := pcapHdrLen
	for off < len(data) {
		if off+pcapRecLen > len(data) {
			return recs, 1, nil // truncated record header
		}
		sec := order.Uint32(data[off : off+4])
		sub := order.Uint32(data[off+4 : off+8])
		incl := int(order.Uint32(data[off+8 : off+12]))
		off += pcapRecLen
		if incl > maxPcapRecord {
			return recs, 1, nil // corrupt length; stop here
		}
		if off+incl > len(data) {
			return recs, 1, nil // truncated packet body
		}
		ts := time.Unix(int64(sec), 0)
		if nsec {
			ts = ts.Add(time.Duration(sub))
		} else {
			ts = ts.Add(time.Duration(sub) * time.Microsecond)
		}
		recs = append(recs, PcapRecord{Time: ts, Data: data[off : off+incl]})
		off += incl
	}
	return recs, 0, nil
}

// PcapWriter streams records to w as a classic big-endian microsecond-tick
// libpcap file with the raw link type — the one encoder behind EncodePcap,
// WritePcap and the serve path's pcap sink. The global header goes out with
// the first record (or with Flush, so an empty capture is still a valid
// file); writes are buffered.
type PcapWriter struct {
	w      *bufio.Writer
	headed bool
}

// NewPcapWriter returns a writer onto w; the caller closes w after Flush.
func NewPcapWriter(w io.Writer) *PcapWriter { return &PcapWriter{w: bufio.NewWriter(w)} }

func (p *PcapWriter) header() {
	var hdr [pcapHdrLen]byte
	binary.BigEndian.PutUint32(hdr[0:4], pcapMagicUsec)
	binary.BigEndian.PutUint16(hdr[4:6], 2) // version 2.4
	binary.BigEndian.PutUint16(hdr[6:8], 4)
	binary.BigEndian.PutUint32(hdr[16:20], maxPcapRecord) // snaplen
	binary.BigEndian.PutUint32(hdr[20:24], pcapLinkRaw)
	p.w.Write(hdr[:]) //nolint:errcheck // a bufio.Writer keeps its first error for Flush
	p.headed = true
}

// Write appends one record.
func (p *PcapWriter) Write(r PcapRecord) error {
	if !p.headed {
		p.header()
	}
	var rec [pcapRecLen]byte
	binary.BigEndian.PutUint32(rec[0:4], uint32(r.Time.Unix()))
	binary.BigEndian.PutUint32(rec[4:8], uint32(r.Time.Nanosecond()/1000))
	binary.BigEndian.PutUint32(rec[8:12], uint32(len(r.Data)))
	binary.BigEndian.PutUint32(rec[12:16], uint32(len(r.Data)))
	p.w.Write(rec[:]) //nolint:errcheck // reported by the data write below
	_, err := p.w.Write(r.Data)
	return err
}

// Flush writes out what is buffered, the header included, and reports the
// first error any write met.
func (p *PcapWriter) Flush() error {
	if !p.headed {
		p.header()
	}
	return p.w.Flush()
}

// EncodePcap serializes records in the PcapWriter format; the inverse of
// DecodePcap, used to build checked-in fixtures deterministically.
func EncodePcap(recs []PcapRecord) []byte {
	var out bytes.Buffer
	w := NewPcapWriter(&out)
	for _, r := range recs {
		w.Write(r) //nolint:errcheck // a bytes.Buffer does not fail
	}
	w.Flush() //nolint:errcheck
	return out.Bytes()
}

// WritePcap writes records to path in the same format.
func WritePcap(path string, recs []PcapRecord) error {
	return os.WriteFile(path, EncodePcap(recs), 0o644)
}

// Pull delivers the next batch of records, pacing against recorded
// timestamps when opts.Pace > 0. Each returned slice is a fresh copy
// (ownership transfers to the caller; a looped replay re-delivers the
// same record).
func (p *PcapSource) Pull(ctx context.Context, dst [][]byte) (int, error) {
	if len(dst) == 0 {
		return 0, nil
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	loops := p.opts.Loop
	if loops < 1 {
		loops = 1
	}
	if p.next >= len(p.recs) {
		p.pass++
		if p.pass >= loops || len(p.recs) == 0 {
			if p.trunc > 0 && p.pass == loops {
				p.stats.decodeErrors.Add(int64(p.trunc))
			}
			return 0, io.EOF
		}
		p.next = 0
		p.started = time.Time{} // restart the pacing clock each pass
	}
	if p.opts.Pace > 0 && p.started.IsZero() {
		p.started = time.Now()
	}
	n := 0
	for n < len(dst) && p.next < len(p.recs) {
		rec := p.recs[p.next]
		if p.opts.Pace > 0 {
			due := p.started.Add(time.Duration(float64(rec.Time.Sub(p.base)) / p.opts.Pace))
			if wait := time.Until(due); wait > 0 {
				if n > 0 {
					// Never sleep while holding packets; deliver what we
					// have and pace the rest on the next Pull.
					return n, nil
				}
				t := time.NewTimer(wait)
				select {
				case <-t.C:
				case <-ctx.Done():
					t.Stop()
					return 0, ctx.Err()
				}
			}
		}
		dst[n] = append([]byte(nil), rec.Data...)
		p.stats.countRx(len(rec.Data))
		n++
		p.next++
	}
	return n, nil
}

// Stats returns the source's boundary counters.
func (p *PcapSource) Stats() *Stats { return &p.stats }

// Close releases the decoded capture.
func (p *PcapSource) Close() error {
	p.recs = nil
	return nil
}
