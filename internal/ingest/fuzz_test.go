package ingest

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"strings"
	"testing"

	"repro/internal/errs"
)

// FuzzOpenSpec throws arbitrary operator input at the source-spec parser:
// it must never panic, and whatever it rejects it rejects as
// errs.ErrBadSource. Only the side-effect-free half runs on every input —
// socket specs are parsed but never bound (no listener, no DNS lookup) and
// capture paths never read; a gen:// spec is also opened, since seeding the
// generator touches nothing outside the process, and must then either be
// refused as ErrBadSource or deliver its first packets.
func FuzzOpenSpec(f *testing.F) {
	for _, s := range []string{
		"udp://:9000", "tcp://127.0.0.1:9001", "udp://[::1]:53", "tcp://nohost",
		"pcap://testdata/flows.pcap?pace=1&loop=3", "pcap://x?pace=-1", "pcap://x?loop=1e9",
		"gen://ipv4?seed=7&packets=100&flows=64&alpha=1.3&peak=200000",
		"gen://ipv4?flows=9223372036854775807", "gen://?alpha=NaN", "gen://ipv6", "gen://?paced=maybe",
		"", "://", "http://x", "gen://ipv4?%zz", "gen://ipv4?packets=-1", "gen://?peak=0",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		open, err := parseSpec(spec)
		if err != nil {
			if !errors.Is(err, errs.ErrBadSource) {
				t.Fatalf("parseSpec(%q): error does not wrap ErrBadSource: %v", spec, err)
			}
			return
		}
		if !strings.HasPrefix(spec, "gen://") {
			return
		}
		src, err := open()
		if err != nil {
			if !errors.Is(err, errs.ErrBadSource) {
				t.Fatalf("Open(%q): error does not wrap ErrBadSource: %v", spec, err)
			}
			return
		}
		defer src.Close()
		ctx, cancel := context.WithCancel(context.Background())
		cancel() // a paced generator must not sleep the fuzzer: canceled pulls return at once
		dst := make([][]byte, 8)
		if n, err := src.Pull(ctx, dst); err != nil && err != io.EOF && !errors.Is(err, context.Canceled) {
			t.Fatalf("Open(%q): first Pull = %d, %v", spec, n, err)
		}
	})
}

// FuzzPcapDecode feeds arbitrary bytes to the capture reader, the one
// parser here that reads files an operator did not write. It must never
// panic; it must not allocate past its input (records alias the input, so
// headers plus bodies fit inside it); an unusable header is ErrBadSource;
// and a replay of whatever decoded delivers exactly those records and
// counts the rejected tail in DecodeErrors.
func FuzzPcapDecode(f *testing.F) {
	good := EncodePcap([]PcapRecord{{Data: []byte{1, 2, 3}}, {Data: nil}, {Data: bytes.Repeat([]byte{9}, 70)}})
	f.Add(good)
	f.Add(good[:len(good)-5])                                  // truncated body
	f.Add(good[:pcapHdrLen+pcapRecLen-1])                      // truncated record header
	f.Add(good[:pcapHdrLen])                                   // header only
	f.Add(good[:7])                                            // short header
	f.Add(append([]byte{0xd4, 0xc3, 0xb2, 0xa1}, good[4:]...)) // little-endian magic over big-endian body
	huge := append([]byte(nil), good[:pcapHdrLen+pcapRecLen]...)
	copy(huge[pcapHdrLen+8:], []byte{0xff, 0xff, 0xff, 0xff}) // incl_len 4 GiB
	f.Add(huge)
	if fixture, err := os.ReadFile("../../testdata/flows.pcap"); err == nil {
		f.Add(fixture[:4096])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, trunc, err := DecodePcap(data)
		src, oerr := newPcapSource("fuzz", data, PcapOptions{})
		if err != nil {
			if len(recs) != 0 || !errors.Is(oerr, errs.ErrBadSource) {
				t.Fatalf("unusable header (%v): %d records, source error %v", err, len(recs), oerr)
			}
			return
		}
		if oerr != nil {
			t.Fatalf("DecodePcap accepted what the source refused: %v", oerr)
		}
		used, bytesIn := pcapHdrLen, int64(0)
		for _, r := range recs {
			used += pcapRecLen + len(r.Data)
			bytesIn += int64(len(r.Data))
		}
		if used > len(data) || trunc < 0 || trunc > 1 || (trunc == 0 && used != len(data)) {
			t.Fatalf("%d input bytes: %d records account for %d bytes, truncated=%d", len(data), len(recs), used, trunc)
		}
		delivered, dst := 0, make([][]byte, 16)
		for {
			n, err := src.Pull(context.Background(), dst)
			delivered += n
			if err == io.EOF {
				break
			}
			if err != nil || n == 0 {
				t.Fatalf("Pull = %d, %v", n, err)
			}
		}
		v := src.Stats().View()
		if delivered != len(recs) || v.RxPackets != int64(len(recs)) || v.RxBytes != bytesIn || v.DecodeErrors != int64(trunc) {
			t.Fatalf("replay delivered %d of %d records; stats %+v, want %d bytes and %d decode errors",
				delivered, len(recs), v, bytesIn, trunc)
		}
	})
}

// FuzzTCPFramer feeds arbitrary byte streams to the TCP source's frame
// reader, the parser a remote peer writes to. It must never panic and
// never yield an empty or oversized frame; the yielded frames, each behind
// its length header, must concatenate to a prefix of the input; the reader
// may stop short of the input's end only where the rest is malformed (a
// zero length, a cut header, a cut body); and such a stream counts exactly
// one decode error, a clean one none.
func FuzzTCPFramer(f *testing.F) {
	frame := func(payloads ...[]byte) []byte {
		var out []byte
		for _, p := range payloads {
			out = append(binary.BigEndian.AppendUint16(out, uint16(len(p))), p...)
		}
		return out
	}
	good := frame([]byte{1, 2, 3}, []byte{4}, bytes.Repeat([]byte{9}, 300))
	f.Add(good)
	f.Add([]byte{})
	f.Add(good[:len(good)-5])                          // cut mid-body
	f.Add(good[:6])                                    // cut mid-header
	f.Add(append(frame([]byte{7, 7}), 0, 0, 1, 2))     // zero length after a good frame
	f.Add(append([]byte{0xff, 0xff}, good...))         // claims 65535 bytes, delivers fewer
	f.Add(frame(bytes.Repeat([]byte{5}, maxTCPFrame))) // the largest legal frame
	// 14 KB of small frames: some are cut by the ends of the first chunks.
	f.Add(bytes.Repeat(frame([]byte{6, 6, 6, 6, 6}), 2000))
	f.Fuzz(func(t *testing.T, data []byte) {
		frames, decodeErrors := framesOf(bytes.NewReader(data), len(data))
		off := 0
		for _, buf := range frames {
			if len(buf) == 0 || len(buf) > maxTCPFrame {
				t.Fatalf("yielded a %d-byte frame", len(buf))
			}
			end := off + 2 + len(buf)
			if end > len(data) || int(binary.BigEndian.Uint16(data[off:])) != len(buf) || !bytes.Equal(data[off+2:end], buf) {
				t.Fatalf("frame at offset %d (%d bytes) is not what the input holds there", off, len(buf))
			}
			off = end
		}
		rest, wantErrs := data[off:], int64(0)
		if len(rest) > 0 {
			wantErrs = 1
			if len(rest) >= 2 {
				if size := int(binary.BigEndian.Uint16(rest)); size != 0 && len(rest) >= 2+size {
					t.Fatalf("stopped at offset %d in front of a well-formed %d-byte frame", off, size)
				}
			}
		}
		if decodeErrors != wantErrs {
			t.Fatalf("%d input bytes, %d unread: %d decode errors, want %d", len(data), len(rest), decodeErrors, wantErrs)
		}
	})
}
