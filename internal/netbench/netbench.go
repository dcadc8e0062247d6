package netbench

import (
	"fmt"
	"sync"

	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/ppc"
)

// PPS describes one benchmark packet processing stage: its PPC source, the
// application it belongs to, and the traffic that drives it.
type PPS struct {
	Name    string
	App     string
	Source  string
	Traffic func(n int) [][]byte
}

// Compile parses and lowers the PPS source.
func (p *PPS) Compile() (*ir.Program, error) {
	prog, err := ppc.Compile(p.Source)
	if err != nil {
		return nil, fmt.Errorf("netbench %s: %w", p.Name, err)
	}
	return prog, nil
}

// demoFIBs is the one build of the demo FIBs that every world reads.
// Nothing inserts into it, so any number of goroutines may look up in it.
var demoFIBs = sync.OnceValues(func() (*RouteTable4, *RouteTable6) { return DemoFIB4(), DemoFIB6() })

// NewWorld builds an interpreter world for the given traffic, wired to the
// demo FIBs (built once, shared read-only by every world).
func NewWorld(packets [][]byte) *interp.World {
	w := interp.NewWorld(packets)
	fib4, fib6 := demoFIBs()
	w.RT4 = func(addr int64) int64 { return fib4.Lookup(uint32(uint64(addr))) }
	w.RT6 = func(hi, lo int64) int64 { return fib6.Lookup(uint64(hi), uint64(lo)) }
	return w
}

// IPv4Forwarding returns the five PPSes of the NPF IPv4 forwarding
// benchmark (paper figure 18a).
func IPv4Forwarding() []PPS {
	return []PPS{
		{Name: "RX", App: "ipv4fwd", Source: RXSrc, Traffic: IPv4Stream},
		{Name: "IPv4", App: "ipv4fwd", Source: IPv4Src, Traffic: IPv4Stream},
		{Name: "Scheduler", App: "ipv4fwd", Source: SchedulerSrc, Traffic: IPv4Stream},
		{Name: "QM", App: "ipv4fwd", Source: QMSrc, Traffic: IPv4Stream},
		{Name: "TX", App: "ipv4fwd", Source: TXSrc, Traffic: IPv4Stream},
	}
}

// IPForwarding returns the PPSes of the NPF IP forwarding benchmark (paper
// figure 18b). The IP PPS appears twice, once per traffic class, matching
// the paper's per-traffic measurements.
func IPForwarding() []PPS {
	return []PPS{
		{Name: "RX", App: "ipforward", Source: RXSrc, Traffic: MixedStream},
		{Name: "IP(v4)", App: "ipforward", Source: IPSrc, Traffic: IPv4Stream},
		{Name: "IP(v6)", App: "ipforward", Source: IPSrc, Traffic: IPv6Stream},
		{Name: "TX", App: "ipforward", Source: TXSrc, Traffic: MixedStream},
	}
}

// ByName finds a PPS in either benchmark.
func ByName(name string) (PPS, bool) {
	for _, p := range append(IPv4Forwarding(), IPForwarding()...) {
		if p.Name == name {
			return p, true
		}
	}
	return PPS{}, false
}
