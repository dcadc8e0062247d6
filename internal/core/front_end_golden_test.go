package core_test

import (
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/netbench"
	"repro/internal/ppc"
	"repro/internal/randprog"
)

var updateFrontEnd = flag.Bool("update", false, "rewrite the golden files under testdata")

// TestFrontEndGolden is the byte-identity oracle of the compiler's front
// half: for the six distinct netbench PPS sources and 200 random programs,
// one line holding a digest of the IR ppc.Compile prints, one of the
// dependence analysis core.Analyze built on it and one of its frozen flow
// network (core.FrontEndDigests says what each covers). Making the front end
// cheaper must leave every line alone; a change to what it computes says so
// by regenerating the file (go test ./internal/core -run TestFrontEndGolden
// -update).
func TestFrontEndGolden(t *testing.T) {
	type program struct{ name, src string }
	var progs []program
	for _, name := range []string{"RX", "IPv4", "Scheduler", "QM", "TX", "IP(v4)"} {
		p, ok := netbench.ByName(name)
		if !ok {
			t.Fatalf("unknown PPS %q", name)
		}
		progs = append(progs, program{name, p.Source})
	}
	for seed := int64(1); seed <= 200; seed++ {
		progs = append(progs, program{fmt.Sprintf("rand%d", seed), randprog.Generate(seed, randprog.DefaultConfig())})
	}
	var b strings.Builder
	for _, p := range progs {
		prog, err := ppc.Compile(p.src)
		if err != nil {
			fmt.Fprintf(&b, "%s compile error: %v\n", p.name, err)
			continue
		}
		h := fnv.New64a()
		h.Write([]byte(prog.String()))
		a, err := core.Analyze(prog, nil)
		if err != nil {
			fmt.Fprintf(&b, "%s ir=%016x analyze error: %v\n", p.name, h.Sum64(), err)
			continue
		}
		an, net := core.FrontEndDigests(a)
		fmt.Fprintf(&b, "%s ir=%016x analysis=%016x network=%016x\n", p.name, h.Sum64(), an, net)
	}
	got := b.String()
	path := filepath.Join("testdata", "front_end.golden")
	if *updateFrontEnd {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range gl {
			if i >= len(wl) || gl[i] != wl[i] {
				t.Errorf("line %d drifted from %s:\n got  %s\n want %s", i+1, path, gl[i], wl[min(i, len(wl)-1)])
			}
		}
		if len(gl) != len(wl) {
			t.Errorf("%d lines, golden has %d", len(gl), len(wl))
		}
	}
}
