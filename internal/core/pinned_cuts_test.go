package core_test

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/netbench"
)

// TestPinnedCuts holds what a change to how a cut is transmitted must leave
// alone, for the six netbench PPS at D=1..10: which stage each unit is
// assigned to (assign=, an FNV-64 of the stage assignment), the naive-unified
// and naive-interference realizations (unified=, interference=, digests of
// their printed IR), and each stage's worst-path cost (total=), which may
// fall but never rise. A line that moves on purpose is regenerated with
// go test ./internal/core -run TestPinnedCuts -update.
func TestPinnedCuts(t *testing.T) {
	digest := func(progs []*ir.Program) string {
		h := fnv.New64a()
		for _, p := range progs {
			fmt.Fprintf(h, "%s\x00", p)
		}
		return fmt.Sprintf("%016x", h.Sum64())
	}
	var b strings.Builder
	for _, name := range []string{"RX", "IPv4", "Scheduler", "QM", "TX", "IP(v4)"} {
		pps, ok := netbench.ByName(name)
		if !ok {
			t.Fatalf("unknown PPS %q", name)
		}
		prog, err := pps.Compile()
		if err != nil {
			t.Fatal(err)
		}
		a, err := core.Analyze(prog, nil)
		if err != nil {
			t.Fatal(err)
		}
		for d := 1; d <= 10; d++ {
			var res [3]*core.Result
			for i, tx := range []core.TxMode{core.TxPacked, core.TxNaiveUnified, core.TxNaiveInterference} {
				if res[i], err = a.Partition(core.Options{Stages: d, Tx: tx}); err != nil {
					t.Fatalf("%s D=%d %v: %v", name, d, tx, err)
				}
			}
			h := fnv.New64a()
			fmt.Fprint(h, core.StageOf(res[0]))
			totals := make([]string, len(res[0].Report.Stages))
			for k, s := range res[0].Report.Stages {
				totals[k] = strconv.FormatInt(s.Cost.Total, 10)
			}
			fmt.Fprintf(&b, "%s d=%d assign=%016x unified=%s interference=%s total=%s\n", name, d, h.Sum64(),
				digest(res[1].Stages), digest(res[2].Stages), strings.Join(totals, ","))
		}
	}
	got := b.String()
	path := filepath.Join("testdata", "pinned_cuts.golden")
	if *updateFrontEnd {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(raw), "\n")
	if len(gl) != len(wl) {
		t.Fatalf("%d lines, %s has %d", len(gl), path, len(wl))
	}
	for i := range gl {
		gp, wp := strings.Split(gl[i], " total="), strings.Split(wl[i], " total=")
		if gp[0] != wp[0] {
			t.Errorf("line %d drifted from %s:\n got  %s\n want %s", i+1, path, gp[0], wp[0])
			continue
		}
		if len(gp) < 2 {
			continue
		}
		gt, wt := strings.Split(gp[1], ","), strings.Split(wp[1], ",")
		for k := range gt {
			g, _ := strconv.Atoi(gt[k])
			w, _ := strconv.Atoi(wt[k])
			if g > w {
				t.Errorf("%s: stage %d's worst path rose from %d to %d", gp[0], k+1, w, g)
			}
		}
	}
}
