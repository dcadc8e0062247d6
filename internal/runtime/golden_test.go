package runtime_test

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/runtime"
	"repro/internal/runtime/fault"
)

var update = flag.Bool("update", false, "rewrite the golden FaultReport fixtures")

// TestFaultReportGolden locks down the rendered FaultReport for a fixed
// fault schedule: a panic cadence at stage 1, a one-off panic at stage 2, and
// a stall at stage 2, which delays its packet and loses nothing. The schedule
// is fully deterministic — quarantining faults are keyed on iteration indices
// and the record reasons embed no measured times — so the rendering must be
// byte-stable across runs, machines, and schedulers. Regenerate with:
// go test ./internal/runtime -run TestFaultReportGolden -update
func TestFaultReportGolden(t *testing.T) {
	const n = 24
	_, stages := partitionIPv4(t, 2)
	traffic := ipv4Traffic(n)
	t.Run("quarantine", func(t *testing.T) {
		cfg := runtime.Config{}
		cfg.Faults = &fault.Plan{Injections: []fault.Injection{
			{Kind: fault.Panic, Stage: 1, Every: 6},
			{Kind: fault.Panic, Stage: 2, At: 2},
			{Kind: fault.Stall, Stage: 2, At: 14, Sleep: 20 * time.Millisecond},
		}}
		m := chaosServe(t, stages, traffic, cfg)
		checkAccounting(t, m)
		got := m.Faults.String()
		path := filepath.Join("testdata", "faultreport_quarantine.golden")
		if *update {
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (regenerate with -update)", err)
		}
		if got != string(want) {
			t.Errorf("fault report drifted from %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
		}
	})
}
