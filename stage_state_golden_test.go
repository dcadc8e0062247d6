package repro_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/errs"
	"repro/internal/exec"
	"repro/internal/experiments"
	"repro/internal/ir"
	"repro/internal/netbench"
	"repro/internal/ppc"
	"repro/internal/randprog"
	"repro/internal/runtime"
)

// verdict renders a validator's answer: nil, or the sentinel it wraps (if
// any) and its message.
func verdict(err error) string {
	if err == nil {
		return "nil"
	}
	for _, s := range []struct {
		name string
		err  error
	}{{"ErrNoStages", errs.ErrNoStages}, {"ErrNilStage", errs.ErrNilStage}, {"ErrNotServable", errs.ErrNotServable}} {
		if errors.Is(err, s.err) {
			return fmt.Sprintf("%s(%q)", s.name, err.Error())
		}
	}
	return fmt.Sprintf("error(%q)", err.Error())
}

// stageState renders what every consumer of a stage list decides about each
// stage's state: exec's batching verdict (Lowered.Serial and Carried), the
// replica width the serve runtime gives it at P=2 ("-" when the list is not
// servable), and the verdicts of runtime.Validate and core.ValidateStages on
// the whole list. fuse is the fuse mask the stages were coarsened by
// (NewCoarseLayout's). It fails t, naming the list by label, when a serial
// stage replicates. The converse does not hold and is not asserted: the
// runtime scans the IR, exec the lowered program, so a store exec folds away
// (rand50's csum_fold(-0)) leaves a stage [par 1] — run once though it could
// replicate, which is conservative and correct.
func stageState(t *testing.T, label string, stages []*ir.Program, fuse uint64) string {
	var b strings.Builder
	var plain []int
	if l, err := runtime.NewCoarseLayout(stages, fuse, runtime.Config{Shards: 2}); err == nil {
		plain = l.Replicas()
	}
	for k, r := range exec.NewStageRunners(stages, nil) {
		lo := r.Lowered()
		state := "par"
		if lo.Serial {
			state = "serial(" + lo.Carried + ")"
		}
		reps := "-"
		if plain != nil {
			reps = fmt.Sprint(plain[k])
			if lo.Serial && plain[k] > 1 {
				t.Errorf("%s: serial stage %d replicates %s", label, k+1, reps)
			}
		}
		fmt.Fprintf(&b, " [%s %s]", state, reps)
	}
	fmt.Fprintf(&b, " runtime=%s core=%s", verdict(runtime.Validate(stages)), verdict(core.ValidateStages(stages)))
	return b.String()
}

// TestStageStateGolden is the oracle of every per-stage state decision: one
// line per stage list — the six netbench PPS at D=1..10, their coarsenings
// with every second cut un-made at D=4 and D=8, 200 random programs at
// D=1..4, and the hand-built lists of TestValidateRejectsUnservable — each
// holding stageState's rendering. A change to how a stage's state is
// decided must leave every line alone; regenerate with
// go test . -run TestStageStateGolden -update.
func TestStageStateGolden(t *testing.T) {
	var b strings.Builder
	for _, name := range sweepPPS {
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
		for _, d := range experiments.Degrees {
			res, err := a.Partition(core.Options{Stages: d})
			if err != nil {
				t.Fatalf("%s D=%d: %v", name, d, err)
			}
			label := fmt.Sprintf("%s d=%d", name, d)
			fmt.Fprintf(&b, "%s%s\n", label, stageState(t, label, res.Stages, 0))
			if d != 4 && d != 8 {
				continue
			}
			units, err := res.Coarsen(everySecondCut)
			if err != nil {
				t.Fatalf("%s D=%d coarsen: %v", name, d, err)
			}
			progs := make([]*ir.Program, len(units))
			for i, u := range units {
				progs[i] = u.Prog
			}
			label += " coarsen"
			fmt.Fprintf(&b, "%s%s\n", label, stageState(t, label, progs, everySecondCut&(1<<(d-1)-1)))
		}
	}
	for seed := int64(0); seed < 200; seed++ {
		prog, err := ppc.Compile(randprog.Generate(seed, randprog.DefaultConfig()))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		a, err := core.Analyze(prog, nil)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for d := 1; d <= 4; d++ {
			res, err := a.Partition(core.Options{Stages: d})
			if err != nil {
				fmt.Fprintf(&b, "rand%d d=%d partition=%s\n", seed, d, verdict(err))
				continue
			}
			label := fmt.Sprintf("rand%d d=%d", seed, d)
			fmt.Fprintf(&b, "%s%s\n", label, stageState(t, label, res.Stages, 0))
		}
	}
	stage := func(body string) *ir.Program {
		prog, err := ppc.Compile(`pps S { persistent var tab[16]; loop { ` + body + ` } }`)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.Partition(prog, core.Options{Stages: 1})
		if err != nil {
			t.Fatal(err)
		}
		return res.Stages[0]
	}
	stores := stage(`var n = pkt_rx(); tab[n & 15] = n;`)
	reads := stage(`var n = pkt_rx(); trace(tab[n & 15]);`)
	loads := stage(`trace(tab[3]);`)
	for _, c := range []struct {
		name   string
		stages []*ir.Program
	}{
		{"stores+loads", []*ir.Program{stores, loads}},
		{"loads+stores", []*ir.Program{loads, stores}},
		{"reads+loads", []*ir.Program{reads, loads}},
	} {
		label := "hand " + c.name
		fmt.Fprintf(&b, "%s%s\n", label, stageState(t, label, c.stages, 0))
	}

	got := b.String()
	path := filepath.Join("testdata", "stage_state.golden")
	if *updatePlans {
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
