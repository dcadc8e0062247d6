package repro_test

import (
	"context"
	"errors"
	"testing"

	"repro"
)

// TestWithFusionValidates: an unknown fusion mode fails fast with the
// typed sentinel, from Partition and from the per-call Serve layer alike.
func TestWithFusionValidates(t *testing.T) {
	prog, err := repro.Compile(facadeSrc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := repro.Partition(prog, repro.WithFusion(repro.FusionMode(9))); !errors.Is(err, repro.ErrBadOption) {
		t.Errorf("Partition err = %v, want ErrBadOption", err)
	}
	pipe, err := repro.Partition(prog, repro.WithStages(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pipe.Serve(context.Background(), repro.PacketSource(testPackets(4)),
		repro.WithFusion(repro.FusionMode(-1))); !errors.Is(err, repro.ErrBadOption) {
		t.Errorf("Serve err = %v, want ErrBadOption", err)
	}
}

// TestServeFusionOffMatchesAuto: the fused realization (FusionAuto on a
// pinned single-core budget fuses every cut) and the fully ringed one
// (FusionOff) must both serve a trace byte-identical to the sequential
// oracle, and the published Plan must tell them apart.
func TestServeFusionOffMatchesAuto(t *testing.T) {
	restore := repro.SetFusionCoresForTest(1)
	defer restore()
	prog, err := repro.Compile(facadeSrc)
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	packets := testPackets(n)
	seq := seqTrace(t, prog, packets, n)
	pipe, err := repro.Partition(prog, repro.WithStages(3))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name      string
		opts      []repro.Option
		wantFused int
	}{
		{"auto", nil, 2},
		{"off", []repro.Option{repro.WithFusion(repro.FusionOff)}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := pipe.Serve(context.Background(), repro.PacketSource(packets), tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			if diff := repro.TraceEqual(seq, m.Trace); diff != "" {
				t.Fatalf("trace diverges from oracle: %s", diff)
			}
			plan := pipe.Plan()
			if len(plan.FusedCuts) != tc.wantFused {
				t.Errorf("Plan.FusedCuts = %v, want %d fused cuts", plan.FusedCuts, tc.wantFused)
			}
			if tc.wantFused > 0 && len(plan.FusionWhy) == 0 {
				t.Error("fused plan carries no rationale")
			}
		})
	}
}
