package core

import (
	"fmt"

	"repro/internal/costmodel"
	"repro/internal/ir"
)

// ValidateStages checks the structural invariants every realized pipeline
// must satisfy, independent of behavioural testing:
//
//   - every stage function passes the IR verifier and contains no phis
//     (realization runs out-of-SSA conversion);
//   - stage k>1 starts with exactly one OpRecvLS, stage k<D ends with
//     exactly one OpSendLS, widths of consecutive send/recv match;
//   - the first stage never receives and the last never sends;
//   - state some stage writes — a persistent array it stores to, a queue —
//     is used by that stage only (costmodel.CheckConfined: the
//     PPS-loop-carried rule; read-only flow state lives in shared SRAM and
//     may be read from any engine);
//   - transmission instructions are flagged (Tx) so cost accounting can
//     separate them.
//
// Partition calls this on every result; it is exported for tests and for
// downstream users that construct pipelines manually.
func ValidateStages(stages []*ir.Program) error {
	D := len(stages)
	if D == 0 {
		return fmt.Errorf("validate: empty pipeline")
	}
	sendW := make([]int, D)
	recvW := make([]int, D)
	for k, sp := range stages {
		f := sp.Func
		if err := f.Verify(ir.VerifyMutable); err != nil {
			return fmt.Errorf("validate: stage %d: %w", k+1, err)
		}
		sends, recvs := 0, 0
		for _, b := range f.Blocks {
			for i, in := range b.Instrs {
				switch in.Op {
				case ir.OpPhi:
					return fmt.Errorf("validate: stage %d: phi survives realization in b%d", k+1, b.ID)
				case ir.OpSendLS:
					sends++
					sendW[k] = len(in.Args)
					if !in.Tx {
						return fmt.Errorf("validate: stage %d: unflagged send", k+1)
					}
				case ir.OpRecvLS:
					recvs++
					recvW[k] = len(in.Dsts)
					if !in.Tx {
						return fmt.Errorf("validate: stage %d: unflagged receive", k+1)
					}
					if b.ID != f.Entry || i != 0 {
						return fmt.Errorf("validate: stage %d: receive not at the entry", k+1)
					}
				}
			}
		}
		switch {
		case k == 0 && recvs != 0:
			return fmt.Errorf("validate: stage 1 receives")
		case k > 0 && recvs != 1:
			return fmt.Errorf("validate: stage %d has %d receives, want 1", k+1, recvs)
		case k == D-1 && sends != 0:
			return fmt.Errorf("validate: last stage sends")
		case k < D-1 && sends != 1:
			return fmt.Errorf("validate: stage %d has %d sends, want 1", k+1, sends)
		}
	}
	for k := 0; k+1 < D; k++ {
		if sendW[k] != recvW[k+1] {
			return fmt.Errorf("validate: cut %d width mismatch: send %d, recv %d", k+1, sendW[k], recvW[k+1])
		}
	}
	if err := costmodel.CheckConfined(stages); err != nil {
		return fmt.Errorf("validate: %w", err)
	}
	return nil
}
