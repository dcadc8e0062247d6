// Package fault is the serve runtime's test seam: a declarative schedule
// that stalls a stage, or panics inside it, when a given iteration arrives.
// It provokes what a production run can meet — a stalled stage saturates
// its rings, which block and lose nothing; a panic quarantines, the one
// loss — and nothing else. Only internal/runtime imports it outside tests
// (ci.sh gates that), through Config.Faults.
//
// A Plan is keyed entirely on (stage, iteration index), so the same plan
// produces the same fault sequence at every batch size, ring depth, and
// scheduling interleaving. The runtime consults an Injector (the per-run
// state of a Plan) before each stage body; with a nil Injector the hook is a
// no-op and the serve hot path is untouched.
//
// Determinism discipline: each injection belongs to exactly one stage, and
// the hook for a stage is called only from that stage's goroutine, so firing
// counters need no locks.
package fault

import (
	"context"
	"fmt"
	"time"

	"repro/internal/errs"
)

// Kind classifies an injected fault.
type Kind uint8

const (
	// Stall holds the stage for Sleep before executing the matched
	// iteration.
	Stall Kind = iota
	// Panic panics inside the stage when the matched iteration arrives; the
	// runtime recovers and quarantines (errs.ErrStagePanic).
	Panic
)

// Injection is one scheduled fault. The trigger is iteration-indexed:
// Every > 0 fires on every Every-th iteration (iterations Every-1,
// 2·Every-1, ...); otherwise the injection fires exactly at iteration At.
// Count bounds the total firings (0 means once for At-triggers, unlimited
// for Every-triggers).
type Injection struct {
	Kind  Kind
	Stage int           // 1-based stage index
	At    int64         // iteration to fire at (used when Every == 0)
	Every int64         // fire on every Every-th iteration
	Count int64         // firing budget; see above
	Sleep time.Duration // Stall hold time
}

// Plan is a deterministic fault schedule.
type Plan struct {
	Injections []Injection
}

// Validate checks the plan against a pipeline of the given degree.
func (p *Plan) Validate(stages int) error {
	if p == nil {
		return nil
	}
	for i, in := range p.Injections {
		if in.Kind > Panic {
			return fmt.Errorf("%w: fault injection %d: unknown kind %d", errs.ErrBadOption, i, in.Kind)
		}
		if in.Stage < 1 || in.Stage > stages {
			return fmt.Errorf("%w: fault injection %d: stage %d outside 1..%d", errs.ErrBadOption, i, in.Stage, stages)
		}
		if in.At < 0 || in.Every < 0 || in.Count < 0 || in.Sleep < 0 {
			return fmt.Errorf("%w: fault injection %d: negative trigger", errs.ErrBadOption, i)
		}
	}
	return nil
}

// InjectedPanic is the value an injected Panic fault panics with; the
// runtime's recovery path recognizes any panic, this type merely makes the
// quarantine reason readable and deterministic.
type InjectedPanic struct {
	Stage int
	Iter  int64
}

// String identifies the injection site; it is the recovered panic's text.
func (p InjectedPanic) String() string {
	return fmt.Sprintf("injected panic (stage %d, iteration %d)", p.Stage, p.Iter)
}

// state is the per-injection runtime counter. fired counts firings of the
// trigger; owned by the injection's stage goroutine.
type state struct {
	inj   Injection
	fired int64
}

// matches reports whether the injection triggers for iter, respecting the
// firing budget, and records the firing.
func (s *state) matches(iter int64) bool {
	in := &s.inj
	budget := in.Count
	if in.Every > 0 {
		if (iter+1)%in.Every != 0 {
			return false
		}
	} else {
		if iter != in.At {
			return false
		}
		budget = max(budget, 1)
	}
	if budget > 0 && s.fired >= budget {
		return false
	}
	s.fired++
	return true
}

// Injector is the per-run state of a Plan: the runtime calls BeforeStage
// ahead of each stage body; a nil *Injector is inert.
type Injector struct {
	perStage [][]*state // 1-based stage -> its injections
}

// NewInjector binds a validated plan to a pipeline of the given degree.
// A nil plan yields a nil injector (every hook inert).
func NewInjector(p *Plan, stages int) *Injector {
	if p == nil || len(p.Injections) == 0 {
		return nil
	}
	inj := &Injector{perStage: make([][]*state, stages+1)}
	for _, in := range p.Injections {
		inj.perStage[in.Stage] = append(inj.perStage[in.Stage], &state{inj: in})
	}
	return inj
}

// Lane returns an injector view with independent firing counters. The
// sharded runtime hands one lane to each replica of a replicated stage,
// preserving the single-goroutine ownership of the firing counters: a
// budgeted trigger then counts firings per lane, and — because batches are
// dealt to lanes in a fixed turn — the fault schedule stays deterministic
// at any shard count. A nil receiver returns nil.
func (inj *Injector) Lane() *Injector {
	if inj == nil {
		return nil
	}
	l := &Injector{perStage: make([][]*state, len(inj.perStage))}
	for k, states := range inj.perStage {
		for _, s := range states {
			l.perStage[k] = append(l.perStage[k], &state{inj: s.inj})
		}
	}
	return l
}

// BeforeStage runs the stage's faults for one iteration, in plan order:
// stalls sleep, panics panic. Called before the stage body, so a
// quarantined iteration has not touched persistent state.
func (inj *Injector) BeforeStage(ctx context.Context, stage int, iter int64) {
	if inj == nil {
		return
	}
	for _, s := range inj.perStage[stage] {
		if !s.matches(iter) {
			continue
		}
		if s.inj.Kind == Panic {
			panic(InjectedPanic{Stage: stage, Iter: iter})
		}
		if s.inj.Sleep > 0 {
			t := time.NewTimer(s.inj.Sleep)
			select {
			case <-ctx.Done():
			case <-t.C:
			}
			t.Stop()
		}
	}
}
